"""In-memory span recorder wrapped around the package's public functions.

The package source is not touched: `Tracer.install` replaces module and
class attributes of `polar_derham` with timing wrappers and `uninstall`
puts the originals back.  A span's layer is the part of its name before the
first dot, one of the package's nine modules.  Spans of one round (or one
set-up repetition) share a run id; only spans recorded while a run id is set
are kept.
"""

import contextlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _bundle_bytes(tracer, result, args):
    out = os.fspath(args[0])
    tracer.add("iotools.bytes_written", sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(out) for f in files))


def _extraction_nnz(tracer, result, args):
    for name in result.names():
        nnz = getattr(result, name).nnz
        tracer.add(f"extraction.nnz.{name}", nnz)
        tracer.add("extraction.nnz", nnz)


def _incidence_nnz(tracer, result, args):
    for name in ("D0", "D1", "D2"):
        nnz = getattr(result, name).nnz
        tracer.add(f"incidence.nnz.{name}", nnz)
        tracer.add("incidence.nnz", nnz)


def _apply_kind(args):
    field = args[1]
    if getattr(field, "space", "reduced") == "tensor":
        return "torus.tensor_apply"
    return "torus.reduced_apply"


def patch_table():
    """(owner, attribute, span name or naming function, counter hook)."""
    from polar_derham import bsplines, cli, geometry, iotools, tensor, torus, verification

    table = [
        (cli, "main", "cli.main", None),
        (cli, "build_complex", "torus.build", None),
        (torus, "build_complex", "torus.build", None),
        (cli, "write_bundle", "iotools.write", _bundle_bytes),
        (cli, "run_verification", "verification.run", None),
        (cli, "inject_row_drop", "verification.inject_row_drop", None),
        (iotools, "read_triplet", "iotools.read", None),
        (torus, "build_tensor_sequence", "tensor.build", None),
        (torus, "ebar_block", "extraction.ebar_block", None),
        (torus, "assemble_3d", "extraction.assemble", _extraction_nnz),
        (torus, "build_incidence", "incidence.build", _incidence_nnz),
        (torus, "build_polar_map", "geometry.maps", None),
        (torus, "build_geometry_g", "geometry.maps", None),
        (torus, "verify_commutation", "incidence.commutation", None),
        (torus, "cohomology_dimensions", "incidence.cohomology", None),
        (torus, "reduced_basis_values", "extraction.basis_values", None),
        (torus, "pushforward_eval", "geometry.pushforward", None),
        (torus, "polar_basis_smoothness_probe", "geometry.probe", None),
        (geometry, "reduced_basis_values", "extraction.basis_values", None),
        (verification, "is_dta_compatible", "bsplines.dta", None),
        (verification, "divergence_preimage", "incidence.preimage", None),
        (geometry.SplineMap, "eval", "geometry.map_eval", None),
        (geometry.SplineMap, "jacobian", "geometry.jacobian", None),
        (tensor.TensorComplex, "eval_component_basis", "tensor.eval_basis", None),
        (torus.PolarComplex, "to_tensor", "torus.to_tensor", None),
    ]
    for method in ("apply_grad", "apply_curl", "apply_div"):
        table.append((tensor.TensorComplex, method, "tensor.apply", None))
    for method in ("grad_matrix", "curl_matrix", "div_matrix"):
        table.append((tensor.TensorComplex, method, "tensor.operator_matrix", None))
    for method in ("grad", "curl", "div"):
        table.append((torus.PolarComplex, method, _apply_kind, None))
    for method in ("eval_basis", "eval_basis_derivative", "eval_deriv_space_basis"):
        table.append((bsplines.SplineSpace, method, "bsplines.eval_basis", None))
    return table


class Tracer:
    """Spans are [name, start, end, parent index, run id] lists."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run = None
        self.missing = []
        self._stack = []
        self._saved = []

    # ------------------------------ recording -------------------------------

    def add(self, key, amount):
        if self.run is not None:
            self.counts[(self.run, key)] += amount

    def wrap(self, fn, name, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    def _dense(self, fn):
        """Count 8 * rows * cols per dense factorisation operand, charged to
        the layer of the innermost open span."""
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            if self._stack and len(shape) == 2:
                layer = self.spans[self._stack[-1]][0].split(".")[0]
                self.add(f"{layer}.dense_bytes", 8 * shape[0] * shape[1])
            return fn(a, *args, **kwargs)
        return counted

    # ------------------------------ patching --------------------------------

    def install(self):
        self.missing = []
        for owner, attr, name, hook in patch_table():
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))
        for attr in ("svd", "matrix_rank"):
            original = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._dense(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, run):
        """Trace the enclosed calls as one run."""
        self.install()
        self.run = run
        try:
            yield
        finally:
            self.run = None
            self.uninstall()

    # ------------------------------ analysis --------------------------------

    def run_metrics(self, run):
        """Per-layer self times, inclusive time and call count per span name,
        and the counters of one run."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, parent, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            duration = end - start
            out[f"{name.split('.')[0]}.self_s"] += duration - child_time[index]
            out[f"{name}_s"] += duration
            out[f"{name}_calls"] += 1
            out["trace.spans"] += 1
        for (span_run, key), value in self.counts.items():
            if span_run == run:
                out[key] += value
        return out

    def dump(self):
        return {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": [[run, key, value] for (run, key), value in self.counts.items()],
            "unpatched": self.missing,
        }
