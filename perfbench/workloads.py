"""The two workloads of the benchmark.

Each workload makes all of its inputs from the seed and a round index, so a
seed fixes the inputs of every round.  `setup` is the one-off set-up a user
pays once per process; `run_round` performs one round of timed operations,
checks their outputs outside the timed regions and returns the round's timed
seconds.  Every operation counts as attempted; it fails when it raises,
returns the wrong exit code or fails its output check.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from polar_derham import cli, iotools, torus
from polar_derham.torus import FieldCoefficients, TorusComplexSpec

REFERENCE_FILE = Path(__file__).with_name("reference_pushforward.json")


def round_rng(seed, index):
    return np.random.default_rng([seed, index])


def geometry_args(rng):
    """Seeded major-radius offset and interval lengths; neither changes the
    matrices, so every seed exercises the same amount of work."""
    lengths = ",".join(repr(float(x)) for x in rng.uniform(0.5, 2.0, 3))
    return ["--rho-bar", repr(float(rng.uniform(2.5, 4.0))), "--lengths", lengths]


def run_cli(argv):
    """`polar_derham.cli.main(argv)` in-process; returns (exit code, seconds).

    Console output is captured so that the benchmark's own last line stays
    the result line.
    """
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
        return rc, perf_counter() - start


def attempt(fn, *args):
    """Run one operation: (result, []) or, when it raises, (None, [message])."""
    try:
        return fn(*args), []
    except Exception as exc:  # every failure is counted, none aborts the run
        return None, [f"{fn.__name__}: {type(exc).__name__}: {exc}"]


def read_json(path):
    return json.loads(Path(path).read_text())


class Workload:
    name = None

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, failures):
        """Count one operation; `failures` lists what went wrong with it."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)

    @contextlib.contextmanager
    def untraced(self):
        """Output checks are not part of the traced work."""
        run = self.tracer.run if self.tracer else None
        if self.tracer:
            self.tracer.run = None
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.run = run

    def setup(self):
        raise NotImplementedError

    def run_round(self, index):
        raise NotImplementedError

    def final_checks(self):
        """Checks made once per run, after the timed rounds."""

    def summary(self):
        """Named end-to-end figures of this workload: name -> (value, unit)."""
        raise NotImplementedError


# ================================ build-verify ===============================

class BuildReload(Workload):
    """Build and persist complexes, then reload every matrix file."""

    sizes = ((12, 12, 6), (16, 16, 8))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.build_s = []
        self.load_s = []

    def setup(self):
        out = self.workdir / "warmup"
        rc, _ = run_cli(["build", "--sizes", "4,4,3", "--out", out])
        if rc != 0:
            raise RuntimeError(f"warm-up build exited {rc}")
        self._reload(out)
        shutil.rmtree(out)

    def run_round(self, index):
        rng = round_rng(self.seed, index)
        build_s = load_s = 0.0
        for dims in self.sizes:
            out = self.workdir / f"round{index}-{dims[0]}"
            argv = ["build", "--degrees", "2,2,2", "--sizes", ",".join(map(str, dims)),
                    *geometry_args(rng), "--out", out]
            result, failures = attempt(run_cli, argv)
            if result is not None:
                rc, seconds = result
                build_s += seconds
                if rc != 0:
                    failures = [f"build {dims} exited {rc}"]
            if not failures:
                loaded, load_failures = attempt(self._reload, out)
                self.record(load_failures)
                if loaded is not None:
                    mats, seconds = loaded
                    load_s += seconds
                    found, failures = attempt(self._check_bundle, out, mats, dims)
                    failures += found or []
            self.record(failures)
            shutil.rmtree(out, ignore_errors=True)
        self.build_s.append(build_s)
        self.load_s.append(load_s)
        return build_s + load_s

    @staticmethod
    def _reload(out):
        """Read every matrix file back, as a downstream solver would."""
        mats, seconds = {}, 0.0
        for path in sorted((Path(out) / "matrices").glob("*.txt")):
            start = perf_counter()
            mats[path.stem] = iotools.read_triplet(path)
            seconds += perf_counter() - start
        return mats, seconds

    @staticmethod
    def _check_bundle(out, mats, dims):
        record = read_json(Path(out) / "dimensions.json")
        failures = checks.check_dimensions(record)
        if tuple(record["dims"]) != dims:
            failures.append(f"bundle dims {record['dims']}, expected {dims}")
        failures += checks.check_complex_property(mats)
        failures += checks.check_commutation(mats, dims)
        return [f"bundle {dims}: {f}" for f in failures]

    def summary(self):
        return {"build_s": (float(np.median(self.build_s)), "s"),
                "load_s": (float(np.median(self.load_s)), "s")}


class VerifyDense(Workload):
    """Run the verifier where dense rank decisions dominate, plus the two
    negative controls, which must fail."""

    cases = (
        ("2,2,2", "4,4,3", ()),
        ("2,2,2", "5,6,4", ()),
        ("2,2,2", "7,7,5", ()),
        ("3,3,3", "7,7,5", ()),
        ("2,2,2", "8,8,6", ()),
        ("2,2,2", "4,4,3", ("--perturb-ebar", "1e-3")),
        ("2,2,2", "4,4,3", ("--drop-row", "D1:5")),
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.verify_s = []

    def setup(self):
        rc, _ = run_cli(["verify", "--sizes", "4,4,3", "--out", self.workdir / "warmup.json"])
        if rc != 0:
            raise RuntimeError(f"warm-up verify exited {rc}")

    def run_round(self, index):
        rng = round_rng(self.seed, index)
        report_path = self.workdir / "report.json"
        total = 0.0
        for degrees, sizes, control in self.cases:
            report_path.unlink(missing_ok=True)
            argv = ["verify", "--degrees", degrees, "--sizes", sizes,
                    *geometry_args(rng), *control, "--out", report_path]
            result, failures = attempt(run_cli, argv)
            if result is not None:
                rc, seconds = result
                total += seconds
                report, failures = attempt(read_json, report_path)
                if report is not None:
                    failures = checks.check_verify_outcome(rc, report, bool(control))
                    self._trace_suites(report)
            self.record([f"verify {degrees} {sizes} {' '.join(control)}: {f}"
                         for f in failures])
        self.verify_s.append(total)
        return total

    def _trace_suites(self, report):
        """The report's own per-suite timings become layer figures."""
        if self.tracer is not None:
            for suite, seconds in report.get("timings", {}).items():
                self.tracer.add(f"verification.{suite}_s", seconds)

    def summary(self):
        return {"verify_s": (float(np.median(self.verify_s)), "s")}


class BuildVerify(BuildReload, VerifyDense):
    """One round builds, persists and reloads two complexes, then verifies
    five more and runs both negative controls: construction and I/O in the
    first half, dense rank decisions in the second, no pointwise sampling.

    The two halves share one workload so that the benchmark's time budget
    allows long runs of many short rounds: on a shared host the speed drifts
    by tens of percent over tens of seconds, and a median over two or three
    long rounds followed that drift."""

    name = "build-verify"

    def setup(self):
        BuildReload.setup(self)
        VerifyDense.setup(self)

    def run_round(self, index):
        return BuildReload.run_round(self, index) + VerifyDense.run_round(self, index)

    def summary(self):
        return {**BuildReload.summary(self), **VerifyDense.summary(self)}


# ================================ field-sample ===============================

def sample_points(rng, count, s_min):
    """Parametric points of the unit box with s in [s_min, 1]."""
    return np.column_stack([rng.uniform(0.0, 1.0, count),
                            rng.uniform(s_min, 1.0, count),
                            rng.uniform(0.0, 1.0, count)])


def level_dims(cx):
    c = cx.counts
    return c.n0, c.n1, c.n2, c.n3


def reference_inputs(cx, seed, points_per_level):
    """The fixed fields and points whose pushforwards are stored as the
    reference: (level, coefficients, points) per level."""
    rng = np.random.default_rng(seed)
    return [(level, rng.uniform(-1.0, 1.0, n),
             sample_points(rng, points_per_level, FieldSample.s_min))
            for level, n in enumerate(level_dims(cx))]


def evaluate_reference(cx, seed, points_per_level):
    """Pushforward (xyz, value) of every reference input, in stored order."""
    return [cx.pushforward(coeffs, tuple(point), level=level)
            for level, coeffs, points in reference_inputs(cx, seed, points_per_level)
            for point in points]


class FieldSample(Workload):
    """Steady-state use of one built complex: operator rounds and pointwise
    pushforwards on every level; the build belongs to the set-up."""

    name = "field-sample"
    degrees = (2, 2, 2)
    dims = (32, 32, 16)
    s_min = 0.01
    points_per_level = 25
    apply_rounds = 5
    constant_points = 5
    warmup_points = 25

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cx = None
        self.apply_s = []
        self.point_s = []

    def setup(self):
        self.cx = torus.build_complex(TorusComplexSpec(self.degrees, self.dims))
        rng = np.random.default_rng(self.seed)
        self._operator_round(rng)
        for level, n in enumerate(level_dims(self.cx)):
            coeffs = rng.uniform(-1.0, 1.0, n)
            for point in sample_points(rng, self.warmup_points, self.s_min):
                self.cx.pushforward(coeffs, tuple(point), level=level)

    def _operator_round(self, rng):
        """Reduced grad -> curl -> div, curl -> div of a generic 1-field, and
        to_tensor plus a tensor-side grad; returns (seconds, outputs)."""
        cx = self.cx
        n0, n1, _, _ = level_dims(cx)
        f = FieldCoefficients(0, "reduced", rng.uniform(-1.0, 1.0, n0))
        u = FieldCoefficients(1, "reduced", rng.uniform(-1.0, 1.0, n1))
        start = perf_counter()
        g = cx.grad(f)
        curl_grad = cx.curl(g)
        cx.div(curl_grad)
        div_curl = cx.div(cx.curl(u))
        tensor_grad = cx.grad(cx.to_tensor(f))
        seconds = perf_counter() - start
        return seconds, (g, curl_grad, div_curl, tensor_grad)

    def _check_operator_round(self, g, curl_grad, div_curl, tensor_grad):
        return checks.check_operator_round(curl_grad.data, div_curl.data,
                                           self.cx.to_tensor(g).data, tensor_grad.data)

    def _constant_values(self, points):
        ones = np.ones(level_dims(self.cx)[0])
        return [self.cx.pushforward(ones, tuple(p), level=0)[1] for p in points]

    def run_round(self, index):
        rng = round_rng(self.seed, index)
        cx = self.cx
        timed = 0.0
        for _ in range(self.apply_rounds):
            result, failures = attempt(self._operator_round, rng)
            if result is not None:
                seconds, outputs = result
                timed += seconds
                self.apply_s.append(seconds)
                with self.untraced():
                    found, failures = attempt(self._check_operator_round, *outputs)
                failures += found or []
            self.record(failures)
        for level, n in enumerate(level_dims(cx)):
            coeffs = rng.uniform(-1.0, 1.0, n)
            for point in sample_points(rng, self.points_per_level, self.s_min):
                point = tuple(point)
                start = perf_counter()
                result, failures = attempt(cx.pushforward, coeffs, point, level)
                seconds = perf_counter() - start
                if result is not None:
                    timed += seconds
                    self.point_s.append(seconds)
                    if not all(np.all(np.isfinite(x)) for x in result):
                        failures = [f"non-finite pushforward level {level} at {point}"]
                self.record(failures)
        with self.untraced():
            values, failures = attempt(self._constant_values,
                                       sample_points(rng, self.constant_points, 0.0))
        self.record(failures or checks.check_constant_field(values))
        return timed

    def final_checks(self):
        reference = read_json(REFERENCE_FILE)
        got, failures = attempt(evaluate_reference, self.cx, reference["seed"],
                                reference["points_per_level"])
        self.record(failures or checks.check_reference(got, reference["entries"]))

    def summary(self):
        latency_ms = np.asarray(self.point_s) * 1e3
        return {
            "sample_pts_per_s": (len(self.point_s) / float(np.sum(self.point_s)), "1/s"),
            "sample_pt_p50_ms": (float(np.percentile(latency_ms, 50)), "ms"),
            "sample_pt_p99_ms": (float(np.percentile(latency_ms, 99)), "ms"),
            "sample_points": (len(self.point_s), "count"),
            "apply_per_s": (1.0 / float(np.median(self.apply_s)), "1/s"),
        }


WORKLOADS = {w.name: w for w in (BuildVerify, FieldSample)}
