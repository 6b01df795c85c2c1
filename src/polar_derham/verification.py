"""Verification suites for an assembled polar complex.

Aggregates every testable identity of the construction into a
deterministic, schema-versioned report: dimension formulas, DTA
compatibility, the complex property, the seven commutation identities,
cohomology dimensions from certified ranks with the gap diagnostics of
the closed-form singular values, divergence surjectivity, partition of
unity and polar-curve C1.  The last is algebraic: per joint, every
level-0 function's ring-0 coefficients must agree and its ring-1 steps
must be linear in F's (:func:`polar_derham.geometry.polar_c1_residuals`),
to a rounding bound of F's net, not to `residual`.  That suite is keyed
``smoothness_probe`` and reports ``method: "algebraic"``.  The suites
that read E's or D's share one certification of both as circle lifts and
read their blocks alone, the D's as the disk blocks d0 and d1: each
family's blocks are its own, and only a family with an override is read
back from its matrices, failing, naming it, on one that is no lift.
The README lists the fields each schema version changed.
"""

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .bsplines import dta_diagnostic
from .extraction import basis_entries
from .geometry import polar_c1_residuals
from .incidence import (certify, cohomology_dimensions, commutation_residuals,
                        divergence_preimage, max_abs)
from .tensor import StructureError, partition_rank

__all__ = [
    "VerificationReport",
    "run_verification",
    "inject_row_drop",
    "SCHEMA_VERSION",
    "RESIDUAL_TOL",
    "PREIMAGE_TOL",
    "GAP_RATIO_MIN",
    "SEED",
    "NUM_POINTS",
]

SCHEMA_VERSION = 3

# Pass/fail thresholds of the verification suites; only the residual one is
# a parameter of `run_verification` (the CLI's --tol).
RESIDUAL_TOL = 1e-12            # complex property, commutation, PoU
PREIMAGE_TOL = 1e-12            # relative divergence-preimage residual
GAP_RATIO_MIN = 1e6             # SVD gap required at each rank decision

# Sampling of the randomized suites.
SEED = 20240
NUM_POINTS = 200                # partition-of-unity sample points


def inject_row_drop(cx, name, row):
    """Zero the 1-based `row` of a named D- or E-matrix (fault injection).

    Returns a copy of the complex that shares every part but the patched
    matrix's family, and of that family its blocks and lift table, with the
    patched matrix as an override of its lift; a verifier that cannot fail
    is untrustworthy, so this plus the center-block perturbation provide
    the negative controls. A row that is already all zero is rejected,
    because dropping it would leave the complex unchanged.
    """
    owners = {matrix: owner for owner in ("extraction", "incidence")
              for matrix in getattr(cx, owner).names()}
    if name not in owners:
        raise ValueError(f"unknown matrix {name!r} for --drop-row; choose one of {sorted(owners)}")
    family = getattr(cx, owners[name])
    matrix = getattr(family, name)
    if not 1 <= row <= matrix.shape[0]:
        raise ValueError(f"row {row} out of range 1..{matrix.shape[0]} for {name}")
    patched = matrix.tocsr(copy=True)
    entries = patched.data[patched.indptr[row - 1]:patched.indptr[row]]
    if not entries.any():
        raise ValueError(f"row {row} of {name} is already all zero: dropping it "
                         "injects no fault")
    entries[:] = 0.0
    patched.eliminate_zeros()
    family = dataclasses.replace(family, overrides={**family.overrides, name: patched})
    return dataclasses.replace(cx, **{owners[name]: family})


@dataclass
class VerificationReport:
    schema_version: int
    config: dict
    dims: dict
    suites: dict
    timings: dict
    passed: bool
    failures: list = field(default_factory=list)

    def to_dict(self):
        """The fields as a dict; its values are the report's own."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _timed(timings, name, fn):
    start = time.perf_counter()
    try:
        return fn()
    finally:
        timings[name] = time.perf_counter() - start


def run_verification(cx, residual=RESIDUAL_TOL, config_echo=None):
    """Run every suite on a built complex and collect a report.

    `residual` bounds the complex-property, commutation and
    partition-of-unity residuals.  The random draws are seeded, so timings
    are the only run-to-run variation in the output.

    Each suite returns its fields and its failure message, None when it
    passes; a suite that reads a family that is no lift, or raises
    StructureError, fails with that message as its `structure_violation`.
    One loop turns these into each suite's `pass`, one line
    ``"<suite>: <failure>"`` per failed suite, and `passed`.

    No suite's pass contains a condition another of its conditions
    implies.  The count formulas of the dimensions suite have alternating
    sum 0 at every size, so the reported `alternating_sum` is 0 whenever
    the counts match.  The cohomology suite's dims (1, 1, 0, 0) come from
    certified ranks and force them to be (n0 - 1, `expected_rank_d1`,
    `expected_rank_d2`), so the ranks are reported, not gated again.
    """
    rng = np.random.default_rng(SEED)
    c = cx.counts
    timings = {}

    # ----- certification: each family's blocks, read once --------------------
    blocks, violations = _timed(timings, "certify", lambda: certify(cx.extraction, cx.incidence))

    def read(*families):
        """The certified blocks; raises StructureError naming every family
        of `families` that is no lift."""
        if message := "; ".join(violations[f] for f in families if f in violations):
            raise StructureError(message)
        return blocks

    # ----- dimension formulas ------------------------------------------------
    def dims_suite():
        nr, ns, nt = c.nr, c.ns, c.nt
        nbar0 = nr * (ns - 2) + 3
        expected = {
            "n0": nt * nbar0,
            "n1": nt * (3 * nr * (ns - 2) + 5),
            "n2": nt * (2 * (nbar0 - 2) + nbar0 - 3),
            "n3": nt * (nbar0 - 3),
        }
        got = {"n0": c.n0, "n1": c.n1, "n2": c.n2, "n3": c.n3}
        return ({"expected": expected, "got": got, "alternating_sum": c.alternating_sum},
                None if got == expected else f"count formulas: got {got}, expected {expected}, "
                                             f"alternating sum {c.alternating_sum}")

    # ----- DTA compatibility and row independence ----------------------------
    # Every block, like the univariate H0_r and H0_t, must partition into
    # unit and center rows; its rank is then certified without a dense
    # decomposition (partition_rank).
    def dta_suite():
        # (name, block, joints the certified block repeats over)
        dta = (("E000", read("E")["e0"], c.nt),
               ("H0_r", cx.tensor.spaces[0].h0, 1),
               ("H0_t", cx.tensor.spaces[2].h0, 1))
        # each E lifts one block, +/-I (x) block: their joint ranks agree,
        # and each block is ranked once, named by the first E that lifts it
        ranks, ranked = {}, {}
        for name in ("E000", "E100", "E010", "E001", "E011", "E101", "E110"):
            (_, label, _, _), = cx.extraction.lifts.terms[name][1]
            if label not in ranked:
                ranked[label] = partition_rank(blocks[label], name)
            ranks[name] = ranked[label]
        ranks.update({name: partition_rank(matrix, name) for name, matrix, _ in dta[1:]})
        results = {name: dataclasses.asdict(dta_diagnostic(matrix, ranks[name][0], joints))
                   for name, matrix, joints in dta}
        independence = {}
        for name in ("E100", "E010", "E001", "E011", "E101", "E110"):
            rank, count = (c.nt * n for n in ranks[name])
            independence[name] = {"rank": rank, "nonzero_rows": count}
        ok = (all(r["ok"] for r in results.values())
              and all(i["rank"] == i["nonzero_rows"] for i in independence.values()))
        return ({"method": "per-joint", "dta": results, "nonzero_row_independence": independence},
                None if ok else f"DTA or row-independence violation: {results} {independence}")

    # ----- complex property ---------------------------------------------------
    # the circle terms cancel: D1 D0 and D2 D1 are I (x) (d1 d0) where nonzero
    def complex_suite():
        disk = read("D")
        r = max_abs(disk["d1"] @ disk["d0"])
        return ({"d1_d0": r, "d2_d1": r},
                None if r <= residual else f"D1 D0 residual {r:.3e}, D2 D1 residual {r:.3e}")

    # ----- commutation ----------------------------------------------------------
    def commutation_suite():
        residuals = commutation_residuals(c, read("E", "D"))
        worst = max(residuals.values())
        return ({"residuals": residuals, "worst": worst},
                None if worst <= residual else f"worst residual {worst:.3e} > {residual:.0e}")

    # ----- cohomology -----------------------------------------------------------
    def cohomology_suite():
        disk = read("D")
        rep = cohomology_dimensions(c, (disk["d0"], disk["d1"]))
        expected_rank_d1 = c.nt * (c.nbar2 + c.nbar0 - 1)
        dims_ok = rep.dims == (1, 1, 0, 0)
        gaps_ok = all(g >= GAP_RATIO_MIN for g in rep.gap_ratios)
        def preimage_residual(m):  # D2 h per joint: d1 on side faces, Dt on joint faces
            joint, side = np.split(divergence_preimage(c, m).reshape(c.nt, -1), [c.nbar2], axis=1)
            div = (disk["d1"] @ side.T).T + np.roll(joint, -1, axis=0) - joint
            return float(np.abs(div.ravel() - m).max() / np.abs(m).max())
        m_worst = max(map(preimage_residual, rng.standard_normal((10, c.n3))))
        preimage_ok = m_worst <= PREIMAGE_TOL
        ok = not rep.failures and dims_ok and gaps_ok and preimage_ok
        return {
            "method": rep.method,
            "rank_method": rep.rank_method,
            "dims": None if rep.dims is None else list(rep.dims),
            "ranks": list(rep.ranks),
            "expected_rank_d1": expected_rank_d1,
            "expected_rank_d2": c.n3,
            "gap_ratios": [g if np.isfinite(g) else "inf" for g in rep.gap_ratios],
            "sv_bracket": [list(b) for b in rep.sv_bracket],
            "divergence_preimage_residual": m_worst,
            "warnings": rep.warnings,
        }, None if ok else "; ".join(
            rep.failures + [f"dims {rep.dims}, ranks {rep.ranks} (D1 expected {expected_rank_d1}, "
                            f"D2 expected {c.n3}), gaps {rep.gap_ratios}, preimage {m_worst:.3e}"])

    # ----- partition of unity ---------------------------------------------------
    def pou_suite():
        # the gather's entries, unsummed: no dense (points, n0) array
        upper = [sp.interval[1] for sp in cx.tensor.spaces]
        point, function, weight = basis_entries(
            cx.extraction, cx.tensor, 0, rng.uniform(0, upper, size=(NUM_POINTS, 3)))
        sums = np.bincount(point, weights=weight, minlength=NUM_POINTS)
        worst_sum = float(np.abs(sums - 1.0).max(initial=0.0))
        # a function's value at a point is the sum of its pair's weights;
        # every function without an entry there is 0
        pair = np.unique(point * c.n0 + function, return_inverse=True)[1]
        min_val = float(np.bincount(pair.ravel(), weights=weight).min(initial=0.0))
        return ({"worst_sum_error": worst_sum, "min_value": min_val, "points": NUM_POINTS},
                None if worst_sum <= residual and min_val >= -residual else
                f"worst |sum-1| {worst_sum:.3e}, min value {min_val:.3e}")

    # ----- polar-curve C1 --------------------------------------------------------
    def smoothness_suite():
        spread, c1, bound, (joint, function) = polar_c1_residuals(cx.extraction, cx.polar_map)
        return ({"method": "algebraic", "ring0_spread": spread, "c1_affine_residual": c1,
                 "bound": bound, "worst": {"joint": joint, "function": function}},
                None if spread <= bound and c1 <= bound else
                f"ring-0 spread {spread:.3e}, C1 affine residual {c1:.3e}, bound {bound:.3e}; "
                f"worst: function {function} at joint {joint}")

    suites, failures = {}, []
    # each suite, and the fields it reports before its structure violation
    for name, suite, violated in (
            ("dimensions", dims_suite, {}),
            ("dta", dta_suite, {"method": "per-joint"}),
            ("complex_property", complex_suite, {}),
            ("commutation", commutation_suite, {}),
            ("cohomology", cohomology_suite, {"method": None}),
            ("partition_of_unity", pou_suite, {}),
            ("smoothness_probe", smoothness_suite, {})):
        try:
            fields, failure = _timed(timings, name, suite)
        except StructureError as exc:
            fields, failure = {**violated, "structure_violation": str(exc)}, str(exc)
        suites[name] = {"pass": failure is None, **fields}
        if failure is not None:
            failures.append(f"{name}: {failure}")

    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        config=config_echo if config_echo is not None else cx.dims_record(),
        dims=cx.dims_record(),
        suites=suites,
        timings=timings,
        passed=not failures,
        failures=failures,
    )
