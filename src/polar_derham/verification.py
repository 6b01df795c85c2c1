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
``smoothness_probe`` and reports ``method: "algebraic"``.  The DTA,
commutation and cohomology suites share one read of the E's and D's as
circle lifts, and fail, naming it, on a matrix that is not its lift.
The README lists the fields each schema version changed.
"""

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .bsplines import dta_diagnostic
from .extraction import basis_entries, lift_table
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
    matrix and its family; a verifier that cannot fail is
    untrustworthy, so this plus the center-block perturbation provide the
    negative controls. A row that is already all zero is rejected, because
    dropping it would leave the complex unchanged.
    """
    incidence_names = {"D0", "D1", "D2"}
    names = incidence_names | set(cx.extraction.names())
    if name not in names:
        raise ValueError(f"unknown matrix {name!r} for --drop-row; choose one of {sorted(names)}")
    owner = "incidence" if name in incidence_names else "extraction"
    family = getattr(cx, owner)
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
    # an E-matrix is an override of its lift; a D-matrix is kept
    change = ({name: patched} if owner == "incidence"
              else {"overrides": {**family.overrides, name: patched}})
    return dataclasses.replace(cx, **{owner: dataclasses.replace(family, **change)})


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
    result = fn()
    timings[name] = time.perf_counter() - start
    return result


def run_verification(cx, residual=RESIDUAL_TOL, config_echo=None):
    """Run every suite on a built complex and collect a report.

    `residual` bounds the complex-property, commutation and
    partition-of-unity residuals.  The random draws are seeded, so timings
    are the only run-to-run variation in the output.

    No suite's pass contains a condition another of its conditions
    implies.  The count formulas of the dimensions suite have alternating
    sum 0 at every size, so the reported `alternating_sum` is 0 whenever
    the counts match.  The cohomology suite's dims (1, 1, 0, 0) come from
    certified ranks and force them to be (n0 - 1, `expected_rank_d1`,
    `expected_rank_d2`), so the ranks are reported, not gated again.
    """
    rng = np.random.default_rng(SEED)
    c = cx.counts
    suites = {}
    timings = {}
    failures = []

    def gate(suite, ok, message):
        if not ok:
            failures.append(f"{suite}: {message}")

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
        ok = got == expected
        gate("dimensions", ok, f"count formulas: got {got}, expected {expected}, "
                               f"alternating sum {c.alternating_sum}")
        return {"pass": ok, "expected": expected, "got": got,
                "alternating_sum": c.alternating_sum}

    suites["dimensions"] = _timed(timings, "dimensions", dims_suite)

    # ----- certification: each family's blocks, read once --------------------
    blocks, violations = _timed(timings, "certify", lambda: certify(cx.extraction, cx.incidence))

    def violation(suite, message, **fields):
        gate(suite, False, message)
        return {"pass": False, **fields, "structure_violation": message}

    # ----- DTA compatibility and row independence ----------------------------
    # Every block, like the univariate H0_r and H0_t, must partition into
    # unit and center rows; its rank is then certified without a dense
    # decomposition (partition_rank).
    def dta_suite():
        if "E" in violations:
            return violation("dta", violations["E"], method="per-joint")
        # (name, block, joints the certified block repeats over)
        dta = (("E000", blocks["e0"], c.nt),
               ("H0_r", cx.tensor.spaces[0].h0, 1),
               ("H0_t", cx.tensor.spaces[2].h0, 1))
        try:
            # each E lifts one block, +/-I (x) block: their joint ranks agree
            terms = lift_table(c).terms
            ranks = {name: partition_rank(blocks[label], name)
                     for name in ("E000", "E100", "E010", "E001", "E011", "E101", "E110")
                     for _, label, _, _ in terms[name][1]}
            ranks.update({name: partition_rank(matrix, name) for name, matrix, _ in dta[1:]})
        except StructureError as exc:
            return violation("dta", str(exc), method="per-joint")
        results = {}
        ok = True
        for name, matrix, joints in dta:
            diag = dta_diagnostic(matrix, ranks[name][0], joints)
            results[name] = {key: getattr(diag, key) for key in (
                "ok", "rank", "min_entry", "max_column_sum_error", "max_row_support", "violation")}
            ok = ok and diag.ok
        independence = {}
        for name in ("E100", "E010", "E001", "E011", "E101", "E110"):
            rank, count = (c.nt * n for n in ranks[name])
            independence[name] = {"rank": rank, "nonzero_rows": count}
            ok = ok and rank == count
        gate("dta", ok, f"DTA or row-independence violation: {results} {independence}")
        return {"pass": ok, "method": "per-joint", "dta": results,
                "nonzero_row_independence": independence}

    suites["dta"] = _timed(timings, "dta", dta_suite)

    # ----- complex property ---------------------------------------------------
    def complex_suite():
        r10 = max_abs(cx.incidence.D1 @ cx.incidence.D0)
        r21 = max_abs(cx.incidence.D2 @ cx.incidence.D1)
        ok = r10 <= residual and r21 <= residual
        gate("complex_property", ok, f"D1 D0 residual {r10:.3e}, D2 D1 residual {r21:.3e}")
        return {"pass": ok, "d1_d0": r10, "d2_d1": r21}

    suites["complex_property"] = _timed(timings, "complex_property", complex_suite)

    # ----- commutation ----------------------------------------------------------
    def commutation_suite():
        if violations:
            return violation("commutation", "; ".join(violations.values()))
        residuals = commutation_residuals(c, blocks)
        worst = max(residuals.values())
        ok = worst <= residual
        gate("commutation", ok, f"worst residual {worst:.3e} > {residual:.0e}")
        return {"pass": ok, "residuals": residuals, "worst": worst}

    suites["commutation"] = _timed(timings, "commutation", commutation_suite)

    # ----- cohomology -----------------------------------------------------------
    def cohomology_suite():
        if "D" in violations:
            return violation("cohomology", violations["D"], method=None)
        rep = cohomology_dimensions(cx.incidence, (blocks["d0"], blocks["d1"]))
        expected_rank_d1 = c.nt * (c.nbar2 + c.nbar0 - 1)
        dims_ok = rep.dims == (1, 1, 0, 0)
        gaps_ok = all(g >= GAP_RATIO_MIN for g in rep.gap_ratios)
        m_worst = max(float(np.abs(cx.incidence.D2 @ divergence_preimage(c, m) - m).max()
                            / np.abs(m).max()) for m in rng.standard_normal((10, c.n3)))
        preimage_ok = m_worst <= PREIMAGE_TOL
        ok = not rep.failures and dims_ok and gaps_ok and preimage_ok
        gate("cohomology", ok, "; ".join(
            rep.failures + [f"dims {rep.dims}, ranks {rep.ranks} (D1 expected {expected_rank_d1}, "
                            f"D2 expected {c.n3}), gaps {rep.gap_ratios}, preimage {m_worst:.3e}"]))
        return {
            "pass": ok,
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
        }

    suites["cohomology"] = _timed(timings, "cohomology", cohomology_suite)

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
        ok = worst_sum <= residual and min_val >= -residual
        gate("partition_of_unity", ok,
             f"worst |sum-1| {worst_sum:.3e}, min value {min_val:.3e}")
        return {"pass": ok, "worst_sum_error": worst_sum, "min_value": min_val,
                "points": NUM_POINTS}

    suites["partition_of_unity"] = _timed(timings, "partition_of_unity", pou_suite)

    # ----- polar-curve C1 --------------------------------------------------------
    def smoothness_suite():
        spread, c1, bound, (joint, function) = polar_c1_residuals(cx.extraction, cx.polar_map)
        ok = spread <= bound and c1 <= bound
        gate("smoothness_probe", ok,
             f"ring-0 spread {spread:.3e}, C1 affine residual {c1:.3e}, bound {bound:.3e}; "
             f"worst: function {function} at joint {joint}")
        return {"pass": ok, "method": "algebraic", "ring0_spread": spread,
                "c1_affine_residual": c1, "bound": bound,
                "worst": {"joint": joint, "function": function}}

    suites["smoothness_probe"] = _timed(timings, "smoothness_probe", smoothness_suite)

    passed = all(s["pass"] for s in suites.values())
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        config=config_echo if config_echo is not None else cx.dims_record(),
        dims=cx.dims_record(),
        suites=suites,
        timings=timings,
        passed=passed,
        failures=failures,
    )
