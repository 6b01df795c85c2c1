"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import dataclasses
import inspect
import time

import numpy as np
import pytest
from scipy import sparse

import polar_derham as pd
import oracles
from oracles import (EPS_LIST, eval_spline, eval_spline_derivative, is_dta_compatible,
                     smoothness_probe)
from polar_derham import bsplines, geometry, verification
from polar_derham.cli import build_parser, main
from polar_derham.extraction import lift_table
from polar_derham.incidence import max_abs
from polar_derham.torus import PolarComplex

SIZE_GRID = [(4, 4, 3), (5, 5, 4), (6, 4, 5), (5, 8, 3)]
DEGREE_GRID = [(2, 2, 2), (3, 2, 3)]


def record(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def grid_complexes(complex_cache):
    return {
        (degrees, dims): complex_cache(degrees=degrees, dims=dims)
        for degrees in DEGREE_GRID
        for dims in SIZE_GRID
    }


def test_criterion_1_cohomology_preservation():
    # fresh builds so the 30 s budget covers construction + rank decisions
    start = time.perf_counter()
    worst_gap = float("inf")
    for degrees in DEGREE_GRID:
        for dims in SIZE_GRID:
            cx = pd.build_complex(pd.TorusComplexSpec(degrees=degrees, dims=dims))
            rep = cx.cohomology()
            c = cx.counts
            assert rep.dims == (1, 1, 0, 0), (degrees, dims, rep.dims)
            assert rep.ranks[1] == c.nt * (c.nbar2 + c.nbar0 - 1)
            assert rep.ranks[2] == c.n3
            worst_gap = min(worst_gap, min(rep.gap_ratios))
    elapsed = time.perf_counter() - start
    record(
        1,
        worst_gap >= 1e6 and elapsed < 30.0,
        f"dims (1,1,0,0) and rank formulas on {len(DEGREE_GRID) * len(SIZE_GRID)} "
        f"configs; min SVD gap {worst_gap:.2e}; runtime {elapsed:.2f}s",
    )


def test_criterion_1_cohomology_at_scale(complex_cache):
    # (16, 16, 8): n1 = 5416, beyond what the dense SVD decides in seconds
    start = time.perf_counter()
    cx = complex_cache(dims=(16, 16, 8))
    rep = cx.cohomology()
    c = cx.counts
    elapsed = time.perf_counter() - start
    ok = (rep.dims == (1, 1, 0, 0)
          and rep.ranks == (c.n0 - 1, c.nt * (c.nbar2 + c.nbar0 - 1), c.n3)
          and min(rep.gap_ratios) >= 1e6 and rep.method == "kunneth"
          and rep.rank_method == "certificate" and rep.harmonic_one_form is not None)
    record(1, ok, f"(16,16,8): dims {rep.dims}, ranks {rep.ranks} by {rep.rank_method}, "
                  f"min gap {min(rep.gap_ratios):.2e}, {rep.method}; runtime {elapsed:.2f}s")


def test_criterion_2_complex_property(grid_complexes):
    worst = 0.0
    for cx in grid_complexes.values():
        worst = max(worst, max_abs(cx.incidence.D1 @ cx.incidence.D0))
        worst = max(worst, max_abs(cx.incidence.D2 @ cx.incidence.D1))
    record(2, worst <= 1e-12, f"max |D1 D0| and |D2 D1| entry = {worst:.2e}")


def test_criterion_3_commutation(grid_complexes, tmp_path):
    worst = 0.0
    for cx in grid_complexes.values():
        worst = max(worst, max(cx.commutation_residuals().values()))
    perturbed = pd.build_complex(
        pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(4, 4, 3)),
        ebar_perturbation=1e-3,
    )
    control = max(perturbed.commutation_residuals().values())
    cli_code = main([
        "verify", "--sizes", "4,4,3", "--perturb-ebar", "1e-3",
        "--out", str(tmp_path / "neg.json"),
    ])
    record(
        3,
        worst <= 1e-12 and control > 1e-4 and cli_code == 1,
        f"worst of 7 residuals {worst:.2e}; perturbed control {control:.2e}; "
        f"--perturb-ebar exit code {cli_code}",
    )


def test_criterion_4_count_formulas():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(20):
        nr = int(rng.integers(3, 10))
        ns = int(rng.integers(4, 12))
        nt = int(rng.integers(3, 9))
        c = pd.polar_counts(nr, ns, nt)
        nbar0 = nr * (ns - 2) + 3
        ok = ok and c.n0 == nt * nbar0
        ok = ok and c.n1 == nt * (3 * nr * (ns - 2) + 5)
        ok = ok and c.n2 == nt * (2 * (nbar0 - 2) + nbar0 - 3)
        ok = ok and c.n3 == nt * (nbar0 - 3)
        ok = ok and c.alternating_sum == 0
    record(4, ok, "count formulas and alternating sum on 20 random size triples")


def test_criterion_5_dta_and_independence(grid_complexes):
    ok = True
    detail = []
    cx = grid_complexes[((2, 2, 2), (4, 4, 3))]
    for name, matrix in (("E000", cx.extraction.E000),
                         ("H0_r", cx.tensor.spaces[0].h0),
                         ("H0_t", cx.tensor.spaces[2].h0)):
        diag = is_dta_compatible(matrix)
        ok = ok and diag.ok
        detail.append(f"{name}: {'ok' if diag.ok else diag.violation}")
    for name in ("E100", "E010", "E001", "E011", "E101", "E110"):
        dense = getattr(cx.extraction, name).toarray()
        nz = dense[np.abs(dense).sum(axis=1) > 1e-12]
        independent = np.linalg.matrix_rank(nz) == nz.shape[0]
        ok = ok and independent
        detail.append(f"{name}: rank {np.linalg.matrix_rank(nz)}/{nz.shape[0]}")
    record(5, ok, "; ".join(detail))


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (5, 6, 4))])
def test_criterion_5_per_joint_dta_matches_dense(degrees, dims, complex_cache):
    # the verify suite certifies the rank of one per-joint block; the dense
    # oracle decides on the full matrices and must report the same figures,
    # also when a perturbed center block breaks the column sums
    ok = True
    for perturbation in (0.0, 1e-3):
        spec = pd.TorusComplexSpec(degrees=degrees, dims=dims)
        cx = (pd.build_complex(spec, ebar_perturbation=perturbation) if perturbation
              else complex_cache(degrees=degrees, dims=dims))
        suite = pd.run_verification(cx).suites["dta"]
        dense = cx.extraction.E000.toarray()
        rank = int(np.linalg.matrix_rank(dense))
        min_entry = float(dense.min())
        col_err = float(np.abs(dense.sum(axis=0) - 1.0).max())
        violation = None
        if rank < min(dense.shape):
            violation = f"rank deficient: rank {rank} < {min(dense.shape)}"
        elif col_err > 1e-12:
            violation = f"column sums deviate from 1 by {col_err:.3e}"
        elif min_entry < -1e-12:
            violation = f"negative entry {min_entry:.3e}"
        ok = ok and suite["pass"] == (perturbation == 0.0) and suite["method"] == "per-joint"
        ok = ok and suite["dta"]["E000"] == {
            "ok": violation is None, "rank": rank,
            "min_entry": min_entry,
            "max_column_sum_error": col_err,
            "max_row_support": int((np.abs(dense) > 1e-12).sum(axis=1).max()),
            "violation": violation,
        }
        for name, got in suite["nonzero_row_independence"].items():
            dense = getattr(cx.extraction, name).toarray()
            nz = dense[np.abs(dense).sum(axis=1) > 1e-12]
            ok = ok and got == {"rank": int(np.linalg.matrix_rank(nz)),
                                "nonzero_rows": nz.shape[0]}
    record(5, ok, f"{dims} degree {degrees[0]}: per-joint DTA figures equal the dense ones, "
                  f"with and without a perturbed center")


def test_criterion_5_unpartitioned_block_fails_dta(complex_cache):
    # two unit rows of the per-joint E000 block share a column: E001 no
    # longer carries E000's block, and the suite fails naming both
    cx = complex_cache()
    block = lift_table(cx.counts).read({"E000": cx.extraction.E000})["e0"].tolil()
    block[4] = block[3]
    extraction = dataclasses.replace(
        cx.extraction,
        overrides={"E000": sparse.kron(sparse.identity(cx.counts.nt), block, format="csr")})
    bad = PolarComplex(cx.spec, cx.tensor, extraction, cx.incidence, cx.polar_map,
                       cx.geometry_map)
    report = pd.run_verification(bad)
    suite = report.suites["dta"]
    ok = (not report.passed and not suite["pass"]
          and suite["structure_violation"].startswith("E001 is not the circle lift")
          and "differs from E000's e0" in suite["structure_violation"])
    record(5, ok, f"shared unit column: {suite.get('structure_violation')}")


def test_criterion_5_unpartitioned_block_lifted_everywhere_fails_dta(complex_cache):
    # the same block lifted into both matrices that carry e0: the lift
    # holds, the rank certificate does not apply, and the suite fails
    # naming the block's first matrix
    cx = complex_cache()
    c = cx.counts
    block = lift_table(c).read({"E000": cx.extraction.E000})["e0"].tolil()
    block[4] = block[3]
    below = sparse.vstack([sparse.csr_array((c.nbar1, block.shape[1])), block])
    extraction = dataclasses.replace(cx.extraction, overrides={
        "E000": sparse.kron(sparse.identity(c.nt), block, format="csr"),
        "E001": sparse.kron(sparse.identity(c.nt), below, format="csr")})
    bad = PolarComplex(cx.spec, cx.tensor, extraction, cx.incidence, cx.polar_map,
                       cx.geometry_map)
    suite = pd.run_verification(bad).suites["dta"]
    assert not suite["pass"]
    assert suite["structure_violation"].startswith("E000 does not partition")


def test_criterion_6_polar_curve_regularity(grid_complexes):
    cx = grid_complexes[((2, 2, 2), (4, 4, 3))]
    report = smoothness_probe(cx, t=0.33, eps_list=EPS_LIST)
    single_valued = float(report.value_discrepancy.max())
    deltas = [d for _, d in report.c1_table]
    floor = 1e-10
    monotone = bool(
        np.all((deltas[1] <= deltas[0]) | (deltas[1] <= floor))
        and np.all((deltas[2] <= deltas[1]) | (deltas[2] <= floor))
    )
    raw = smoothness_probe(cx, t=0.33, eps_list=(1e-2,), space="tensor")
    negative = float(raw.value_discrepancy.max())
    record(
        6,
        single_valued <= 1e-12 and monotone and negative > 1e-3,
        f"single-valuedness {single_valued:.2e} over 8 r-samples; C1 probe "
        f"monotone {monotone}; raw tensor control {negative:.2e}",
    )


def test_criterion_7_divergence_surjectivity(grid_complexes):
    cx = grid_complexes[((2, 2, 2), (4, 4, 3))]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        m = rng.standard_normal(cx.counts.n3)
        h = pd.divergence_preimage(cx.counts, m)
        resid = float(np.abs(cx.incidence.D2 @ h - m).max())
        worst = max(worst, resid / np.abs(m).max())
    record(7, worst <= 1e-12, f"worst preimage residual / |m|_inf = {worst:.2e}")


def test_criterion_8_derivative_formula():
    # Central differences are O(h) across knots where the spline is only
    # C^1, so sample points stay 10h clear of the interior knots; the
    # relative-error denominator is floored at the O(1) coefficient scale.
    rng = np.random.default_rng(8)
    h = 1e-5
    worst = 0.0
    for degree in (2, 3):
        for periodic in (False, True):
            space = pd.SplineSpace(
                pd.make_uniform_open_knots(degree, 6, 0.0, 1.0),
                periodic=periodic,
            )
            knots = np.unique(space.kv.knots)
            coeffs = rng.uniform(size=space.dim)
            count = 0
            while count < 100:
                t = rng.uniform(3 * h, 1.0 - 3 * h)
                if np.abs(knots - t).min() < 10 * h:
                    continue
                count += 1
                fd = (eval_spline(space, coeffs, t + h)
                      - eval_spline(space, coeffs, t - h)) / (2 * h)
                an = eval_spline_derivative(space, coeffs, t)
                worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    record(8, worst <= 1e-6,
           f"worst relative FD mismatch over 4 spaces x 100 points = {worst:.2e}")


def test_criterion_9_partition_of_unity(grid_complexes):
    cx = grid_complexes[((2, 2, 2), (4, 4, 3))]
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(200):
        point = tuple(rng.uniform(0.0, 1.0, size=3))
        vals = cx.reduced_basis_values(0, point)
        worst = max(worst, abs(float(vals.sum()) - 1.0))
    record(9, worst <= 1e-12,
           f"max |sum of reduced basis - 1| over 200 points = {worst:.2e}")


def test_verification_settings_are_pinned(grid_complexes):
    # the verifier runs one fixed set of thresholds and samples; only the
    # residual tolerance is a parameter (the CLI's --tol); the sampled
    # probe's settings are the oracle's
    v = verification
    assert (v.RESIDUAL_TOL, v.PREIMAGE_TOL, v.GAP_RATIO_MIN,
            bsplines.DTA_TOL) == (1e-12, 1e-12, 1e6, 1e-12)
    assert (oracles.PROBE_FLOOR, oracles.NEGATIVE_CONTROL_MIN) == (1e-10, 1e-4)
    params = inspect.signature(pd.run_verification).parameters
    assert list(params) == ["cx", "residual", "config_echo"]
    assert params["residual"].default == 1e-12
    assert build_parser().parse_args(["verify"]).tol == 1e-12
    assert (v.SEED, v.NUM_POINTS) == (20240, 200)
    assert (oracles.EPS_LIST, oracles.PROBE_T) == ((1e-2, 1e-3, 1e-4), 0.33)
    assert geometry.S_MIN_FACTOR == 1e-8
    cx = grid_complexes[((2, 2, 2), (4, 4, 3))]
    with pytest.raises(pd.SingularityProximityError):
        cx.pushforward(np.ones(cx.counts.n3), (0.5, 0.99e-8, 0.5), level=3)
    cx.pushforward(np.ones(cx.counts.n3), (0.5, 1e-8, 0.5), level=3)
    assert oracles.PROBE_R_SAMPLES == 8
    assert len(smoothness_probe(cx, oracles.PROBE_T, oracles.EPS_LIST).r_samples) == 8
