"""Planted faults of the polar-curve C1 condition and the suite that must
catch them.

Each fault maps a built complex to a mutated one: a ring-1 control point
of the polar map F moved radially by 2 % (in joint 0 and in the last
joint), a center block whose ring-1 columns mix in a nonnegative,
non-affine partition of unity (lambda = 0.1), and the `--perturb-ebar 1e-3`
negative control.  The first three leave every matrix identity intact,
so only the smoothness suite can see them.  A fault is killed when
`run_verification` fails it; the sampled probe of `tests/oracles.py` is
the reference the algebraic check must match or beat.
"""

import numpy as np
import pytest

import polar_derham as pd
from oracles import probe_passes
from polar_derham.extraction import EbarBlock, assemble_3d
from polar_derham.geometry import PolarMap, build_geometry_g
from polar_derham.incidence import build_incidence
from polar_derham.torus import PolarComplex

SIZES = [((2, 2, 2), (4, 4, 3)), ((2, 2, 2), (8, 8, 6)), ((2, 2, 2), (16, 16, 8)),
         ((3, 3, 3), (7, 7, 5))]


def move_ring1_point(cx, joint, i=1, factor=1.02):
    """F with ring-1 point i of `joint` moved radially from the pole."""
    grid = cx.polar_map._grid.copy()
    pole = grid[joint, 0, i]
    grid[joint, 1, i] = pole + factor * (grid[joint, 1, i] - pole)
    polar_map = PolarMap(cx.tensor, grid.reshape(-1, 3), cx.polar_map.data)
    return PolarComplex(cx.spec, cx.tensor, cx.extraction, cx.incidence, polar_map,
                        cx.geometry_map)


def non_affine_center(cx, lam=0.1):
    """The complex rebuilt from a center block whose ring-1 columns are
    (1 - lam) of the barycentric ones plus lam of a nonnegative partition
    of unity of poloidal mode 2, ``(1 + cos(2 theta - 4 pi a / 3)) / 3`` for
    center function a; the barycentric columns hold modes 0 and 1 only."""
    ebar = cx.extraction.ebar
    nr = ebar.nr
    mix = (1.0 + np.cos(2.0 * ebar.thetas - 4.0 * np.pi * np.arange(3)[:, None] / 3.0)) / 3.0
    matrix = ebar.matrix.copy()
    matrix[:, nr:] = (1.0 - lam) * matrix[:, nr:] + lam * mix
    c = cx.counts
    extraction = assemble_3d(nr, c.ns, c.nt, EbarBlock(nr, matrix, ebar.thetas))
    return PolarComplex(cx.spec, cx.tensor, extraction, build_incidence(extraction),
                        cx.polar_map, build_geometry_g(cx.tensor, extraction, cx.polar_map))


# name: (fault, joint the C1 check must name or None, whether no other suite fails)
FAULTS = {
    "F ring-1 move in joint 0": (lambda cx: move_ring1_point(cx, 0), 0, True),
    "F ring-1 move in the last joint": (
        lambda cx: move_ring1_point(cx, cx.counts.nt - 1), -1, True),
    "non-affine center block": (non_affine_center, None, True),
    "perturb-ebar 1e-3": (lambda cx: pd.build_complex(cx.spec, ebar_perturbation=1e-3),
                          None, False),
}


def failed_suites(cx):
    return {name for name, suite in pd.run_verification(cx).suites.items()
            if not suite["pass"]}


@pytest.mark.parametrize("rho_bar", [3.0, 1e12])
@pytest.mark.parametrize("degrees,dims", SIZES)
def test_unmutated_complex_passes(degrees, dims, rho_bar, complex_cache):
    cx = complex_cache(degrees=degrees, dims=dims, rho_bar=rho_bar)
    report = pd.run_verification(cx)
    assert report.passed, report.failures
    suite = report.suites["smoothness_probe"]
    assert suite["method"] == "algebraic"
    assert max(suite["ring0_spread"], suite["c1_affine_residual"]) <= suite["bound"]


@pytest.mark.parametrize("degrees,dims", SIZES)
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_the_smoothness_suite(fault, degrees, dims, complex_cache):
    mutate, joint, alone = FAULTS[fault]
    cx = complex_cache(degrees=degrees, dims=dims)
    report = pd.run_verification(mutate(cx))
    suite = report.suites["smoothness_probe"]
    assert not suite["pass"] and suite["c1_affine_residual"] > 1e3 * suite["bound"]
    assert any(line.startswith("smoothness_probe: ") for line in report.failures)
    if alone:
        assert {name for name, s in report.suites.items() if not s["pass"]} == {
            "smoothness_probe"}
    if joint is not None:
        assert suite["worst"]["joint"] == joint % cx.counts.nt


@pytest.mark.parametrize("fault", FAULTS)
def test_algebraic_check_kills_what_the_probe_kills(fault, cx443):
    # at (4,4,3), where the sampled probe does see faults
    assert probe_passes(cx443) and "smoothness_probe" not in failed_suites(cx443)
    bad = FAULTS[fault][0](cx443)
    if not probe_passes(bad):
        assert "smoothness_probe" in failed_suites(bad)
