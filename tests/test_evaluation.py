"""The batched local-support evaluation path against dense oracles.

The oracles are the dense tensor basis (`oracles.eval_component_basis`
times the full extraction matrix) and a full-grid einsum over the whole
control net, both evaluated one point at a time.
"""

import dataclasses
import gc
import json
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import polar_derham as pd
from oracles import (column_gather, column_pushforward, eval_basis, eval_basis_derivative,
                     eval_component_basis, eval_spline, eval_spline_derivative)
from polar_derham import bsplines, tensor
from polar_derham.cli import main
from polar_derham.extraction import basis_entries
from polar_derham.verification import inject_row_drop

SIZES = [(4, 4, 3), (5, 6, 4), (7, 7, 5)]
DEGREES = [(2, 2, 2), (3, 3, 3)]
RTOL = 1e-13


def dense_values(cx, level, point):
    cols = [E @ eval_component_basis(cx.tensor, pat, point)
            for pat, E in cx.extraction.level_matrices(level)]
    return cols[0] if level in (0, 3) else np.column_stack(cols)


def dense_jacobian(spline_map, point):
    spaces = spline_map.tensor.spaces
    grid = spline_map.control_points.reshape(*reversed(spline_map.tensor.dims), 3)
    b = [eval_basis(sp, x) for sp, x in zip(spaces, point)]
    db = [eval_basis_derivative(sp, x) for sp, x in zip(spaces, point)]
    xyz = np.einsum("r,s,t,tsrd->d", *b, grid)
    jac = np.column_stack([
        np.einsum("r,s,t,tsrd->d", db[0], b[1], b[2], grid),
        np.einsum("r,s,t,tsrd->d", b[0], db[1], b[2], grid),
        np.einsum("r,s,t,tsrd->d", b[0], b[1], db[2], grid),
    ])
    return xyz, jac


def assert_rel(got, expected, rtol=RTOL):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert np.abs(got - expected).max() <= rtol * scale


def probe_points(cx, rng):
    """Random points plus knots, interval ends and periodic wraps."""
    R, S, T = (sp.interval[1] for sp in cx.tensor.spaces)
    kr, ks, kt = (np.unique(sp.kv.knots) for sp in cx.tensor.spaces)
    special = [
        (kr[1], ks[1], kt[1]), (kr[-2], ks[-2], kt[-2]),
        (0.3 * R, 0.0, 0.4 * T), (0.3 * R, S, 0.4 * T),
        (R, 0.5 * S, 0.2 * T), (0.7 * R, 0.5 * S, T),
        (-0.3 * R, 0.6 * S, -0.2 * T), (1.7 * R, 0.2 * S, 2.5 * T),
        (-R, ks[1], 3 * T),
    ]
    grid = [(x, y, z) for x in kr[::2] for y in ks for z in kt[1::2]]
    random = rng.uniform(0.0, 1.0, size=(10, 3)) * (R, S, T)
    return np.vstack([special, grid, random])


@pytest.mark.parametrize("degrees", DEGREES)
@pytest.mark.parametrize("dims", SIZES)
def test_matches_dense_oracle(complex_cache, degrees, dims):
    cx = complex_cache(degrees=degrees, dims=dims)
    rng = np.random.default_rng(sum(dims) + degrees[0])
    points = probe_points(cx, rng)
    for level in range(4):
        batch = cx.reduced_basis_values(level, points)
        for point, got in zip(points, batch):
            assert_rel(got, dense_values(cx, level, point))
    for spline_map in (cx.polar_map, cx.geometry_map):
        xyz, jac, det = spline_map.jacobian(points)
        assert_rel(spline_map.eval(points), xyz)
        for k, point in enumerate(points):
            xyz_ref, jac_ref = dense_jacobian(spline_map, point)
            assert_rel(xyz[k], xyz_ref)
            assert_rel(jac[k], jac_ref)
            assert abs(det[k] - np.linalg.det(jac_ref)) <= RTOL * max(
                1.0, np.abs(jac_ref).max() ** 3)


@pytest.mark.parametrize("degrees", DEGREES)
def test_pushforward_matches_dense_oracle(complex_cache, degrees):
    cx = complex_cache(degrees=degrees, dims=(5, 6, 4))
    rng = np.random.default_rng(41)
    points = probe_points(cx, rng)
    points = points[points[:, 1] >= 0.01]
    for level, n in enumerate((cx.counts.n0, cx.counts.n1, cx.counts.n2, cx.counts.n3)):
        coeffs = rng.standard_normal(n)
        xyz, values = cx.pushforward(coeffs, points, level=level)
        for k, point in enumerate(points):
            xyz_ref, jac = dense_jacobian(cx.polar_map, point)
            param = coeffs @ dense_values(cx, level, point)
            if level == 0:
                expected = param
            elif level == 1:
                expected = np.linalg.solve(jac.T, param)
            else:
                expected = (jac @ param if level == 2 else param) / np.linalg.det(jac)
            assert_rel(xyz[k], xyz_ref)
            assert_rel(values[k], expected, 1e-12)


def test_batch_equals_stacked_single_points(complex_cache):
    cx = complex_cache(degrees=(3, 3, 3), dims=(7, 7, 5))
    rng = np.random.default_rng(42)
    points = probe_points(cx, rng)
    points = points[points[:, 1] >= 0.01]
    for level, n in enumerate((cx.counts.n0, cx.counts.n1, cx.counts.n2, cx.counts.n3)):
        coeffs = rng.standard_normal(n)
        xyz, values = cx.pushforward(coeffs, points, level=level)
        basis = cx.reduced_basis_values(level, points)
        for k, point in enumerate(points):
            xyz1, value1 = cx.pushforward(coeffs, point, level=level)
            assert_rel(xyz[k], xyz1, 1e-14)
            assert_rel(values[k], value1, 1e-14)
            assert_rel(basis[k], cx.reduced_basis_values(level, point), 1e-14)
    xyz, jac, det = cx.polar_map.jacobian(points)
    assert xyz.shape == (len(points), 3) and jac.shape == (len(points), 3, 3)
    assert det.shape == (len(points),)
    xyz1, jac1, det1 = cx.polar_map.jacobian(points[0])
    assert xyz1.shape == (3,) and jac1.shape == (3, 3) and isinstance(det1, float)


def test_return_shapes(cx443):
    c = cx443.counts
    points = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    for level, n, shape in ((0, c.n0, ()), (1, c.n1, (3,)), (2, c.n2, (3,)), (3, c.n3, ())):
        xyz, values = cx443.pushforward(np.ones(n), points, level=level)
        assert xyz.shape == (2, 3) and values.shape == (2, *shape)
        assert cx443.reduced_basis_values(level, points).shape == (2, n, *shape)
        assert cx443.reduced_basis_values(level, points[0]).shape == (n, *shape)
        xyz1, value1 = cx443.pushforward(np.ones(n), points[0], level=level)
        assert xyz1.shape == (3,) and np.shape(value1) == shape
    # a batch of one keeps its batch axis
    xyz, values = cx443.pushforward(np.ones(c.n0), points[:1], level=0)
    assert xyz.shape == (1, 3) and values.shape == (1,)
    with pytest.raises(ValueError, match="shape"):
        cx443.pushforward(np.ones(c.n0), np.zeros((2, 2)), level=0)


def test_singularity_floor_in_a_batch(cx443):
    points = np.array([[0.2, 0.5, 0.4], [0.3, 1e-10, 0.1], [0.9, 0.8, 0.7]])
    for level, n in ((1, cx443.counts.n1), (2, cx443.counts.n2), (3, cx443.counts.n3)):
        with pytest.raises(pd.SingularityProximityError, match="s_min"):
            cx443.pushforward(np.zeros(n), points, level=level)
        with pytest.raises(pd.SingularityProximityError):
            cx443.pushforward(np.zeros(n), (0.5, 0.0, 0.5), level=level)
    cx443.pushforward(np.zeros(cx443.counts.n0), points, level=0)


def test_large_batch_is_chunked_consistently(cx443):
    rng = np.random.default_rng(43)
    points = rng.uniform(0.01, 1.0, size=(5000, 3))
    coeffs = rng.standard_normal(cx443.counts.n2)
    xyz, values = cx443.pushforward(coeffs, points, level=2)
    assert xyz.shape == (5000, 3) and values.shape == (5000, 3)
    for k in (0, 2047, 2048, 4999):
        xyz1, value1 = cx443.pushforward(coeffs, points[k], level=2)
        assert_rel(xyz[k], xyz1, 1e-14)
        assert_rel(values[k], value1, 1e-14)


# ---------------------------- non-finite input ---------------------------------

@pytest.mark.parametrize("point,name", [
    ((np.nan, 0.5, 0.5), "r"),
    ((0.5, np.nan, 0.5), "s"),
    ((0.5, 0.5, np.inf), "t"),
    ((-np.inf, 0.5, 0.5), "r"),
])
def test_non_finite_points_rejected(cx443, point, name):
    c = cx443.counts
    for level, n in enumerate((c.n0, c.n1, c.n2, c.n3)):
        with pytest.raises(ValueError, match=f"^{name} = .* not finite"):
            cx443.pushforward(np.ones(n), point, level=level)
    with pytest.raises(ValueError, match=f"^{name} = "):
        cx443.reduced_basis_values(0, point)
    with pytest.raises(ValueError, match=f"^{name} = "):
        cx443.polar_map.jacobian(point)
    batch = np.array([(0.1, 0.2, 0.3), point])
    with pytest.raises(ValueError, match=f"^{name} = "):
        cx443.reduced_basis_values(1, batch)


def test_non_finite_parameter_rejected_by_space():
    space = pd.SplineSpace(pd.make_uniform_open_knots(2, 6, 0.0, 1.0), periodic=True)
    with pytest.raises(ValueError, match="not finite"):
        eval_spline(space, np.ones(space.dim), np.nan)
    with pytest.raises(ValueError, match="not finite"):
        eval_spline_derivative(space, np.ones(space.dim), np.inf)


@pytest.mark.parametrize("extra", [["--smin", "nan"], ["--smin", "inf"],
                                   ["--lengths", "1,nan,1"]])
def test_cli_non_finite_input_exits_2(capsys, extra):
    code = main(["sample", "--sizes", "4,4,3", "--level", "0", "--basis", "1",
                 "--grid", "2,2,2", *extra])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# --------------------------- the artifact is read ------------------------------

def test_evaluation_reads_the_given_extraction(cx443):
    point = (0.3, 0.05, 0.6)
    dropped = inject_row_drop(cx443, "E000", 1)
    before = cx443.reduced_basis_values(0, point)
    after = dropped.reduced_basis_values(0, point)
    assert before[0] > 0.0 and after[0] == 0.0
    np.testing.assert_array_equal(before[1:], after[1:])
    # a replaced set keeps no column table of the set it was copied from
    copy = dataclasses.replace(cx443.extraction)
    assert copy.column_table(0) is not cx443.extraction.column_table(0)


def test_evaluated_complexes_are_released():
    cx = pd.build_complex(pd.TorusComplexSpec((2, 2, 2), (4, 4, 3)))
    cx.pushforward(np.ones(cx.counts.n1), (0.2, 0.5, 0.3), level=1)
    cx.reduced_basis_values(2, (0.2, 0.5, 0.3))
    refs = [weakref.ref(cx), weakref.ref(cx.extraction), weakref.ref(cx.tensor)]
    del cx
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_drop_row_e000_fails_partition_of_unity(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--sizes", "4,4,3", "--drop-row", "E000:5", "--out", str(out)])
    assert code == 1
    suites = json.loads(out.read_text())["suites"]
    assert suites["partition_of_unity"]["pass"] is False
    assert suites["partition_of_unity"]["worst_sum_error"] > 1e-3


# --------------------- the block tables are the 3D columns ---------------------

@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (7, 7, 5)),
                                          ((2, 2, 2), (32, 32, 16))])
def test_block_tables_evaluate_as_the_lifted_columns_exactly(complex_cache, degrees, dims):
    cx = complex_cache(degrees=degrees, dims=dims)
    complexes = [cx]
    if dims == (4, 4, 3):
        # an override is gathered from its own columns
        complexes += [inject_row_drop(cx, "E000", 1), inject_row_drop(cx, "E100", 1)]
    rng = np.random.default_rng(47)
    points = rng.uniform(0.01, 1.0, (513, 3))
    for c in complexes:
        for level in range(4):
            coeffs = rng.standard_normal(c.counts.level_dim(level))
            for pts in (points, points[7]):
                for got, expected in zip(c.pushforward(coeffs, pts, level=level),
                                         column_pushforward(c, level, coeffs, pts)):
                    np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(c.reduced_basis_values(level, points[:9]),
                                          column_gather(c, level, points[:9]))
            field = pd.FieldCoefficients(level, "reduced", coeffs)
            np.testing.assert_array_equal(c.to_tensor(field).data,
                                          c.extraction.columns(level).T @ coeffs)


def _count_lifts(monkeypatch):
    """The joint block shapes of every circle lift from here on."""
    lifted, lift = [], tensor.kron_lift

    def counted(*args):
        lifted.append(args[1])
        return lift(*args)

    monkeypatch.setattr(tensor, "kron_lift", counted)
    return lifted


def _d_shapes(c):
    """The joint block shapes of D0, D1 and D2."""
    return [(c.nbar1 + c.nbar0, c.nbar0), (c.nbar2 + c.nbar1, c.nbar1 + c.nbar0),
            (c.nbar2, c.nbar2 + c.nbar1)]


def test_build_lifts_nothing_and_a_reduced_grad_lifts_d0_once(monkeypatch):
    lifted = _count_lifts(monkeypatch)
    cx = pd.build_complex(pd.TorusComplexSpec((2, 2, 2), (5, 6, 4)))
    assert lifted == []
    f = np.random.default_rng(50).standard_normal(cx.counts.n0)
    first = cx.grad(f)
    assert lifted == _d_shapes(cx.counts)[:1]
    # D0 is kept on the incidence set: the second grad lifts nothing
    np.testing.assert_array_equal(cx.grad(f).data, first.data)
    assert lifted == _d_shapes(cx.counts)[:1]


def test_verify_lifts_the_incidence_matrices_once_and_the_field_path_no_matrix(monkeypatch):
    lifted = _count_lifts(monkeypatch)
    cx = pd.build_complex(pd.TorusComplexSpec((2, 2, 2), (5, 6, 4)))
    c = cx.counts
    assert lifted == []

    def refuse(*args):
        raise AssertionError("a matrix was lifted")

    monkeypatch.setattr(tensor, "kron_lift", refuse)
    points = np.random.default_rng(49).uniform(0.01, 1.0, (600, 3))
    for level in range(4):
        coeffs = np.ones(c.level_dim(level))
        cx.pushforward(coeffs, points, level=level)
        cx.reduced_basis_values(level, points[:3])
        cx.to_tensor(pd.FieldCoefficients(level, "reduced", coeffs))
    with pytest.raises(AssertionError, match="lifted"):
        cx.extraction.E000
    monkeypatch.undo()
    lifted = _count_lifts(monkeypatch)
    assert pd.run_verification(cx).passed
    assert sorted(lifted) == sorted(_d_shapes(c))
    assert pd.run_verification(cx).passed
    assert sorted(lifted) == sorted(_d_shapes(c))


# ------------------------ the apply builds no matrix ----------------------------

def test_tensor_apply_builds_no_matrix(monkeypatch):
    tc = pd.build_tensor_sequence((2, 2, 2), (4, 4, 3))
    assert tc.spaces[0].difference_stencil is tc.spaces[0].difference_stencil

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built")

    for module, names in ((tensor, ("derivative_entries", "kron_lift", "csr_from_triplet")),
                          (bsplines, ("csr_from_triplet", "csr_arrays"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="matrix was built"):
        tc.derivative(0)
    rng = np.random.default_rng(44)
    for _ in range(3):
        g = tc.apply_grad(rng.standard_normal(tc.level_dim(0)))
        c = tc.apply_curl(g)
        assert tc.apply_div(c).shape == (tc.level_dim(3),)


# ------------------------ a single point is a batch of one ---------------------

@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (8, 8, 6)), ((3, 2, 3), (5, 6, 4))])
def test_single_points_equal_batch_rows_exactly(complex_cache, degrees, dims):
    cx = complex_cache(degrees=degrees, dims=dims)
    rng = np.random.default_rng(45)
    points = probe_points(cx, rng)
    points = np.vstack([points[points[:, 1] >= 0.01], rng.uniform(0.01, 1.0, (1100, 3))])
    # every listed point, with the rows on both sides of two chunk boundaries
    check = list(range(0, len(points), 13)) + [511, 512, 1023, 1024]
    for level, n in enumerate((cx.counts.n0, cx.counts.n1, cx.counts.n2, cx.counts.n3)):
        coeffs = rng.standard_normal(n)
        xyz, values = cx.pushforward(coeffs, points, level=level)
        basis = cx.reduced_basis_values(level, points[:40])
        for k in check:
            xyz1, value1 = cx.pushforward(coeffs, points[k], level=level)
            np.testing.assert_array_equal(xyz1, xyz[k])
            np.testing.assert_array_equal(value1, values[k])
        for k in range(40):
            np.testing.assert_array_equal(cx.reduced_basis_values(level, points[k]), basis[k])
    xyz, jac, det = cx.polar_map.jacobian(points)
    for k in check:
        xyz1, jac1, det1 = cx.polar_map.jacobian(points[k])
        np.testing.assert_array_equal(xyz1, xyz[k])
        np.testing.assert_array_equal(jac1, jac[k])
        assert det1 == det[k]


def test_empty_batch_gives_empty_results(cx443):
    for level, shape in ((0, ()), (1, (3,)), (2, (3,)), (3, ())):
        n = cx443.counts.level_dim(level)
        xyz, values = cx443.pushforward(np.ones(n), np.zeros((0, 3)), level=level)
        assert xyz.shape == (0, 3) and values.shape == (0, *shape)
        assert cx443.reduced_basis_values(level, np.zeros((0, 3))).shape == (0, n, *shape)


# ----------------------------- the level is checked ----------------------------

@pytest.mark.parametrize("level", [4, -1, 1.0, True, np.bool_(True), "1", None])
def test_every_evaluation_entry_point_checks_the_level(cx443, level):
    # 4 used to raise IndexError, -1 read level 3's count, True passed as 1
    point, n = (0.3, 0.4, 0.5), cx443.counts.n1
    calls = [
        lambda: cx443.pushforward(np.ones(n), point, level=level),
        lambda: cx443.pushforward(pd.FieldCoefficients(1, "reduced", np.ones(n)), point,
                                  level=level),
        lambda: cx443.reduced_basis_values(level, point),
        lambda: pd.reduced_basis_values(cx443.extraction, cx443.tensor, level, point),
        lambda: basis_entries(cx443.extraction, cx443.tensor, level, point),
        lambda: pd.FieldCoefficients(level, "reduced", np.ones(n)),
    ]
    if level is None:
        # a FieldCoefficients carries its own level
        del calls[1]
    for call in calls:
        with pytest.raises(ValueError, match=r"^level must be 0\.\.3, got "):
            call()


def test_integer_levels_of_any_integer_type_are_accepted(cx443):
    point, n = (0.3, 0.4, 0.5), cx443.counts.n2
    for level in (2, np.int64(2), np.int32(2)):
        xyz, value = cx443.pushforward(np.ones(n), point, level=level)
        assert value.shape == (3,)
        assert pd.FieldCoefficients(level, "reduced", np.ones(n)).level == 2


# ------------------------- one pass per pushforward call -----------------------

# The library functions one single-point pushforward may enter.  It is half
# the 22-23 that entered when every layer checked and looked up its own inputs.
FRAME_BUDGET = 11


def _library_frames(fn):
    """The library functions `fn` enters, by name, through `sys.setprofile`."""
    package, entered = os.path.dirname(pd.__file__), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


def test_single_point_pushforward_enters_each_step_once(complex_cache):
    cx = complex_cache(dims=(8, 8, 6))
    for level in range(4):
        coeffs = np.ones(cx.counts.level_dim(level))
        # the first call builds the level's column table and product plan
        cx.pushforward(coeffs, (0.3, 0.4, 0.5), level=level)
        entered = _library_frames(lambda: cx.pushforward(coeffs, (0.35, 0.45, 0.55), level=level))
        assert len(entered) <= FRAME_BUDGET, entered
        for step in ("check_level", "local_factors", "local_level_basis", "gather", "_contract"):
            assert entered.count(step) == 1, (step, entered)


def test_single_point_pushforward_memory_is_its_support(complex_cache):
    # 120-370 KB of coefficients per level; a point touches O(p^3) of them
    cx = complex_cache(dims=(32, 32, 16))
    rng = np.random.default_rng(48)
    for level in range(4):
        coeffs = rng.standard_normal(cx.counts.level_dim(level))
        cx.pushforward(coeffs, (0.3, 0.4, 0.5), level=level)
        tracemalloc.start()
        try:
            cx.pushforward(coeffs, (0.31, 0.42, 0.53), level=level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000, (level, peak)
