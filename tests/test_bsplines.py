from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

import polar_derham as pd
from oracles import (eval_basis, eval_basis_derivative, eval_deriv_space_basis, eval_local,
                     eval_spline, eval_spline_derivative, is_dta_compatible)
from polar_derham import bsplines


# ----------------------------- knot vectors ----------------------------------

def test_uniform_open_knots_quadratic():
    kv = pd.make_uniform_open_knots(2, 5, 0.0, 4.0)
    npt.assert_array_equal(kv.knots, [0, 0, 0, 1, 2, 3, 4, 4, 4])
    assert kv.n == 6


def test_uniform_open_knots_degree_zero():
    kv = pd.make_uniform_open_knots(0, 2, 0.0, 1.0)
    npt.assert_array_equal(kv.knots, [0.0, 1.0])
    assert kv.n == 1


def test_uniform_open_knots_cubic_multiplicities():
    kv = pd.make_uniform_open_knots(3, 4, 0.0, 3.0)
    npt.assert_array_equal(kv.knots, [0, 0, 0, 0, 1, 2, 3, 3, 3, 3])
    values, counts = kv.breakpoints()
    npt.assert_array_equal(values, [0, 1, 2, 3])
    npt.assert_array_equal(counts, [4, 1, 1, 4])


@pytest.mark.parametrize("args", [(-1, 5, 0, 1), (2, 1, 0, 1), (2, 5, 1, 1), (2, 5, 2, 1)])
def test_uniform_open_knots_invalid(args):
    with pytest.raises(ValueError):
        pd.make_uniform_open_knots(*args)


def test_knot_vector_validation():
    with pytest.raises(ValueError, match="open"):
        pd.KnotVector(2, [0, 0, 1, 2, 3, 4, 4, 4])
    with pytest.raises(ValueError, match="non-decreasing"):
        pd.KnotVector(2, [0, 0, 0, 2, 1, 4, 4, 4])
    with pytest.raises(ValueError, match="empty"):
        pd.KnotVector(1, [0, 0, 0, 0])


# --------------------------- basis evaluation --------------------------------

@pytest.fixture
def quad_space():
    return pd.SplineSpace(pd.make_uniform_open_knots(2, 5, 0.0, 4.0))


class TestEvalBasis:
    def test_left_endpoint_interpolation(self, quad_space):
        npt.assert_allclose(eval_basis(quad_space, 0.0), [1, 0, 0, 0, 0, 0])

    def test_right_endpoint_interpolation(self, quad_space):
        npt.assert_allclose(eval_basis(quad_space, 4.0), [0, 0, 0, 0, 0, 1])

    def test_hand_values_at_interior_knot(self, quad_space):
        # Cox-de Boor by hand: at t=2 only the two splines with knots
        # (0,1,2,3) and (1,2,3,4) are nonzero, both equal to 1/2.
        npt.assert_allclose(eval_basis(quad_space, 2.0), [0, 0, 0.5, 0.5, 0, 0],
                            atol=1e-15)

    def test_domain_error(self, quad_space):
        with pytest.raises(ValueError, match="outside"):
            eval_basis(quad_space, 4.0 + 1e-9)
        with pytest.raises(ValueError, match="outside"):
            eval_basis(quad_space, -0.1)

    @pytest.mark.parametrize("degree,periodic", [(2, False), (2, True),
                                                 (3, False), (3, True)])
    def test_partition_of_unity(self, degree, periodic):
        kv = pd.make_uniform_open_knots(degree, 7, 0.0, 2.0)
        space = pd.SplineSpace(kv, periodic=periodic)
        rng = np.random.default_rng(42)
        for t in rng.uniform(0.0, 2.0, size=40):
            vals = eval_basis(space, t)
            assert abs(vals.sum() - 1.0) <= 1e-12
            assert vals.min() >= -1e-14

    def test_support_width(self, quad_space):
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, 4.0, size=25):
            assert np.count_nonzero(eval_basis(quad_space, t)) <= 3

    def test_periodic_endpoint_identification(self):
        kv = pd.make_uniform_open_knots(2, 5, 0.0, 4.0)
        per = pd.SplineSpace(kv, periodic=True)
        assert per.dim == 4
        npt.assert_allclose(eval_basis(per, 0.0), eval_basis(per, 4.0))

    def test_nonuniform_knots_accepted(self):
        space = pd.SplineSpace(pd.KnotVector(2, [0, 0, 0, 0.5, 0.7, 3, 3, 3]))
        vals = eval_basis(space, 0.6)
        assert abs(vals.sum() - 1.0) <= 1e-12


# ------------------------- periodic extraction -------------------------------

class TestPeriodicH0:
    def test_uniform_quadratic_exact(self):
        kv = pd.make_uniform_open_knots(2, 5, 0.0, 4.0)
        h0 = pd.periodic_h0(kv).toarray()
        expected = np.zeros((4, 6))
        expected[:, 0] = expected[:, 5] = [0.5, 0, 0, 0.5]
        expected[:4, 1:5] = np.eye(4)
        npt.assert_allclose(h0, expected)

    def test_nonuniform_weights(self):
        h0 = pd.periodic_h0(pd.KnotVector(2, [0, 0, 0, 1, 4, 4, 4])).toarray()
        npt.assert_allclose(h0[:, 0], [0.75, 0.25])
        npt.assert_allclose(h0[:, -1], [0.75, 0.25])

    def test_column_sums_random_knots(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            interior = np.sort(rng.uniform(0.1, 0.9, size=rng.integers(2, 7)))
            knots = np.concatenate([[0, 0, 0], interior, [1, 1, 1]])
            h0 = pd.periodic_h0(pd.KnotVector(2, knots))
            npt.assert_allclose(np.asarray(h0.sum(axis=0)), 1.0, atol=1e-15)
            assert np.linalg.matrix_rank(h0.toarray()) == h0.shape[0]

    def test_size_floor(self):
        with pytest.raises(ValueError, match="n >= 4"):
            pd.periodic_h0(pd.KnotVector(2, [0, 0, 0, 1, 1, 1]))

    def test_smoothness_requirement(self):
        # double interior knot: C0 space, no C1-periodic subspace
        with pytest.raises(ValueError, match="C1"):
            pd.periodic_h0(pd.KnotVector(2, [0, 0, 0, 1, 1, 2, 2, 2]))

    @pytest.mark.parametrize("build", [pd.periodic_h1,
                                       partial(pd.SplineSpace, periodic=True)])
    def test_h1_and_periodic_space_share_the_checks(self, build):
        with pytest.raises(ValueError, match="n >= 4"):
            build(pd.KnotVector(2, [0, 0, 0, 1, 1, 1]))
        with pytest.raises(ValueError, match="C1"):
            build(pd.KnotVector(2, [0, 0, 0, 1, 1, 2, 2, 2]))


class TestPeriodicH1:
    def test_layout_n6(self):
        kv = pd.make_uniform_open_knots(2, 5, 0.0, 4.0)
        h1 = pd.periodic_h1(kv).toarray()
        expected = np.zeros((4, 5))
        expected[:3, 1:4] = np.eye(3)
        expected[3, 0] = expected[3, 4] = 0.5
        npt.assert_allclose(h1, expected)

    def test_layout_smallest(self):
        kv = pd.make_uniform_open_knots(2, 3, 0.0, 2.0)  # n = 4
        h1 = pd.periodic_h1(kv).toarray()
        npt.assert_allclose(h1, [[0, 1, 0], [0.5, 0, 0.5]])

    def test_full_row_rank(self):
        kv = pd.make_uniform_open_knots(3, 6, 0.0, 1.0)
        h1 = pd.periodic_h1(kv).toarray()
        assert np.linalg.matrix_rank(h1) == h1.shape[0]

    def test_extracted_derivative_basis_is_periodic(self):
        # every function of H1 @ B1 ties in with C0 continuity at the ends
        kv = pd.make_uniform_open_knots(2, 6, 0.0, 1.0)
        space = pd.SplineSpace(kv, periodic=True)
        left = eval_deriv_space_basis(space, 0.0)
        right = eval_deriv_space_basis(space, 1.0 - 1e-13)
        npt.assert_allclose(left, right, atol=1e-9)

    def test_h0_derivatives_land_in_h1_span(self):
        # finite-difference oracle on random periodic splines
        rng = np.random.default_rng(3)
        space = pd.SplineSpace(pd.make_uniform_open_knots(2, 7, 0.0, 1.0),
                               periodic=True)
        coeffs = rng.standard_normal(space.dim)
        h = 1e-5
        for t in rng.uniform(3 * h, 1 - 3 * h, size=20):
            fd = (eval_spline(space, coeffs, t + h)
                  - eval_spline(space, coeffs, t - h)) / (2 * h)
            assert abs(eval_spline_derivative(space, coeffs, t) - fd) <= 1e-6


def test_periodic_c1_closure():
    rng = np.random.default_rng(7)
    for degree in (2, 3):
        kv = pd.make_uniform_open_knots(degree, 8, 0.0, 3.0)
        space = pd.SplineSpace(kv, periodic=True)
        coeffs = rng.standard_normal(space.dim)
        a, b = 0.0, 3.0 - 1e-12
        assert abs(eval_spline(space, coeffs, a) - eval_spline(space, coeffs, b)) <= 1e-10
        assert abs(eval_spline_derivative(space, coeffs, a)
                   - eval_spline_derivative(space, coeffs, b)) <= 1e-10


# --------------------------- difference stencils -----------------------------

def test_difference_matrix_open():
    npt.assert_array_equal(
        pd.difference_matrix(3, periodic=False).toarray(),
        [[-1, 1, 0], [0, -1, 1]],
    )


def test_difference_matrix_periodic():
    npt.assert_array_equal(
        pd.difference_matrix(3, periodic=True).toarray(),
        [[-1, 1, 0], [0, -1, 1], [1, 0, -1]],
    )


def _looped_difference_matrix(n, periodic):
    """The stencil built row by row, the reference of the vectorised one."""
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        rows += [i, i]
        cols += [i, i + 1]
        vals += [-1, 1]
    if periodic:
        rows += [n - 1, n - 1]
        cols += [0, n - 1]
        vals += [1, -1]
    shape = (n, n) if periodic else (n - 1, n)
    return sparse.coo_array((np.array(vals, dtype=np.float64), (rows, cols)), shape=shape).tocsr()


@pytest.mark.parametrize("periodic", [False, True])
def test_difference_matrix_equals_the_looped_stencil(periodic):
    for n in range(2, 40):
        got, expected = pd.difference_matrix(n, periodic), _looped_difference_matrix(n, periodic)
        assert got.shape == expected.shape
        assert got.data.dtype == expected.data.dtype
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert np.array_equal(a, b), (n, name)
        # the reference's index dtype follows the scipy version, the library's one rule
        assert got.indptr.dtype == got.indices.dtype == np.int32


def test_difference_matrix_row_sums_and_floor():
    for n in (2, 5, 9):
        for periodic in (False, True):
            mat = pd.difference_matrix(n, periodic)
            npt.assert_array_equal(np.asarray(mat.sum(axis=1)), 0)
    with pytest.raises(ValueError):
        pd.difference_matrix(1, periodic=False)


# ----------------------------- derivatives -----------------------------------

class TestEvalDerivative:
    def test_constant_spline(self):
        for periodic in (False, True):
            space = pd.SplineSpace(pd.make_uniform_open_knots(2, 5, 0, 4),
                                   periodic=periodic)
            for t in (0.0, 1.234, 3.999):
                assert eval_spline_derivative(space, np.ones(space.dim), t) == 0.0

    @pytest.mark.parametrize("degree,periodic", [(2, False), (2, True),
                                                 (3, False), (3, True)])
    def test_finite_difference_oracle(self, degree, periodic):
        rng = np.random.default_rng(degree + periodic)
        space = pd.SplineSpace(pd.make_uniform_open_knots(degree, 6, 0.0, 1.0),
                               periodic=periodic)
        coeffs = rng.uniform(size=space.dim)
        h = 1e-5
        for t in rng.uniform(3 * h, 1 - 3 * h, size=30):
            fd = (eval_spline(space, coeffs, t + h)
                  - eval_spline(space, coeffs, t - h)) / (2 * h)
            an = eval_spline_derivative(space, coeffs, t)
            assert abs(an - fd) / max(1.0, abs(an)) <= 1e-6

    def test_periodic_derivative_ties_at_endpoints(self):
        rng = np.random.default_rng(9)
        space = pd.SplineSpace(pd.make_uniform_open_knots(2, 7, 0.0, 2.0),
                               periodic=True)
        coeffs = rng.standard_normal(space.dim)
        d0 = eval_spline_derivative(space, coeffs, 0.0)
        d1 = eval_spline_derivative(space, coeffs, 2.0 - 1e-12)
        assert abs(d0 - d1) <= 1e-9

    def test_dimension_mismatch(self, quad_space):
        with pytest.raises(ValueError, match="coefficients"):
            eval_spline_derivative(quad_space, np.ones(3), 0.5)


# ----------------------- local basis against the dense oracles -----------------

def _test_knots(degree, kind):
    """Open knot vector on [0, 2]: uniform, perturbed, or perturbed with one
    interior knot doubled (a zero-length span)."""
    inner = np.linspace(0.0, 2.0, 8)
    if kind != "uniform":
        inner[1:-1] += np.random.default_rng(degree).uniform(-0.08, 0.08, 6)
    if kind == "repeated":
        inner = np.sort(np.append(inner, inner[3]))
    return pd.KnotVector(degree, np.concatenate([[0.0] * degree, inner, [2.0] * degree]))


# periodic spaces need C1 (degree 2 up, degree 3 up with a doubled knot), and
# the derivative basis needs interior multiplicity <= degree
LOCAL_CASES = [
    (degree, kind, periodic)
    for degree in range(1, 6) for kind in ("uniform", "nonuniform", "repeated")
    for periodic in (False, True)
    if degree >= 1 + periodic + (kind == "repeated")
]


def _scatter(index, values, dim):
    dense = np.zeros((index.shape[0], dim))
    np.add.at(dense, (np.arange(index.shape[0])[:, None], index), values)
    return dense


@pytest.mark.parametrize("degree,kind,periodic", LOCAL_CASES)
def test_eval_local_matches_dense_oracles(degree, kind, periodic):
    space = pd.SplineSpace(_test_knots(degree, kind), periodic=periodic)
    breaks = np.unique(space.kv.knots)
    x = np.concatenate([breaks, [0.0, 2.0],
                        np.random.default_rng(7).uniform(0.0, 2.0, 40)])
    if periodic:
        x = np.concatenate([x, breaks + 2.0, -breaks, [-2.0, 4.0, 7.3, -5.1]])
    loc = eval_local(space, x)
    deriv_dim = space.dim if periodic else space.dim - 1
    for index, got, oracle, dim in (
        (loc.index, loc.values, partial(eval_basis, space), space.dim),
        (loc.index, loc.derivatives, partial(eval_basis_derivative, space), space.dim),
        (loc.deriv_index, loc.deriv_values, partial(eval_deriv_space_basis, space), deriv_dim),
    ):
        expected = np.array([oracle(t) for t in x])
        error = np.abs(_scatter(index, got, dim) - expected).max()
        assert error <= 1e-13 * np.abs(expected).max()
        # the index lists every function nonzero at the parameter, once
        for row, dense in zip(index, expected):
            assert set(np.flatnonzero(dense)) <= set(row)
            assert len(set(row)) >= np.count_nonzero(dense)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_local_rejects_non_finite(periodic, bad):
    space = pd.SplineSpace(_test_knots(3, "nonuniform"), periodic=periodic)
    with pytest.raises(ValueError, match=r"^s = .* is not finite"):
        eval_local(space, np.array([0.5, bad]), "s")


@pytest.mark.parametrize("bad", [-1e-9, 2.0 + 1e-9, 5.0])
def test_eval_local_rejects_out_of_range(bad):
    space = pd.SplineSpace(_test_knots(3, "nonuniform"))
    with pytest.raises(ValueError, match=r"^s = .* outside \[0\.0, 2\.0\]"):
        eval_local(space, np.array([1.0, bad]), "s")


def test_eval_local_runs_no_recursion_per_call(monkeypatch):
    calls = []
    kernel = bsplines._basis_funs_batch
    monkeypatch.setattr(bsplines, "_basis_funs_batch",
                        lambda *args: calls.append(1) or kernel(*args))
    space = pd.SplineSpace(_test_knots(4, "repeated"), periodic=True)
    for x in (np.array([0.3]), np.linspace(-1.0, 3.0, 50), np.array([2.0])):
        eval_local(space, x)
    assert len(calls) == 1


def test_derivative_basis_structure():
    kv = pd.make_uniform_open_knots(2, 5, 0.0, 4.0)
    scales = pd.SplineSpace(kv).derivative_scales
    # scale_j = p / (t_{j+p+1} - t_{j+1}) for the n-1 derivative functions
    assert scales.shape == (kv.n - 1,) and not scales.flags.writeable
    npt.assert_allclose(scales, 2.0 / (kv.knots[3:-1] - kv.knots[1:-3]))
    with pytest.raises(ValueError, match="degree >= 1"):
        pd.SplineSpace(pd.KnotVector(0, [0.0, 1.0, 2.0])).derivative_scales
    with pytest.raises(ValueError, match="multiplicity <= degree"):
        pd.SplineSpace(pd.KnotVector(1, [0, 0, 1, 1, 1, 2, 2])).derivative_scales


def test_a_degree_0_space_has_no_evaluation_tables():
    # no entry point builds one: the size floors need degree >= 2
    with pytest.raises(ValueError, match="degree >= 1"):
        pd.SplineSpace(pd.KnotVector(0, [0.0, 1.0, 2.0]))._span_tables


# ------------------------------ DTA check ------------------------------------

class TestDtaCompatible:
    def test_identity(self):
        diag = is_dta_compatible(np.eye(5))
        assert diag.ok and bool(diag)

    def test_h0(self):
        h0 = pd.periodic_h0(pd.make_uniform_open_knots(2, 5, 0.0, 4.0))
        assert is_dta_compatible(h0).ok

    def test_negative_entry_rejected(self):
        mat = np.eye(4)
        mat[0, 1] = -0.1
        mat[1, 1] = 1.1
        diag = is_dta_compatible(mat)
        assert not diag.ok
        assert "negative" in diag.violation

    def test_rank_deficiency_rejected(self):
        mat = np.ones((2, 2)) * 0.5
        diag = is_dta_compatible(mat)
        assert not diag.ok
        assert "rank" in diag.violation
