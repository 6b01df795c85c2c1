import hashlib
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

import polar_derham as pd
from oracles import (derivative_matrix, eval_basis, eval_basis_derivative, eval_component_basis,
                     joint_block, level_operator)
from polar_derham import tensor
from polar_derham.bsplines import csr_from_triplet, index_dtype, triplet
from polar_derham.extraction import lift_table
from polar_derham.tensor import (LEVEL_PATTERNS, LiftTable, StructureError, echelon_rank,
                                 eye_triplet, partition_rank)


@pytest.fixture(scope="module")
def tc():
    return pd.build_tensor_sequence((2, 2, 2), (4, 4, 3))


# ----------------------------- level dimensions -------------------------------

def test_level_dimensions(tc):
    assert tc.level_dim(0) == 4 * 4 * 3 == 48
    assert tc.level_dim(3) == 4 * 3 * 3 == 36
    assert tc.level_dim(1) == 48 + 36 + 48
    assert tc.level_dim(2) == 36 + 48 + 36


def test_size_floor_violations():
    with pytest.raises(ValueError, match="floors"):
        pd.build_tensor_sequence((2, 2, 2), (4, 1, 3))
    with pytest.raises(ValueError, match="degrees"):
        pd.build_tensor_sequence((1, 2, 2), (4, 4, 3))
    with pytest.raises(ValueError, match="floors"):
        pd.build_tensor_sequence((2, 2, 2), (2, 4, 3))


@pytest.mark.parametrize("degrees,floors", [((2, 2, 2), (3, 4, 3)), ((2, 4, 2), (3, 5, 3)),
                                            ((6, 2, 2), (5, 4, 3)), ((2, 2, 6), (3, 4, 5))])
def test_degree_dependent_size_floors(degrees, floors):
    # two distinct knots per direction: nr >= p_r - 1, ns >= p_s + 1, nt >= p_t - 1
    assert pd.build_tensor_sequence(degrees, floors).dims == floors
    assert pd.TorusComplexSpec(degrees=degrees, dims=floors).dims == floors
    for axis in range(3):
        below = tuple(n - (d == axis) for d, n in enumerate(floors))
        message = f"need degrees >= (2, 2, 2) and dims >= {floors}"
        with pytest.raises(ValueError, match=re.escape(message)):
            pd.build_tensor_sequence(degrees, below)
        with pytest.raises(ValueError, match=re.escape(message)):
            pd.TorusComplexSpec(degrees=degrees, dims=below)


# --------------------------- derivative matrices ------------------------------

def test_derivative_matrix_shapes(tc):
    dr, ds, dt = (tc.derivative(axis) for axis in range(3))
    assert dr.shape == (48, 48)
    assert ds.shape == (36, 48)
    assert dt.shape == (48, 48)


def test_kronecker_structure(tc):
    from polar_derham.bsplines import difference_matrix

    eye = lambda n: sparse.identity(n, dtype=np.int64, format="csr")
    ds_expected = sparse.kron(eye(3), sparse.kron(difference_matrix(4, False), eye(4)))
    assert (tc.derivative(1) - ds_expected).nnz == 0
    dr_expected = sparse.kron(eye(3), sparse.kron(eye(4), difference_matrix(4, True)))
    assert (tc.derivative(0) - dr_expected).nnz == 0
    dt_expected = sparse.kron(difference_matrix(3, True), sparse.kron(eye(4), eye(4)))
    assert (tc.derivative(2) - dt_expected).nnz == 0


def test_row_sums_zero(tc):
    for mat in (tc.derivative(axis) for axis in range(3)):
        npt.assert_array_equal(np.asarray(mat.sum(axis=1)), 0)


def test_constant_has_zero_gradient(tc):
    out = tc.apply_grad(np.ones(tc.level_dim(0)))
    npt.assert_array_equal(out, 0)


def test_fiberwise_application(tc):
    # applying the r-derivative matrix equals applying the periodic
    # stencil along every r-fiber of the coefficient grid
    from polar_derham.bsplines import difference_matrix

    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(tc.level_dim(0))
    out = (tc.derivative(0) @ coeffs).reshape(tc.nt, tc.ns, tc.nr)
    grid = coeffs.reshape(tc.nt, tc.ns, tc.nr)
    delta = difference_matrix(tc.nr, periodic=True).toarray()
    for k in range(tc.nt):
        for j in range(tc.ns):
            npt.assert_allclose(out[k, j], delta @ grid[k, j])


# ------------------------------- d^2 = 0 --------------------------------------

def test_complex_property_exact(tc):
    grad, curl, div = (level_operator(tc, level) for level in range(3))
    assert grad.dtype == np.float64
    assert (curl @ grad).nnz == 0
    assert (div @ curl).nnz == 0


# SHA-256 over the dtype name, indptr and indices (as int64) and data of
# each CSR operator: a changed entry, sign, order or dtype shows here.
PINNED_OPERATOR_DIGESTS = {
    # re-recorded when the operators stopped storing the explicit zeros
    # that scipy's kron leaves in the r-stencil blocks at nr = 4, and when
    # they became float64 (indptr, indices and values unchanged)
    ((2, 2, 2), (4, 4, 3)): {
        "grad_matrix": "75a8eb7630f5227b80cab780d665e7783fd1ac54383b46b3c0a081db197cb81f",
        "curl_matrix": "410fec106f1643d4b50c015b3054949144b276991be4b664af4ea304e335005d",
        "div_matrix": "adcaf66f776646605ffa7d13cd0cea80324a92e5473614ae9d4ff86abe3fe706",
        "derivative_r": "518ed4b6dc2b5d10213d47f323aa274816af85d7f8ed5c813a0be6c5955372c1",
        "derivative_s": "a73045aa6a9193bfb3b7ab55aefed656cc4ce81afe4f9bce1c9fa4046b602f31",
        "derivative_t": "801789a3b05c802aed6d96c0367e6fb4487d78f7ec49d9520322e84b44242f00",
    },
    ((3, 3, 3), (5, 6, 4)): {
        "grad_matrix": "3c1a64ec73248f7ba092693d5fd84483df200787dedc316f45d768333b749b84",
        "curl_matrix": "f47a35cfce4cca26cd868af2524e6d4a190a586e219b7224b247c36b3e642836",
        "div_matrix": "5467dd3c33ffc8edb2fc104d1c21d0dbcb9a17b58f54e60a8e3a654e2374e0ad",
        "derivative_r": "17b793f68d3c31509ac840c79001a110e55a0fa360503bb571dd8f94b910acf7",
        "derivative_s": "520df71199494ede5c76dca413c3ea98396c125e50ac878d3cbde771b93cef50",
        "derivative_t": "a9b45769c8f433a311faca9c3e4262c64a153946454a66157b86f3d3c59a881b",
    },
}


def _operator_digest(matrix):
    h = hashlib.sha256(str(matrix.dtype).encode())
    for arr in (matrix.indptr, matrix.indices):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    h.update(matrix.data.tobytes())
    return h.hexdigest()


_LEVEL_NAMES = ("grad_matrix", "curl_matrix", "div_matrix")


def _pinned_operator(tc, name):
    """The 3D level operators of the oracle by their former method names;
    derivative_r, _s and _t are the library's level-0 stencils of
    directions 0, 1 and 2."""
    if name.startswith("derivative_"):
        return tc.derivative("rst".index(name[-1]))
    return level_operator(tc, _LEVEL_NAMES.index(name))


@pytest.mark.parametrize("degrees,dims", list(PINNED_OPERATOR_DIGESTS))
def test_operator_digests_pinned(degrees, dims):
    tc = pd.build_tensor_sequence(degrees, dims)
    for name, digest in PINNED_OPERATOR_DIGESTS[(degrees, dims)].items():
        matrix = _pinned_operator(tc, name)
        assert matrix.dtype == np.float64, name
        assert _operator_digest(matrix) == digest, name


def _kron_derivative(tc, axis, pattern=(0, 0, 0)):
    """The stencil of `axis` on one component as nested scipy Kronecker
    products: the construction the one-pass builder replaced."""
    factors = [sparse.identity(n, dtype=np.float64, format="csr")
               for n in tc.component_shape(pattern)]
    factors[axis] = tc.spaces[axis].difference_stencil
    return sparse.kron(factors[2], sparse.kron(factors[1], factors[0]), format="csr")


def _bmat_level_operator(tc, level):
    """The level operator stacked block by block with scipy's bmat."""
    sources, targets = LEVEL_PATTERNS[level], LEVEL_PATTERNS[level + 1]
    blocks = [[sparse.csr_array((tc.component_dim(q), tc.component_dim(p)), dtype=np.float64)
               for p in sources] for q in targets]
    for col, p in enumerate(sources):
        for axis in range(3):
            if not p[axis]:
                q = tuple(b + (d == axis) for d, b in enumerate(p))
                block = _kron_derivative(tc, axis, p)
                negative = level == 1 and p.index(1) != (axis + 1) % 3
                blocks[targets.index(q)][col] = -block if negative else block
    return sparse.bmat(blocks, format="csr")


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (3, 4, 3)), ((2, 2, 2), (4, 4, 3)),
                                          ((3, 3, 3), (5, 6, 4)), ((2, 2, 2), (16, 16, 8))])
def test_operators_match_kron_oracle_without_stored_zeros(degrees, dims):
    # scipy's kron stores explicit zeros when nr <= 4; the one-pass
    # builder stores none and otherwise gives the same CSR arrays
    tc = pd.build_tensor_sequence(degrees, dims)
    pairs = [(f"derivative({axis})", tc.derivative(axis), _kron_derivative(tc, axis))
             for axis in range(3)]
    pairs += [(name, level_operator(tc, level), _bmat_level_operator(tc, level))
              for level, name in enumerate(_LEVEL_NAMES)]
    for name, got, oracle in pairs:
        assert np.count_nonzero(got.data) == got.nnz, name
        oracle.eliminate_zeros()
        assert got.dtype == oracle.dtype == np.float64, name
        for arr in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(got, arr), getattr(oracle, arr), err_msg=name)


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 2, 4), (7, 7, 5)),
                                          ((5, 3, 2), (9, 8, 7)), ((2, 2, 2), (32, 32, 16))])
def test_apply_equals_the_3d_operator_product(degrees, dims):
    tc = pd.build_tensor_sequence(degrees, dims)
    # coefficients over 16 decades, so that the order of the sums shows
    rng = np.random.default_rng(27)
    for level, apply in enumerate((tc.apply_grad, tc.apply_curl, tc.apply_div)):
        n = tc.level_dim(level)
        coeffs = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        assert np.array_equal(apply(coeffs), level_operator(tc, level) @ coeffs), level


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (7, 7, 5)),
                                          ((2, 2, 2), (16, 16, 8))])
def test_lifted_stencils_equal_the_3d_assembly(degrees, dims):
    tc = pd.build_tensor_sequence(degrees, dims)
    for axis in range(3):
        got, expected = tc.derivative(axis), derivative_matrix(tc, axis)
        assert got.shape == expected.shape and got.dtype == expected.dtype == np.float64
        for arr in ("indptr", "indices", "data"):
            mine, theirs = getattr(got, arr), getattr(expected, arr)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), (axis, arr)
        assert got.indices.dtype == np.int32


def test_stencils_allocate_little_beyond_what_they_keep():
    # lifted from one joint, the stencils hold no 3D triplet while they are
    # built: one would more than double the peak
    tensor = pd.build_tensor_sequence((2, 2, 2), (64, 64, 32))
    tracemalloc.start()
    try:
        stencils = [tensor.derivative(axis) for axis in range(3)]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * held, (peak, held)
    assert all(m.indices.dtype == m.indptr.dtype == np.int32 for m in stencils)


def test_curl_of_gradient_and_div_of_curl(tc):
    rng = np.random.default_rng(4)
    f = rng.standard_normal(tc.level_dim(0))
    assert np.abs(tc.apply_curl(tc.apply_grad(f))).max() <= 1e-13
    g = rng.standard_normal(tc.level_dim(1))
    assert np.abs(tc.apply_div(tc.apply_curl(g))).max() <= 1e-13


def test_apply_dimension_checks(tc):
    with pytest.raises(ValueError, match="length"):
        tc.apply_grad(np.ones(3))
    with pytest.raises(ValueError, match="length"):
        tc.apply_div(np.ones(tc.level_dim(1)))


# --------------------- analytic derivative consistency ------------------------

def test_coefficient_derivative_matches_analytic(tc):
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(tc.level_dim(0))
    d_coeffs = tc.derivative(0) @ coeffs
    grid = coeffs.reshape(tc.nt, tc.ns, tc.nr)
    for _ in range(20):
        point = tuple(rng.uniform(0.02, 0.98, size=3))
        r, s, t = point
        dbr = eval_basis_derivative(tc.spaces[0], r)
        bs = eval_basis(tc.spaces[1], s)
        bt = eval_basis(tc.spaces[2], t)
        analytic = np.einsum("r,s,t,tsr->", dbr, bs, bt, grid)
        via_matrix = d_coeffs @ eval_component_basis(tc, (1, 0, 0), point)
        assert abs(analytic - via_matrix) <= 1e-10


def test_component_basis_partition_only_level0(tc):
    rng = np.random.default_rng(8)
    for _ in range(10):
        point = tuple(rng.uniform(0, 1, size=3))
        vals = eval_component_basis(tc, (0, 0, 0), point)
        assert abs(vals.sum() - 1.0) <= 1e-12


def test_component_shapes(tc):
    assert tc.component_shape((0, 0, 0)) == (4, 4, 3)
    assert tc.component_shape((0, 1, 0)) == (4, 3, 3)
    assert [tc.component_dim(p) for p in LEVEL_PATTERNS[2]] == [36, 48, 36]


# ------------------------ joint-structure checks -------------------------------

def test_lift_read_recovers_the_per_joint_block(cx443):
    e = cx443.extraction
    table = lift_table(e.counts)
    assert (table.read({"E000": e.E000})["e0"] != joint_block("e0", 4, 4, e.ebar)).nnz == 0
    assert (table.read({"E111": e.E111})["e2"] != joint_block("e2", 4, 4)).nnz == 0


def _identity_lift(n, shape, name):
    """The lift table of one matrix that is ``I_n (x) block``."""
    return LiftTable(n, {"block": shape}, {name: (shape, [(eye_triplet(n), "block", 0, 0)])})


def test_lift_read_rejects_entries_off_the_joint_diagonal(cx443):
    # D0 repeats over the joints, but the toroidal edges couple joint j to j + 1
    shape = (cx443.counts.nbar1 + cx443.counts.nbar0, cx443.counts.nbar0)
    with pytest.raises(StructureError, match=r"D0 is not the circle lift of one set \(block\): "
                                             r"joint 0 has entries outside"):
        _identity_lift(3, shape, "D0").read({"D0": cx443.incidence.D0})
    # its diagonal blocks alone are I_3 (x) block
    block = cx443.incidence.D0[:shape[0], :shape[1]]
    diagonal = sparse.kron(sparse.identity(3), block, format="csr")
    assert (_identity_lift(3, shape, "D0").read({"D0": diagonal})["block"] != block).nnz == 0


def test_lift_read_names_the_first_joint_that_differs():
    block = sparse.csr_array(np.array([[1.0, 2.0], [0.0, 3.0]]))
    good = sparse.kron(sparse.identity(4), block, format="lil")
    bad = good.copy()
    bad[5, 4] = 7.0  # a new entry in joint 2
    bad[7, 6] = 7.0  # and one in joint 3
    table = _identity_lift(4, (2, 2), "M")
    with pytest.raises(StructureError, match="M is not block-circulant over 4 joints: "
                                             "the entries of joint 2 differ"):
        table.read({"M": bad})
    # an entry past the end of joint 1's last row, one fewer in joint 2's first
    moved = good.copy()
    moved[3, 7] = 7.0
    moved[4, 4] = 0.0
    with pytest.raises(StructureError, match="the entries of joint 1 differ"):
        table.read({"M": sparse.csr_array(moved)})
    # explicit zeros are not entries
    stored_zero = good.tocsr()
    stored_zero.data[stored_zero.data == 2.0] = 0.0
    assert table.read({"M": stored_zero})["block"].data.tolist() == [1.0, 3.0]
    stored_zero.data[-1] = 0.0
    with pytest.raises(StructureError, match="joint 3 differ"):
        table.read({"M": stored_zero})
    with pytest.raises(StructureError, match="does not split into 3 joints"):
        _identity_lift(3, (2, 2), "M").read({"M": good})


def _stored_out_of_order(matrix, row, changed=0.0):
    """`matrix` with `row` stored as no CSR constructor leaves it: its first
    entry split in two halves, the first `changed` off and out of place,
    the rest reversed, and an explicit zero in a column the row lacks."""
    csr = sparse.csr_array(matrix)
    lo, hi = csr.indptr[row], csr.indptr[row + 1]
    cols, vals = csr.indices[lo:hi], csr.data[lo:hi]
    free = np.setdiff1d(np.arange(csr.shape[1]), cols)[0]
    row_cols = np.concatenate([cols[:1], cols[::-1], [free]])
    row_vals = np.concatenate([[vals[0] / 2 + changed], vals[:0:-1], [vals[0] / 2, 0.0]])
    indptr = csr.indptr.copy()
    indptr[row + 1:] += row_cols.size - (hi - lo)
    return sparse.csr_array((np.concatenate([csr.data[:lo], row_vals, csr.data[hi:]]),
                             np.concatenate([csr.indices[:lo], row_cols, csr.indices[hi:]]),
                             indptr), shape=csr.shape)


@pytest.mark.parametrize("joint", [0, 1, 2])
def test_lift_read_canonicalises_rows_stored_out_of_order(cx443, joint):
    # a row of D1's d0 part: its toroidal entries wrap to joint 0 in joint 2
    c = cx443.counts
    family = {name: getattr(cx443.incidence, name) for name in ("D0", "D1", "D2")}
    table, row = lift_table(c), joint * (c.nbar2 + c.nbar1) + c.nbar2 + 2
    expected = table.read(family)
    got = table.read(family | {"D1": _stored_out_of_order(cx443.incidence.D1, row)})
    assert list(got) == list(expected)
    for label, block in expected.items():
        for arr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got[label], arr), getattr(block, arr)), (label, arr)
    # a duplicate pair summing to another value: its block in joint 0, else its joint
    named = (r"D1 is not the circle lift of one pair \(d0, d1\): its offset-0 identity block "
             rf"\(rows {c.nbar2}:{c.nbar2 + c.nbar1}, cols 0:{c.nbar1}\) differs from \+1 "
             r"times the identity$" if joint == 0 else
             f"^D1 is not block-circulant over 3 joints: the entries of joint {joint} differ "
             "from those of joint 0$")
    with pytest.raises(StructureError, match=named):
        table.read(family | {"D1": _stored_out_of_order(cx443.incidence.D1, row, changed=0.5)})


def test_lift_read_forms_no_lift(cx443, monkeypatch):
    def no_lift(*args):
        raise AssertionError("LiftTable.read formed a lift")

    e, inc = cx443.extraction, cx443.incidence
    matrices = {name: getattr(e, name) for name in e.names()}
    family = {name: getattr(inc, name) for name in ("D0", "D1", "D2")}
    table = lift_table(cx443.counts)
    monkeypatch.setattr(tensor, "kron_lift", no_lift)
    assert set(table.read(matrices)) == {"e0", "e10", "e01", "e2"}
    assert set(table.read(family)) == {"d0", "d1"}
    for row in (3, inc.D1.shape[0] - 3):
        with pytest.raises(StructureError, match="^D1 is not"):
            table.read(family | {"D1": _stored_out_of_order(inc.D1, row, changed=0.5)})


def test_partition_rank_matches_dense_rank(cx443):
    table = lift_table(cx443.counts)
    for name in cx443.extraction.names():
        (block,) = table.read({name: getattr(cx443.extraction, name)}).values()
        dense = block.toarray()
        nonzero = dense[np.abs(dense).sum(axis=1) > 0]
        assert partition_rank(block, name) == (np.linalg.matrix_rank(nonzero), nonzero.shape[0])


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("perturbed", [False, True])
def test_partition_rank_of_periodic_h0_matches_dense_rank(degree, perturbed):
    # the DTA suite takes the ranks of H0_r and H0_t from the certificate
    rng = np.random.default_rng(degree)
    for distinct in range(max(2, 5 - degree), 42 - degree):
        values = np.linspace(0.0, 1.0, distinct)
        if perturbed:
            values[1:-1] += rng.uniform(-0.3, 0.3, distinct - 2) / (distinct - 1)
        h0 = pd.periodic_h0(pd.KnotVector(degree, np.concatenate(
            [np.zeros(degree), values, np.ones(degree)])))
        assert partition_rank(h0, "H0") == (np.linalg.matrix_rank(h0.toarray()), h0.shape[0])


def test_partition_rank_rejects_unit_rows_sharing_a_column():
    block = sparse.csr_array(np.array([
        [0.5, 0.5, 0.0, 0.0],   # center row
        [0.0, 0.0, 1.0, 0.0],   # unit rows 1 and 2 share column 2
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]))
    with pytest.raises(StructureError, match=r"E010 does not partition .* unit row 1 "
                                             r"shares column 2 with rows \[2\]"):
        partition_rank(block, "E010")
    # a unit entry in a center row's column is rejected as well
    block = sparse.csr_array(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(StructureError, match=r"unit row 1 shares column 0 with rows \[0\]"):
        partition_rank(block, "B")


def test_partition_rank_allows_at_most_three_center_rows():
    rank, rows = partition_rank(sparse.csr_array(np.array([[0.5, 0.5, 0.0], [0.0, 2.0, 0.0]])), "B")
    assert (rank, rows) == (2, 2)
    with pytest.raises(StructureError, match="B does not partition .* 4 rows"):
        partition_rank(sparse.csr_array(np.full((4, 2), 0.5)), "B")



# ------------------------------ index dtype -----------------------------------

def test_index_dtype_is_int32_below_two_to_the_31():
    big = 2**31
    assert index_dtype((big - 1, big - 1), big - 1) == np.int32
    assert index_dtype((0, 0), 0) == np.int32
    for shape, nnz in (((big, 1), 0), ((1, big), 0), ((1, 1), big)):
        assert index_dtype(shape, nnz) == np.int64, (shape, nnz)


def test_index_keys_are_formed_in_int64():
    # row * ncols passes 2**31 at row 40000 of a (2**16 + 3)^2 matrix: a key
    # formed in int32 wraps negative and would sort before row 10's
    n = 2**16 + 3
    rows, cols = np.array([10, 40000, n - 1]), np.array([n - 1, 5, 3])
    matrix = csr_from_triplet((rows, cols, np.ones(3)), (n, n))
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    # two joints of it: keys row * 2n + col reach about 5e9 at row 40000
    table = _identity_lift(2, (n, n), "M")
    lifted = table.lift({"block": triplet(matrix)}, ["M"])["M"]
    # also with joint 1's row 40000 stored out of order, compared by its keys
    for stored in (lifted, _stored_out_of_order(lifted, n + 40000)):
        block = table.read({"M": stored})["block"]
        assert all(np.array_equal(getattr(block, a), getattr(matrix, a))
                   for a in ("data", "indices", "indptr"))
    lifted.data[4] = 2.0  # joint 1's row 40000
    with pytest.raises(StructureError, match="M is not block-circulant over 2 joints: "
                                             "the entries of joint 1 differ"):
        table.read({"M": lifted})
    # last and first nonzeros are the single entries, in columns 3, 5, n - 1
    for reverse in (False, True):
        count, pivots = echelon_rank(matrix, reverse=reverse)
        assert count == 3 and pivots.tolist() == [n - 1, 40000, 10]
