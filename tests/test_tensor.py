import hashlib

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

import polar_derham as pd
from polar_derham.tensor import LEVEL_PATTERNS, StructureError, circulant_blocks, kron_block


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


# --------------------------- derivative matrices ------------------------------

def test_derivative_matrix_shapes(tc):
    dr, ds, dt = tc.derivative_matrices()
    assert dr.shape == (48, 48)
    assert ds.shape == (36, 48)
    assert dt.shape == (48, 48)


def test_kronecker_structure(tc):
    from polar_derham.bsplines import difference_matrix

    eye = lambda n: sparse.identity(n, dtype=np.int64, format="csr")
    ds_expected = sparse.kron(eye(3), sparse.kron(difference_matrix(4, False), eye(4)))
    assert (tc.derivative_s() - ds_expected).nnz == 0
    dr_expected = sparse.kron(eye(3), sparse.kron(eye(4), difference_matrix(4, True)))
    assert (tc.derivative_r() - dr_expected).nnz == 0
    dt_expected = sparse.kron(difference_matrix(3, True), sparse.kron(eye(4), eye(4)))
    assert (tc.derivative_t() - dt_expected).nnz == 0


def test_row_sums_zero(tc):
    for mat in tc.derivative_matrices():
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
    out = (tc.derivative_r() @ coeffs).reshape(tc.nt, tc.ns, tc.nr)
    grid = coeffs.reshape(tc.nt, tc.ns, tc.nr)
    delta = difference_matrix(tc.nr, periodic=True).toarray()
    for k in range(tc.nt):
        for j in range(tc.ns):
            npt.assert_allclose(out[k, j], delta @ grid[k, j])


# ------------------------------- d^2 = 0 --------------------------------------

def test_complex_property_exact(tc):
    grad = tc.grad_matrix()
    curl = tc.curl_matrix()
    div = tc.div_matrix()
    assert np.issubdtype(grad.dtype, np.integer)
    assert (curl @ grad).nnz == 0
    assert (div @ curl).nnz == 0


# SHA-256 over the dtype name, indptr and indices (as int64) and data of
# each CSR operator: a changed entry, sign, order or dtype shows here.
PINNED_OPERATOR_DIGESTS = {
    ((2, 2, 2), (4, 4, 3)): {
        "grad_matrix": "3f42dadc5c47ad81c1dd431ae4c162602e16454cfe8d540e3ffe00e5ca1694ba",
        "curl_matrix": "f54543debedac1188c7a9c968abc966b126ec47d1df44e6360e1405006549dce",
        "div_matrix": "aeb52974379f240d29341f671be2264fb1ed14086aa0916ae7c3dc1c3f0cadaa",
        "derivative_r": "38e214f44a05ed2c77c55121c6d4fd0238beda18a96dbb8f30f6be7247ded654",
        "derivative_s": "06884ed662b1c041acd8115ff72929603ac015b434ef2b8b2a51efd08e3e5c63",
        "derivative_t": "e731db8c9806892278e4b5d8b342e8e709e32c5ca43fd732149191be1347d7b8",
    },
    ((3, 3, 3), (5, 6, 4)): {
        "grad_matrix": "5201fe53fd2d9d9b1e7e9741e4a202e664e6d45677c4d696624c8bbe08270696",
        "curl_matrix": "e4faa55c684ed9ee9d4401ac6ac70fc0d5aa9fa417e0de40f9be39d9543cb491",
        "div_matrix": "be65a48239162c4f1cc614998e71c62e7c743d539c2b1c57b839ec9081fb8c02",
        "derivative_r": "4133bf0c4e8c90f8697fbd02d6092db19abd0b6fa406c218aa05bc9f7a7457d9",
        "derivative_s": "b1aa3c16e13ef8072d926ebc6211d003ebde7db18b9cb893863e73aaa5bd8384",
        "derivative_t": "064f16b598ae948085a8ef8036a13e4ebd7ea61e48f05e014b51078fa6acb01f",
    },
}


def _operator_digest(matrix):
    h = hashlib.sha256(str(matrix.dtype).encode())
    for arr in (matrix.indptr, matrix.indices):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    h.update(matrix.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("degrees,dims", list(PINNED_OPERATOR_DIGESTS))
def test_operator_digests_pinned(degrees, dims):
    tc = pd.build_tensor_sequence(degrees, dims)
    for name, digest in PINNED_OPERATOR_DIGESTS[(degrees, dims)].items():
        matrix = getattr(tc, name)()
        assert matrix.dtype == np.int64, name
        assert _operator_digest(matrix) == digest, name


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
    d_coeffs = tc.derivative_r() @ coeffs
    grid = coeffs.reshape(tc.nt, tc.ns, tc.nr)
    for _ in range(20):
        point = tuple(rng.uniform(0.02, 0.98, size=3))
        r, s, t = point
        dbr = tc.spaces[0].eval_basis_derivative(r)
        bs = tc.spaces[1].eval_basis(s)
        bt = tc.spaces[2].eval_basis(t)
        analytic = np.einsum("r,s,t,tsr->", dbr, bs, bt, grid)
        via_matrix = d_coeffs @ tc.eval_component_basis((1, 0, 0), point)
        assert abs(analytic - via_matrix) <= 1e-10


def test_component_basis_partition_only_level0(tc):
    rng = np.random.default_rng(8)
    for _ in range(10):
        point = tuple(rng.uniform(0, 1, size=3))
        vals = tc.eval_component_basis((0, 0, 0), point)
        assert abs(vals.sum() - 1.0) <= 1e-12


def test_component_shapes(tc):
    assert tc.component_shape((0, 0, 0)) == (4, 4, 3)
    assert tc.component_shape((0, 1, 0)) == (4, 3, 3)
    assert [tc.component_dim(p) for p in LEVEL_PATTERNS[2]] == [36, 48, 36]


# ------------------------------- Greville -------------------------------------

def test_greville_points(tc):
    pts = tc.greville_points()
    assert pts.shape == (48, 3)
    # first flat index is (i=1, j=1, k=1)
    gr = tc.spaces[0].greville()
    gs = tc.spaces[1].greville()
    gt = tc.spaces[2].greville()
    npt.assert_allclose(pts[0], [gr[0], gs[0], gt[0]])
    npt.assert_allclose(pts[-1], [gr[-1], gs[-1], gt[-1]])
    assert len(gs) == tc.ns and gs[0] == 0.0 and gs[-1] == 1.0


# ------------------------ joint-structure checks -------------------------------

def test_kron_block_recovers_the_per_joint_block(cx443):
    e = cx443.extraction
    assert (kron_block(e.E000, 3, "E000") != e.E0).nnz == 0
    assert (kron_block(e.E111, 3, "E111") != e.E2).nnz == 0


def test_kron_block_rejects_entries_off_the_joint_diagonal(cx443):
    # D0 is block-circulant, but the toroidal edges couple joint j to j + 1
    shape, (_, offsets, _, _) = circulant_blocks(cx443.incidence.D0, 3, "D0")
    assert shape == (cx443.counts.nbar1 + cx443.counts.nbar0, cx443.counts.nbar0)
    assert set(offsets.tolist()) == {0, 1}
    with pytest.raises(StructureError, match=r"D0 is not I_3 \(x\) block: .* joint 1"):
        kron_block(cx443.incidence.D0, 3, "D0")


def test_circulant_blocks_name_the_first_joint_that_differs():
    block = sparse.csr_array(np.array([[1.0, 2.0], [0.0, 3.0]]))
    good = sparse.kron(sparse.identity(4), block, format="lil")
    bad = good.copy()
    bad[5, 4] = 7.0  # a new entry in joint 2
    with pytest.raises(StructureError, match="M is not block-circulant over 4 joints: "
                                             "the entries of joint 2 differ"):
        circulant_blocks(bad, 4, "M")
    # explicit zeros are not entries
    stored_zero = good.tocsr()
    stored_zero.data[stored_zero.data == 2.0] = 0.0
    assert circulant_blocks(stored_zero, 4, "M")[1][3].tolist() == [1.0, 3.0]
    stored_zero.data[-1] = 0.0
    with pytest.raises(StructureError, match="joint 3 differ"):
        circulant_blocks(stored_zero, 4, "M")
    with pytest.raises(StructureError, match="does not split into 3 joints"):
        circulant_blocks(good, 3, "M")
