import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import polar_derham as pd
from polar_derham.torus import PolarComplex
from oracles import is_dta_compatible, joint_block


# ----------------------------- center block ----------------------------------

class TestEbarBlock:
    def test_first_ring_is_thirds(self):
        ebar = pd.ebar_block(5)
        npt.assert_allclose(ebar.matrix[:, :5], 1.0 / 3.0)
        for i in range(5):
            assert abs(ebar.matrix[:, i].sum() - 1.0) <= 1e-15

    def test_second_ring_value_nr4(self):
        # theta_1 = 7 pi / 4 for four poloidal positions
        ebar = pd.ebar_block(4)
        expected = 1.0 / 3.0 + np.cos(7 * np.pi / 4) / 3.0
        assert abs(ebar.matrix[0, 4] - expected) <= 1e-14
        assert abs(expected - 0.56904) <= 5e-6

    @pytest.mark.parametrize("nr", [3, 4, 5, 6, 8])
    def test_column_sums_and_positivity(self, nr):
        ebar = pd.ebar_block(nr)
        npt.assert_allclose(ebar.matrix.sum(axis=0), 1.0, atol=1e-14)
        assert ebar.matrix.min() >= -1e-15

    def test_size_floor(self):
        with pytest.raises(ValueError):
            pd.ebar_block(2)

    def test_angles_reduced(self):
        ebar = pd.ebar_block(5)
        assert np.all(ebar.thetas >= 0.0) and np.all(ebar.thetas < 2 * np.pi)

    def test_wraparound_columns(self):
        # the step after the last second-ring column wraps to the first
        ebar = pd.ebar_block(4)
        npt.assert_allclose(ebar.ring_steps()[:, 3], ebar.matrix[1:, 4] - ebar.matrix[1:, 7])


# -------------------------- per-joint blocks ----------------------------------

class TestE0:
    def test_size(self):
        assert joint_block("e0", 4, 4).shape == (11, 16)

    def test_dta(self):
        assert is_dta_compatible(joint_block("e0", 4, 4)).ok
        assert is_dta_compatible(joint_block("e0", 5, 6)).ok

    def test_identity_rows(self):
        e0 = joint_block("e0", 4, 4).toarray()
        for row in e0[3:]:
            assert np.count_nonzero(row) == 1
            assert row.max() == 1.0


def _e10_direct(nr, ns, ebar):
    """Closed-form transcription of the poloidal edge block (cross-check
    against the action-driven construction)."""
    nbar1 = 2 * (nr * (ns - 2) + 1)
    mat = np.zeros((nbar1, nr * ns))
    for ell in (1, 2):
        for i in range(1, nr + 1):
            mat[ell - 1, i + nr - 1] = (
                ebar.matrix[ell, nr + i % nr] - ebar.matrix[ell, nr + i - 1]
            )
    for j in range(3, ns + 1):
        for i in range(1, nr + 1):
            mat[2 + i + (2 * j - 5) * nr - 1, i + (j - 1) * nr - 1] = 1.0
    return mat


def _e01_direct(nr, ns, ebar):
    nbar1 = 2 * (nr * (ns - 2) + 1)
    mat = np.zeros((nbar1, nr * (ns - 1)))
    for ell in (1, 2):
        for i in range(1, nr + 1):
            mat[ell - 1, i - 1] = ebar.matrix[ell, nr + i - 1] - 1.0 / 3.0
    for j in range(2, ns):
        for i in range(1, nr + 1):
            mat[2 + i + (2 * j - 4) * nr - 1, i + (j - 1) * nr - 1] = 1.0
    return mat


class TestEdgeBlocks:
    @pytest.mark.parametrize("nr,ns", [(3, 4), (4, 4), (5, 6), (4, 8)])
    def test_action_matches_transcription(self, nr, ns):
        ebar = pd.ebar_block(nr)
        npt.assert_allclose(
            joint_block("e10", nr, ns, ebar).toarray(), _e10_direct(nr, ns, ebar),
            atol=1e-15,
        )
        npt.assert_allclose(
            joint_block("e01", nr, ns, ebar).toarray(), _e01_direct(nr, ns, ebar),
            atol=1e-15,
        )

    def test_e10_head_rows_support(self):
        nr, ns = 4, 4
        e10 = joint_block("e10", nr, ns).toarray()
        support = np.nonzero(np.abs(e10[:2]).sum(axis=0))[0]
        assert set(support) <= set(range(nr, 2 * nr))

    def test_e10_zero_row_positions(self):
        nr, ns = 4, 5
        e10 = joint_block("e10", nr, ns).toarray()
        zero_rows = {r for r in range(e10.shape[0]) if not e10[r].any()}
        expected = {
            2 + i + (2 * j - 6) * nr - 1
            for j in range(3, ns + 1)
            for i in range(1, nr + 1)
        }
        assert zero_rows == expected

    def test_e01_first_row_balance(self):
        # second-ring deviations sum to zero over the symmetric angles
        e01 = joint_block("e01", 5, 5).toarray()
        assert abs(e01[0, :5].sum()) <= 1e-14
        assert abs(e01[1, :5].sum()) <= 1e-14


class TestE2:
    def test_selector_structure(self):
        e2 = joint_block("e2", 4, 4)
        assert e2.shape == (8, 12)
        coo = e2.tocoo()
        npt.assert_array_equal(coo.coords[1], coo.coords[0] + 4)
        npt.assert_array_equal(coo.data, 1)

    def test_rank_and_column_sums(self):
        e2 = joint_block("e2", 5, 6).toarray()
        assert np.linalg.matrix_rank(e2) == e2.shape[0]
        npt.assert_array_equal(e2[:, :5].sum(axis=0), 0)
        npt.assert_array_equal(e2[:, 5:].sum(axis=0), 1)


# ------------------------------ 3D assembly -----------------------------------

@pytest.fixture(scope="module")
def ext443():
    return pd.assemble_3d(4, 4, 3)


class TestAssembly:
    def test_shapes(self, ext443):
        c = ext443.counts
        assert ext443.E000.shape == (33, 48)
        assert ext443.E100.shape == (c.n1, 48)
        assert ext443.E010.shape == (c.n1, 36)
        assert ext443.E001.shape == (c.n1, 48)
        assert ext443.E011.shape == (c.n2, 36)
        assert ext443.E101.shape == (c.n2, 48)
        assert ext443.E110.shape == (c.n2, 36)
        assert ext443.E111.shape == (c.n3, 36)

    def test_e001_block_layout(self, ext443):
        # zero rows on top, the vertex block in the last nbar0 rows per joint
        c = ext443.counts
        dense = ext443.E001.toarray()
        e0 = joint_block("e0", 4, 4, ext443.ebar).toarray()
        for k in range(c.nt):
            block = dense[k * (c.nbar1 + c.nbar0):(k + 1) * (c.nbar1 + c.nbar0),
                          k * 16:(k + 1) * 16]
            npt.assert_array_equal(block[:c.nbar1], 0.0)
            npt.assert_allclose(block[c.nbar1:], e0)

    def test_e101_sign_flip(self, ext443):
        c = ext443.counts
        dense = ext443.E101.toarray()
        e10 = joint_block("e10", 4, 4, ext443.ebar).toarray()
        block = dense[:c.nbar2 + c.nbar1, :16]
        npt.assert_allclose(block[c.nbar2:], -e10)

    def test_e111_integer_selector(self, ext443):
        assert ext443.E111.dtype == np.float64
        assert set(np.unique(ext443.E111.toarray())) <= {0, 1}

    def test_e000_dta(self, ext443):
        assert is_dta_compatible(ext443.E000).ok

    def test_no_common_zero_rows_level1(self, ext443):
        stacked = np.abs(
            np.column_stack([
                np.abs(ext443.E100.toarray()).sum(axis=1),
                np.abs(ext443.E010.toarray()).sum(axis=1),
                np.abs(ext443.E001.toarray()).sum(axis=1),
            ])
        )
        assert np.all(stacked.sum(axis=1) > 1e-12)

    def test_no_common_zero_rows_level2(self, ext443):
        stacked = np.column_stack([
            np.abs(ext443.E011.toarray()).sum(axis=1),
            np.abs(ext443.E101.toarray()).sum(axis=1),
            np.abs(ext443.E110.toarray()).sum(axis=1),
        ])
        assert np.all(stacked.sum(axis=1) > 1e-12)

    @pytest.mark.parametrize("name", ["E100", "E010", "E001", "E011", "E101", "E110"])
    def test_nonzero_rows_linearly_independent(self, ext443, name):
        dense = getattr(ext443, name).toarray()
        nz = dense[np.abs(dense).sum(axis=1) > 1e-12]
        assert np.linalg.matrix_rank(nz) == nz.shape[0]


# ------------------------ the lifts read back by verify ------------------------

def _drop_in_every_joint(matrix, counts, row):
    """Zero the local `row` of every joint of a 3D matrix, as
    inject_row_drop zeroes one row."""
    patched = matrix.tolil(copy=True)
    rows = matrix.shape[0] // counts.nt
    for joint in range(counts.nt):
        patched[joint * rows + row, :] = 0
    patched = patched.tocsr()
    patched.eliminate_zeros()
    return patched


def _change_one_entry(matrix, counts, row):
    patched = matrix.tocsr(copy=True)
    patched.data[patched.indptr[row]] = 2
    return patched


@pytest.mark.parametrize("dims", [(4, 4, 3), (8, 8, 6)])
@pytest.mark.parametrize("name,fault", [
    # a unit row of the e0 copy below the in-joint edges
    ("E001", lambda m, c: _drop_in_every_joint(m, c, c.nbar1 + 3)),
    # a unit row of the -e10 copy on the side faces: the first poloidal round
    ("E101", lambda m, c: _drop_in_every_joint(m, c, c.nbar2 + 2 + c.nr)),
    ("E111", lambda m, c: _change_one_entry(m, c, 0)),
], ids=["E001-row-in-every-joint", "E101-row-in-every-joint", "E111-one-entry"])
def test_dta_fails_on_a_lift_that_does_not_carry_its_source_block(dims, name, fault,
                                                                  complex_cache):
    # each fault keeps the matrix block-circulant and every block partitioned;
    # only the comparison with the block another matrix holds finds it
    cx = complex_cache(dims=dims)
    matrix = getattr(cx.extraction, name)
    patched = fault(matrix, cx.counts)
    assert patched.nnz and (patched != matrix).nnz
    extraction = dataclasses.replace(cx.extraction, overrides={name: patched})
    bad = PolarComplex(cx.spec, cx.tensor, extraction, cx.incidence, cx.polar_map,
                       cx.geometry_map)
    report = pd.run_verification(bad)
    suite = report.suites["dta"]
    assert not suite["pass"]
    assert suite["structure_violation"].startswith(f"{name} is not the circle lift")
    assert any(f.startswith(f"dta: {name} is not") for f in report.failures)


def test_count_identities_random_sizes():
    rng = np.random.default_rng(12)
    for _ in range(20):
        nr = int(rng.integers(3, 9))
        ns = int(rng.integers(4, 10))
        nt = int(rng.integers(3, 8))
        c = pd.polar_counts(nr, ns, nt)
        assert c.n0 == nt * (nr * (ns - 2) + 3)
        assert c.n1 == nt * (3 * nr * (ns - 2) + 5)
        assert c.n2 == nt * (c.nbar1 + c.nbar2)
        assert c.n3 == nt * c.nbar2
        assert c.alternating_sum == 0


def test_counts_floor():
    with pytest.raises(ValueError, match="floors"):
        pd.polar_counts(2, 4, 3)


# --------------------------- reduced basis eval --------------------------------

@pytest.fixture(scope="module")
def setup():
    tensor = pd.build_tensor_sequence((2, 2, 2), (4, 4, 3))
    ext = pd.assemble_3d(4, 4, 3)
    return tensor, ext


class TestReducedBasis:

    def test_partition_of_unity(self, setup):
        tensor, ext = setup
        rng = np.random.default_rng(21)
        for _ in range(50):
            point = tuple(rng.uniform(0, 1, size=3))
            vals = pd.reduced_basis_values(ext, tensor, 0, point)
            assert abs(vals.sum() - 1.0) <= 1e-12
            assert vals.min() >= -1e-13

    def test_level1_zero_component(self, setup):
        tensor, ext = setup
        # 1-based index nbar1 + 1 sits in the zero block of the poloidal
        # component
        vec = pd.reduced_basis_values(ext, tensor, 1, (0.3, 0.4, 0.5))[ext.counts.nbar1]
        assert vec.shape == (3,)
        assert vec[0] == 0.0

    def test_level3_scalar(self, setup):
        tensor, ext = setup
        val = pd.reduced_basis_values(ext, tensor, 3, (0.3, 0.6, 0.5))[0]
        assert np.isscalar(val) or np.ndim(val) == 0

    def test_index_out_of_range(self, setup):
        # one value per reduced function: 0-based indices 0 .. n_level - 1
        tensor, ext = setup
        for level in range(4):
            values = pd.reduced_basis_values(ext, tensor, level, (0.1, 0.1, 0.1))
            assert len(values) == ext.counts.level_dim(level)
            with pytest.raises(IndexError):
                values[ext.counts.level_dim(level)]
