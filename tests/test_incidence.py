import dataclasses
import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

import polar_derham as pd
from polar_derham.cli import main
from polar_derham.incidence import max_abs, rank_with_gap, toroidal_spectrum
from polar_derham.iotools import write_triplet
from polar_derham.tensor import StructureError
from polar_derham.torus import PolarComplex
from polar_derham.verification import run_verification


@pytest.fixture(scope="module")
def inc443():
    return pd.build_incidence(4, 4, 3)


GRID = [(4, 4, 3), (5, 5, 4), (6, 4, 5), (5, 8, 3)]


# -------------------------------- D0 ------------------------------------------

class TestD0:
    def test_shape(self, inc443):
        c = inc443.counts
        assert inc443.D0.shape == (c.n1, c.n0)

    def test_constant_in_kernel(self, inc443):
        out = inc443.D0 @ np.full(inc443.counts.n0, 3.7)
        assert np.abs(out).max() <= 1e-13

    def test_kernel_is_exactly_constants(self, inc443):
        svals = np.linalg.svd(inc443.D0.toarray(), compute_uv=False)
        assert svals[-1] <= 1e-13
        assert svals[-2] > 1e6 * max(svals[-1], 1e-300)
        # residual of projecting the ones vector onto the kernel
        ones = np.ones(inc443.counts.n0) / np.sqrt(inc443.counts.n0)
        assert np.abs(inc443.D0 @ ones).max() <= 1e-12

    def test_row_sums_vanish(self, inc443):
        npt.assert_allclose(np.asarray(inc443.D0.sum(axis=1)), 0.0, atol=1e-13)

    def test_row_structure(self, inc443):
        dense = inc443.D0.toarray()
        weighted = set(inc443.weighted_rows["D0"])
        for r, row in enumerate(dense):
            nz = row[np.abs(row) > 1e-14]
            if r in weighted:
                # one +1 against up to three center weights summing to -1
                assert np.isclose(nz.max(), 1.0)
                assert np.isclose(nz.sum(), 0.0)
                assert 2 <= len(nz) <= 4
            else:
                assert sorted(nz) == [-1.0, 1.0]


# -------------------------------- D1 / D2 --------------------------------------

class TestD1:
    def test_rank(self, inc443):
        c = inc443.counts
        rank, gap, _ = rank_with_gap(inc443.D1)
        assert rank == c.nt * (c.nbar2 + c.nbar0 - 1) == 54
        assert gap >= 1e6

    def test_row_support_sizes(self, inc443):
        dense = inc443.D1.toarray()
        weighted = set(inc443.weighted_rows["D1"])
        for r, row in enumerate(dense):
            nnz = np.count_nonzero(np.abs(row) > 1e-14)
            if r in weighted:
                assert 4 <= nnz <= 6
            else:
                assert nnz == 4


class TestD2:
    def test_surjective(self, inc443):
        rank, gap, _ = rank_with_gap(inc443.D2)
        assert rank == inc443.counts.n3
        assert gap == float("inf")

    def test_generic_row_support(self, inc443):
        dense = inc443.D2.toarray()
        weighted = set(inc443.weighted_rows["D2"])
        for r, row in enumerate(dense):
            nnz = np.count_nonzero(np.abs(row) > 1e-14)
            if r in weighted:
                assert 6 <= nnz <= 8
            else:
                assert nnz == 6


@pytest.mark.parametrize("dims", GRID + [(16, 16, 8), (32, 32, 16)])
def test_complex_property(dims, complex_cache):
    inc = complex_cache(dims=dims).incidence
    assert max_abs(inc.D1 @ inc.D0) <= 1e-12
    assert max_abs(inc.D2 @ inc.D1) <= 1e-12


# ----------------------------- commutation -------------------------------------

@pytest.mark.parametrize("dims", [(4, 4, 3), (5, 6, 4), (16, 16, 8), (32, 32, 16)])
def test_commutation_residuals(dims, complex_cache):
    cx = complex_cache(dims=dims)
    residuals = cx.commutation_residuals()
    assert len(residuals) == 7
    assert max(residuals.values()) <= 1e-12


# SHA-256 of the exported triplet files: a change to any entry, to the
# entry order or to the number formatting shows here.
PINNED_DIGESTS = {
    ((2, 2, 2), (5, 6, 4)): {
        "D0": "b0c7388a389310eb27bb90649416963eeb600871c88380cbc5b402fd612425d4",
        "D1": "01daa2e88962270d25205fa3ea3af7a43526dadfd88df61583c225ebfd08c346",
        "D2": "30b90607f891679efd86254581ee062c8fd6c03ca84887486c0b5ae51dfde1f0",
        "E100": "e544f61c77222e535f780c0583e1ea33a3cba76d8a80cac3b63fd9ab38c48fd3",
        "E010": "aceb9cd338d1bde74d704ce37e9e4cd1d22b5e45f4d870d7a9ff631ce7763391",
        "E101": "244bfcbdd0007ddc9839998eca3185ebf4698ccf3716a02fc8d22088fe510848",
    },
    ((3, 3, 3), (7, 7, 5)): {
        "D0": "148643184f5d0e7400ecafb34264fb25fa47c58c407cd8844c0f57d4a01317a7",
        "D1": "501483809dc820a00ad341498850f95df2e56f4712e5489fbe103cb18ea43875",
        "D2": "412180e5a260f4f8e8a8d41a3c15a89d26378c5c9dd50360fdf6c89e7888166a",
        "E100": "44872cde9790e1cb8ea3ed6b7934bbbe437f8d0d0e0a35ee36d53cd554d949aa",
        "E010": "8fd6166b437b29693d9c81f92391eace6788d67ffe5093affd1cb698b8b80500",
        "E101": "dec0ea055ab7cee8093f35cc76a1e9f94e33fd9c3bd3ef088f63ac29751dc556",
    },
}


@pytest.mark.parametrize("degrees,dims", list(PINNED_DIGESTS))
def test_exported_bytes_pinned(degrees, dims, complex_cache, tmp_path):
    mats = complex_cache(degrees=degrees, dims=dims).named_matrices()
    for name, digest in PINNED_DIGESTS[(degrees, dims)].items():
        path = tmp_path / f"{name}.txt"
        write_triplet(path, mats[name])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


def test_commutation_negative_control():
    spec = pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(4, 4, 3))
    cx = pd.build_complex(spec, ebar_perturbation=1e-3)
    assert max(cx.commutation_residuals().values()) > 1e-4


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (5, 6, 4))])
def test_perturbation_breaks_only_center_identities(degrees, dims):
    # the shifted center-block entry feeds the in-joint edges (grad_r,
    # grad_s) and their faces (curl_1, curl_2); the toroidal identities
    # (grad_t, curl_3) and the volume selector (div) do not see it
    spec = pd.TorusComplexSpec(degrees=degrees, dims=dims)
    residuals = pd.build_complex(spec, ebar_perturbation=1e-3).commutation_residuals()
    assert list(residuals) == ["grad_r", "grad_s", "grad_t", "curl_1", "curl_2", "curl_3", "div"]
    for name in ("grad_r", "grad_s", "curl_1", "curl_2"):
        assert residuals[name] > 1e-4, name
    for name in ("grad_t", "curl_3", "div"):
        assert residuals[name] <= 1e-12, name


# ------------------------------ cohomology -------------------------------------

@pytest.mark.parametrize("dims", [(4, 4, 3), (6, 5, 5)])
def test_cohomology_dimensions(dims, complex_cache):
    cx = complex_cache(dims=dims)
    rep = cx.cohomology()
    assert rep.dims == (1, 1, 0, 0)
    assert rep.euler_ok
    assert all(g >= 1e6 for g in rep.gap_ratios)
    assert not rep.warnings


def test_euler_identity(complex_cache):
    cx = complex_cache(dims=(5, 5, 4))
    rep = cx.cohomology()
    h = rep.dims
    c = cx.counts
    assert h[0] - h[1] + h[2] - h[3] == c.n0 - c.n1 + c.n2 - c.n3 == 0


def test_harmonic_representative(cx443):
    rep = cx443.cohomology(harmonic=True)
    v = rep.harmonic_one_form
    assert v is not None
    assert np.abs(cx443.incidence.D1 @ v).max() <= 1e-10
    # orthogonal to the image of D0
    proj = cx443.incidence.D0.toarray().T @ v
    assert np.abs(proj).max() <= 1e-10


# ------------------- toroidal Fourier blocks vs dense SVD -----------------------

@pytest.mark.parametrize("dims", [(4, 4, 3), (5, 6, 4), (7, 7, 5)])
@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
def test_fourier_spectrum_matches_dense(dims, perturbation):
    spec = pd.TorusComplexSpec(degrees=(3, 3, 3), dims=dims)
    inc = pd.build_complex(spec, ebar_perturbation=perturbation).incidence
    nt = inc.counts.nt
    rep = pd.cohomology_dimensions(inc, harmonic=False)
    for index, name in enumerate(("D0", "D1", "D2")):
        matrix = getattr(inc, name)
        _, svals, _ = toroidal_spectrum(matrix, nt, name)
        assert len(svals) == nt // 2 + 1
        union = np.sort(np.concatenate([
            np.tile(s, 1 if 2 * k % nt == 0 else 2) for k, s in enumerate(svals)
        ]))[::-1]
        dense = np.linalg.svd(matrix.toarray(), compute_uv=False)
        assert union.shape == dense.shape
        assert np.abs(union - dense).max() <= 1e-12 * dense[0], name
        assert rep.ranks[index] == rank_with_gap(matrix)[0], name
    assert sum(f.multiplicity for f in rep.frequencies) == nt
    assert tuple(sum(f.multiplicity * np.array(f.ranks) for f in rep.frequencies)) == rep.ranks


def test_kunneth_frequency_zero_carries_cohomology(complex_cache):
    rep = complex_cache(dims=(5, 6, 4)).cohomology(harmonic=False)
    assert rep.kunneth_ok
    assert rep.frequencies[0].dims == (1, 1, 0, 0)
    assert all(f.dims == (0, 0, 0, 0) for f in rep.frequencies[1:])


def test_harmonic_representative_is_constant_over_joints(complex_cache):
    cx = complex_cache(dims=(5, 6, 4))
    v = cx.cohomology().harmonic_one_form
    c = cx.counts
    per_joint = v.reshape(c.nt, -1)
    npt.assert_allclose(per_joint, per_joint[:1].repeat(c.nt, axis=0), atol=0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(cx.incidence.D1 @ v).max() <= 1e-10
    assert np.abs(cx.incidence.D0.T @ v).max() <= 1e-10


# -------------------------- structure tampering --------------------------------

def test_structure_check_rejects_one_changed_value(cx443):
    # one D1 value changed in joint 1, the sparsity pattern kept
    d1 = cx443.incidence.D1.copy()
    d1.data[d1.indptr[d1.shape[0] // cx443.counts.nt + 3]] *= 1.5
    bad = PolarComplex(cx443.spec, cx443.tensor, cx443.extraction,
                       dataclasses.replace(cx443.incidence, D1=d1),
                       cx443.polar_map, cx443.geometry_map)
    with pytest.raises(StructureError, match=r"D1 .* joint 1 differ"):
        bad.cohomology()
    report = run_verification(bad)
    assert not report.passed
    suite = report.suites["cohomology"]
    assert not suite["pass"] and "D1" in suite["structure_violation"]
    assert any(f.startswith("cohomology: D1") for f in report.failures)


@pytest.mark.parametrize("drop,suite", [("D1:5", "cohomology"), ("E100:1", "dta")])
def test_drop_row_fails_structure_check(drop, suite, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--sizes", "4,4,3", "--drop-row", drop, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    name = drop.split(":")[0]
    assert not report["suites"][suite]["pass"]
    assert any(f.startswith(f"{suite}: {name} is not") for f in report["failures"])


# ------------------------- divergence preimage ---------------------------------

class TestDivergencePreimage:
    def test_zero_input(self, inc443):
        h = pd.divergence_preimage(inc443.counts, np.zeros(inc443.counts.n3))
        npt.assert_array_equal(h, 0.0)

    def test_random_inputs(self, inc443):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.standard_normal(inc443.counts.n3)
            h = pd.divergence_preimage(inc443.counts, m)
            resid = np.abs(inc443.D2 @ h - m).max()
            assert resid <= 1e-12 * np.abs(m).max()

    def test_beta_parameter(self, inc443):
        c = inc443.counts
        m = np.zeros(c.n3)
        h = pd.divergence_preimage(c, m, beta=2.5)
        # joint faces carry beta, side faces stay zero
        joint = [ell + (k - 1) * (c.nbar2 + c.nbar1)
                 for k in range(1, c.nt + 1) for ell in range(1, c.nbar2 + 1)]
        mask = np.zeros(c.n2, dtype=bool)
        mask[np.array(joint) - 1] = True
        npt.assert_array_equal(h[mask], 2.5)
        npt.assert_array_equal(h[~mask], 0.0)
        assert np.abs(inc443.D2 @ h).max() <= 1e-12

    def test_unit_vector_support(self, inc443):
        c = inc443.counts
        m = np.zeros(c.n3)
        m[0] = 1.0
        h = pd.divergence_preimage(c, m)
        support = np.nonzero(np.abs(h) > 1e-14)[0] + 1
        side_k1 = set(range(c.nbar2 + 1, c.nbar2 + c.nbar1 + 1))
        assert set(support) <= side_k1

    @pytest.mark.parametrize("dims", [(16, 16, 8), (32, 32, 16)])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_larger_complexes(self, dims, beta, complex_cache):
        inc = complex_cache(dims=dims).incidence
        c = inc.counts
        m = np.random.default_rng(18).standard_normal(c.n3)
        h = pd.divergence_preimage(c, m, beta=beta)
        assert np.abs(inc.D2 @ h - m).max() <= 1e-12 * np.abs(m).max()
        npt.assert_array_equal(h.reshape(c.nt, -1)[:, :c.nbar2], beta)

    def test_length_check(self, inc443):
        with pytest.raises(ValueError, match="volume"):
            pd.divergence_preimage(inc443.counts, np.zeros(3))


def test_max_abs_empty():
    from scipy import sparse

    assert max_abs(sparse.csr_array((3, 3))) == 0.0
