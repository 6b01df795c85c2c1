import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

import polar_derham as pd
from oracles import (disk_block_pairs, echelon_ranks_3d, frequency_ranks, level_operator,
                     rank_with_gap, toroidal_spectrum)
from polar_derham import cli, incidence, tensor
from polar_derham.cli import main
from polar_derham.incidence import _disk_blocks, disk_blocks, kunneth_spectrum, max_abs
from polar_derham.iotools import write_triplet
from polar_derham.tensor import (LEVEL_PATTERNS, StructureError, check_size_floors,
                                 derivative_entries, dims_of_distinct_knots)
from polar_derham.torus import PolarComplex
from polar_derham.verification import inject_row_drop, run_verification


@pytest.fixture(scope="module")
def inc443():
    return pd.build_incidence(pd.assemble_3d(4, 4, 3))


GRID = [(4, 4, 3), (5, 5, 4), (6, 4, 5), (5, 8, 3)]


def weighted_rows(counts, name):
    """The rows of D0, D1 or D2 that carry center-block weights rather than
    pure +/-1, from the per-joint layout of the module docstring: d0's
    first radial edge round (edges 2 .. nr + 1) and d1's innermost faces
    (faces 0 .. nr - 1), at their offsets in each joint's block of rows."""
    c, ring = counts, np.arange(counts.nr)
    stride, rows = {
        "D0": (c.nbar1 + c.nbar0, [2 + ring]),
        "D1": (c.nbar2 + c.nbar1, [ring, c.nbar2 + 2 + ring]),
        "D2": (c.nbar2, [ring]),
    }[name]
    joints = np.arange(c.nt)[:, None] * stride
    return set((joints + np.concatenate(rows)).ravel().tolist())


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
        weighted = weighted_rows(inc443.counts, "D0")
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
        weighted = weighted_rows(inc443.counts, "D1")
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
        weighted = weighted_rows(inc443.counts, "D2")
        for r, row in enumerate(dense):
            nnz = np.count_nonzero(np.abs(row) > 1e-14)
            if r in weighted:
                assert 6 <= nnz <= 8
            else:
                assert nnz == 6


# ------------------- disk blocks from the commuting diagram ----------------------

@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
@pytest.mark.parametrize("nr,ns", [(3, 4), (4, 4), (5, 6), (7, 7), (8, 8), (16, 16), (32, 32)])
def test_derived_disk_blocks_equal_the_transcription(nr, ns, perturbation):
    for derived, transcribed in disk_block_pairs(nr, ns, perturbation):
        assert derived[0] == transcribed[0]
        assert all(map(np.array_equal, derived[1:], transcribed[1:]))


def _joint0(tc, level, patterns):
    """The indices, among level `level`'s coefficients, of joint 0 of the
    components `patterns`."""
    pats = LEVEL_PATTERNS[level]
    start = np.cumsum([0] + [tc.component_dim(p) for p in pats])
    return np.concatenate([start[pats.index(p)] + np.arange(tc.nr * (tc.ns - p[1]))
                           for p in patterns])


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (7, 7, 5)),
                                          ((2, 2, 2), (16, 16, 8))])
def test_disk_derivatives_are_joint_0_of_the_level_operators(degrees, dims):
    # the disk's grad and curl, the tensor rule on the counts (nr, ns, 1) and
    # the components without a toroidal derivative, are the r/s blocks of the
    # tensor level operators between those components' joint-0 coefficients
    tc = pd.build_tensor_sequence(degrees, dims)
    for level in (0, 1):
        disk = [tuple(p for p in LEVEL_PATTERNS[lv] if not p[2]) for lv in (level, level + 1)]
        (rows, cols, vals), shape = derivative_entries((tc.nr, tc.ns, 1), *disk)
        got = sparse.coo_array((vals, (rows, cols)), shape=shape).tocsr()
        band = level_operator(tc, level)[_joint0(tc, level + 1, disk[1])]
        expected = band[:, _joint0(tc, level, disk[0])]
        # the joint-0 rows reach no other coefficient
        assert expected.nnz == band.nnz
        expected.sort_indices()
        assert got.dtype == expected.dtype == np.float64
        for arr in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(got, arr), getattr(expected, arr), err_msg=arr)


def _scale_row(rows, cols, vals, row):
    vals = vals.astype(float)
    vals[rows == row] = 2.0
    return rows, cols, vals


def _share_column(rows, cols, vals, row):
    cols = cols.copy()
    cols[rows == row + 1] = cols[rows == row]
    return rows, cols, vals


@pytest.mark.parametrize("block,row,tamper,name", [
    (3, 7, _scale_row, "e2"),       # a face whose selector entry is 2
    (2, 4, _share_column, "e1"),    # two radial edges on one tensor function
])
def test_a_row_without_unit_function_raises(block, row, tamper, name):
    extraction = pd.assemble_3d(4, 4, 3)
    blocks = list(extraction.joint_blocks)
    blocks[block] = tamper(*blocks[block], row)
    with pytest.raises(StructureError, match=f"^{name} row {row} owns no unit tensor function"):
        _disk_blocks(extraction.counts, *blocks)


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
    assert all(g >= 1e6 for g in rep.gap_ratios)
    assert not rep.warnings


def test_euler_identity(complex_cache):
    cx = complex_cache(dims=(5, 5, 4))
    rep = cx.cohomology()
    h = rep.dims
    c = cx.counts
    assert h[0] - h[1] + h[2] - h[3] == c.n0 - c.n1 + c.n2 - c.n3 == 0


# the benchmark's verify cases but the --drop-row one, whose D1 is no lift
# (its cohomology fails with a structure violation), and the perturbed
# center block at (8,8,6)
RANK_CASES = [((2, 2, 2), (4, 4, 3), 0.0), ((2, 2, 2), (5, 6, 4), 0.0),
              ((2, 2, 2), (7, 7, 5), 0.0), ((3, 3, 3), (7, 7, 5), 0.0),
              ((2, 2, 2), (8, 8, 6), 0.0), ((2, 2, 2), (4, 4, 3), 1e-3),
              ((2, 2, 2), (8, 8, 6), 1e-3)]


@pytest.mark.parametrize("degrees,dims,perturbation", RANK_CASES)
def test_disk_rank_counts_equal_the_3d_echelon_oracle(degrees, dims, perturbation):
    cx = pd.build_complex(pd.TorusComplexSpec(degrees, dims), ebar_perturbation=perturbation)
    assert cx.cohomology().ranks == echelon_ranks_3d(cx.incidence)


def test_cohomology_lifts_no_matrix_and_keeps_little(monkeypatch):
    # the ranks, the gates and the thresholds come from the counts and the
    # disk blocks; lifting and keeping D0 to D2 kept 5.3 MB here
    cx = pd.build_complex(pd.TorusComplexSpec((2, 2, 2), (32, 32, 16)))
    lifted, lift = [], tensor.kron_lift
    monkeypatch.setattr(tensor, "kron_lift", lambda *args: lifted.append(args[1]) or lift(*args))
    tracemalloc.start()
    try:
        rep = cx.cohomology()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.dims == (1, 1, 0, 0) and lifted == []
    assert kept < 1e6, kept


@pytest.mark.parametrize("dims", [(4, 4, 3), (8, 8, 6), (32, 32, 16)])
@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
def test_complex_property_is_the_3d_residuals_bit_for_bit(dims, perturbation):
    cx = pd.build_complex(pd.TorusComplexSpec((2, 2, 2), dims), ebar_perturbation=perturbation)
    suite = run_verification(cx).suites["complex_property"]
    inc = cx.incidence
    assert suite["d1_d0"] == max_abs(inc.D1 @ inc.D0)
    assert suite["d2_d1"] == max_abs(inc.D2 @ inc.D1)
    assert suite["pass"] is (perturbation == 0.0)


@pytest.mark.parametrize("name", ["D0", "D1", "D2"])
def test_a_dropped_d_row_fails_the_complex_property_as_a_structure_violation(cx443, name):
    suite = run_verification(inject_row_drop(cx443, name, 5)).suites["complex_property"]
    assert not suite["pass"] and "d1_d0" not in suite
    assert suite["structure_violation"].startswith(f"{name} is not")


def test_harmonic_representative(cx443):
    rep = cx443.cohomology()
    v = rep.harmonic_one_form
    assert v is not None
    assert np.abs(cx443.incidence.D1 @ v).max() <= 1e-10
    # orthogonal to the image of D0
    proj = cx443.incidence.D0.toarray().T @ v
    assert np.abs(proj).max() <= 1e-10


def test_certified_rank_bounds_meet_across_degrees():
    # every degree in {2..5}^3, at its size floor and one past it in each
    # direction: the echelon rows meet the upper bounds of the lift
    for degrees in itertools.product(range(2, 6), repeat=3):
        floor = np.maximum((3, 4, 3), dims_of_distinct_knots(degrees, (2, 2, 2)))
        check_size_floors(degrees, floor)
        for axis in range(3):
            with pytest.raises(ValueError, match="size floors"):
                check_size_floors(degrees, floor - np.eye(3, dtype=int)[axis])
        for dims in (floor, floor + 1):
            cx = pd.build_complex(pd.TorusComplexSpec(degrees=degrees, dims=tuple(dims)))
            c, rep = cx.counts, cx.cohomology()
            assert rep.rank_method == "certificate" and not rep.failures, (degrees, dims)
            assert rep.ranks == (c.n0 - 1, c.nt * c.nbar1, c.n3), (degrees, dims)


# ------------------- toroidal Fourier blocks vs dense SVD -----------------------

@pytest.mark.parametrize("dims", [(4, 4, 3), (5, 6, 4), (7, 7, 5)])
@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
def test_fourier_spectrum_matches_dense(dims, perturbation):
    spec = pd.TorusComplexSpec(degrees=(3, 3, 3), dims=dims)
    inc = pd.build_complex(spec, ebar_perturbation=perturbation).incidence
    nt = inc.counts.nt
    rep = pd.cohomology_dimensions(inc.counts, disk_blocks(inc))
    spectra = toroidal_spectrum(inc.counts, *disk_blocks(inc))
    multiplicity = [1 if 2 * k % nt == 0 else 2 for k in range(nt // 2 + 1)]
    for index, (name, ranks) in enumerate(frequency_ranks(inc, spectra).items()):
        matrix = getattr(inc, name)
        svals = spectra[name]
        assert len(svals) == nt // 2 + 1
        union = np.sort(np.concatenate([np.tile(s, m) for s, m in zip(svals, multiplicity)]))[::-1]
        dense = np.linalg.svd(matrix.toarray(), compute_uv=False)
        assert union.shape == dense.shape
        assert np.abs(union - dense).max() <= 1e-12 * dense[0], name
        dense_rank = rank_with_gap(matrix)[0]
        # the frequency ranks add up to the rank of the whole matrix
        assert sum(m * r for m, r in zip(multiplicity, ranks)) == dense_rank, name
        # the certified ranks are exact on a complex, lower bounds off it
        if perturbation:
            assert rep.ranks[index] <= dense_rank, name
        else:
            assert rep.ranks[index] == dense_rank, name


@pytest.mark.parametrize("dims", [(4, 4, 3), (5, 6, 4), (7, 7, 5)])
@pytest.mark.parametrize("degree", [2, 3])
def test_kunneth_closed_form_matches_fourier_blocks(dims, degree):
    # the closed form from the two disk SVDs reproduces every frequency
    # block's singular values, and its ranks are the dense ranks
    inc = pd.build_complex(pd.TorusComplexSpec(degrees=(degree,) * 3, dims=dims)).incidence
    rep = pd.cohomology_dimensions(inc.counts, disk_blocks(inc))
    assert rep.method == "kunneth"
    d0, d1 = disk_blocks(inc)
    s0, s1 = (np.linalg.svd(d.toarray(), compute_uv=False) for d in (d0, d1))
    spectra = toroidal_spectrum(inc.counts, d0, d1)
    for index, (name, svals) in enumerate(kunneth_spectrum(inc.counts, s0, s1).items()):
        matrix = getattr(inc, name)
        fourier = spectra[name]
        scale = max(float(s[0]) for s in fourier)
        assert len(svals) == len(fourier)
        for k, (closed, block) in enumerate(zip(svals, fourier)):
            assert closed.shape == block.shape, (name, k)
            assert np.abs(closed - block).max() <= 1e-12 * scale, (name, k)
        assert rep.ranks[index] == rank_with_gap(matrix)[0], name


def test_perturbed_center_is_not_a_complex():
    # a shifted center weight breaks d1 d0 = 0, so the closed form does not
    # hold; the cohomology suite fails without deciding any singular value,
    # and the report says so
    spec = pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(4, 4, 3))
    bad = run_verification(pd.build_complex(spec, ebar_perturbation=1e-3))
    suite = bad.suites["cohomology"]
    assert suite["method"] == "not-a-complex"
    assert not bad.passed
    # the certified lower bounds are reported; nothing rests on singular values
    assert (suite["rank_method"], suite["ranks"], suite["dims"]) == ("lower-bound", [32, 54, 24], None)
    assert suite["gap_ratios"] == suite["sv_bracket"] == []
    message = next(f for f in bad.failures if f.startswith("cohomology: "))
    assert re.match(r"cohomology: \(d0, d1\) is not a complex: max\|d1 d0\| = 1\.000e-03 > "
                    r"bound \d\.\d{3}e-\d\d", message)
    # the constants leave ker d0 and D2 D1 no longer vanishes, so neither
    # the D0 nor the D1 upper bound of a complex holds
    c = pd.build_complex(spec).counts
    assert message.split("; ")[1:3] == [
        f"D0 rank not certified: 32 echelon rows, upper bound {c.n0}",
        f"D1 rank not certified: 54 echelon rows, upper bound {c.n2}"]
    assert run_verification(pd.build_complex(spec)).suites["cohomology"]["method"] == "kunneth"


def _tamper(cx, name, offset, row, col, amount=0.5, incidence=None):
    """Add `amount` to the entry at joint-block (row, col) of block column
    j + offset in every joint j, so the matrix stays block-circulant."""
    incidence = cx.incidence if incidence is None else incidence
    matrix = getattr(incidence, name).tolil(copy=True)
    nt = cx.counts.nt
    m, k = matrix.shape[0] // nt, matrix.shape[1] // nt
    for j in range(nt):
        matrix[j * m + row, (j + offset) % nt * k + col] += amount
    incidence = dataclasses.replace(
        incidence, overrides={**incidence.overrides, name: matrix.tocsr()})
    return PolarComplex(cx.spec, cx.tensor, cx.extraction, incidence,
                        cx.polar_map, cx.geometry_map)


@pytest.mark.parametrize("case", ["D1 copy of d0", "D2 copy of d1", "D0 identity", "D0 outside"])
def test_lift_check_names_the_block_that_differs(case, cx443, tmp_path, monkeypatch):
    c = cx443.counts
    d0, d1 = disk_blocks(cx443.incidence)
    name, offset, row, col, pattern = {
        # one entry of D1's copy of d0 differs from D0's
        "D1 copy of d0": ("D1", 0, c.nbar2 + d0.tocoo().row[0], c.nbar1 + d0.tocoo().col[0],
                          r"its offset-0 d0 block \(rows 8:26, cols 18:29\) differs from D0's d0"),
        "D2 copy of d1": ("D2", 0, d1.tocoo().row[0], c.nbar2 + d1.tocoo().col[0],
                          r"its offset-0 d1 block \(rows 0:8, cols 8:26\) differs from D1's d1"),
        "D0 identity": ("D0", 1, c.nbar1, 0, r"its offset-1 identity block \(rows 18:29, "
                                             r"cols 0:11\) differs from \+1 times the identity"),
        # an entry coupling joint j to joint j + 2, where the lift has none
        "D0 outside": ("D0", 2, 0, 0, "joint 0 has entries outside the blocks of the lift"),
    }[case]
    bad = _tamper(cx443, name, offset, row, col)
    with pytest.raises(StructureError, match=rf"^{name} is not the circle lift of one pair "
                                             rf"\(d0, d1\): {pattern}$"):
        bad.cohomology()
    monkeypatch.setattr(cli, "build_complex", lambda spec, ebar_perturbation=0.0: bad)
    out = tmp_path / "report.json"
    assert main(["verify", "--sizes", "4,4,3", "--out", str(out)]) == 1
    suite = json.loads(out.read_text())["suites"]["cohomology"]
    assert not suite["pass"]
    assert suite["structure_violation"].startswith(f"{name} is not the circle lift")


def test_loose_tol_does_not_admit_the_closed_form(cx443, tmp_path, monkeypatch):
    # one d1 entry moved by 1e-6 in both D1 and D2 keeps the lift and the
    # constants in ker d0, but d1 d0 no longer vanishes; a loose --tol
    # passes the complex property, yet the closed form must not decide
    c = cx443.counts
    row, col = (int(i[0]) for i in cx443.incidence.D1[:c.nbar2, :c.nbar1].nonzero())
    once = _tamper(cx443, "D1", 0, row, col, amount=1e-6)
    bad = _tamper(cx443, "D2", 0, row, c.nbar2 + col, amount=1e-6, incidence=once.incidence)
    d0, d1 = disk_blocks(bad.incidence)
    assert 1e-7 < max_abs(d1 @ d0) <= 1e-5
    assert bad.cohomology().method == "not-a-complex"
    monkeypatch.setattr(cli, "build_complex", lambda spec, ebar_perturbation=0.0: bad)
    out = tmp_path / "report.json"
    assert main(["verify", "--sizes", "4,4,3", "--tol", "1e-5", "--out", str(out)]) == 1
    suites = json.loads(out.read_text())["suites"]
    assert suites["complex_property"]["pass"]
    assert suites["cohomology"]["method"] == "not-a-complex"
    assert not suites["cohomology"]["pass"]


@pytest.mark.parametrize("dims", [(4, 4, 3), (8, 8, 6)])
def test_certificate_catches_a_zeroed_d1_row(dims, complex_cache):
    # one d1 row zeroed in D1 and in D2's copy, in every joint: the lift,
    # the complex property and the d1 d0 gate all still hold, but D1 and D2
    # lose rank at frequency 0, and neither certificate meets its upper bound
    cx = complex_cache(dims=dims)
    c = cx.counts
    d1 = disk_blocks(cx.incidence)[1]
    row = c.nbar2 // 2
    bad = cx
    for col, value in zip(*(a[d1.indptr[row]:d1.indptr[row + 1]] for a in (d1.indices, d1.data))):
        bad = _tamper(bad, "D1", 0, row, col, amount=-value)
        bad = _tamper(bad, "D2", 0, row, c.nbar2 + col, amount=-value, incidence=bad.incidence)
    assert not disk_blocks(bad.incidence)[1][[row]].count_nonzero()
    rep = bad.cohomology()
    assert rep.method == "kunneth" and rep.rank_method == "lower-bound" and rep.dims is None
    assert rep.ranks[1] < c.nt * c.nbar1 and rep.ranks[2] < c.n3
    assert rep.failures == [
        f"D1 rank not certified: {rep.ranks[1]} echelon rows, upper bound {c.n2 - rep.ranks[2]}",
        f"D2 rank not certified: {rep.ranks[2]} echelon rows, upper bound {c.n3}"]
    report = run_verification(bad)
    assert report.suites["complex_property"]["pass"]
    assert not report.suites["cohomology"]["pass"]
    assert any(f.startswith(f"cohomology: {rep.failures[0]}") for f in report.failures)


def test_closed_form_rank_must_agree_with_the_certificate(cx443, monkeypatch):
    # a closed form that drops one singular value of D2 at frequency 0
    # decides rank n3 - 1 where the certificate says n3: the report fails
    # and names the matrix and both ranks
    def dropped(counts, s0, s1):
        spectra = kunneth_spectrum(counts, s0, s1)
        spectra["D2"][0][-1] = 0.0
        return spectra

    monkeypatch.setattr(incidence, "kunneth_spectrum", dropped)
    n3 = cx443.counts.n3
    rep = cx443.cohomology()
    assert (rep.rank_method, rep.ranks[2]) == ("certificate", n3)
    assert rep.failures == [f"D2: certified rank {n3}, Kunneth rank {n3 - 1}"]
    report = run_verification(cx443)
    assert not report.suites["cohomology"]["pass"]
    assert any(f.startswith(f"cohomology: {rep.failures[0]}") for f in report.failures)


def test_kunneth_spectrum_refuses_disk_ranks_above_nbar1(cx443):
    # every value counts at its block's threshold: rank d0 + rank d1 =
    # 2 nbar0 - 3 > nbar1, which no complex d1 d0 = 0 allows
    c = cx443.counts
    s0, s1 = np.ones(c.nbar0), np.ones(c.nbar2)
    assert c.nbar0 + c.nbar2 > c.nbar1
    assert kunneth_spectrum(c, s0, s1) is None


def test_disk_ranks_above_nbar1_fail_cohomology_as_not_a_complex(cx443, monkeypatch):
    monkeypatch.setattr(incidence, "kunneth_spectrum", lambda counts, s0, s1: None)
    rep = cx443.cohomology()
    assert rep.method == "not-a-complex" and not rep.gap_ratios
    assert rep.failures == [
        "(d0, d1) is not a complex: rank d0 + rank d1 > nbar1 at the disk thresholds"]
    report = run_verification(cx443)
    assert not report.suites["cohomology"]["pass"]
    assert any(f.startswith(f"cohomology: {rep.failures[0]}") for f in report.failures)


def test_kunneth_frequency_zero_carries_cohomology(complex_cache):
    inc = complex_cache(dims=(5, 6, 4)).incidence
    c = inc.counts
    s0, s1 = (np.linalg.svd(d.toarray(), compute_uv=False) for d in disk_blocks(inc))
    # per frequency, ranks at the full matrix's threshold and the block
    # complex's cohomology, on the joint blocks' sizes
    k0, k1, k2 = frequency_ranks(inc, kunneth_spectrum(c, s0, s1)).values()
    dims = [(c.nbar0 - r0, c.nbar1 + c.nbar0 - r1 - r0, c.nbar2 + c.nbar1 - r2 - r1, c.nbar2 - r2)
            for r0, r1, r2 in zip(k0, k1, k2)]
    assert dims[0] == (1, 1, 0, 0)
    assert all(d == (0, 0, 0, 0) for d in dims[1:])


def _svd_harmonic_one_form(incidence):
    """The harmonic one-form from full SVDs of the disk blocks: the kernel
    of A_0(D1) = diag(d1, d0) orthogonal to the image of A_0(D0) = [d0; 0],
    tiled over the joints with unit norm."""
    c = incidence.counts
    d0, d1 = (d.toarray() for d in disk_blocks(incidence))
    (u_d0, _, vt_d0), (_, _, vt_d1) = np.linalg.svd(d0), np.linalg.svd(d1)
    rank_d0, rank_d1 = rank_with_gap(d0)[0], rank_with_gap(d1)[0]
    image = np.vstack([u_d0[:, :rank_d0], np.zeros((c.nbar0, rank_d0))])
    ker1, ker0 = vt_d1[rank_d1:].T, vt_d0[rank_d0:].T
    kernel = np.block([[ker1, np.zeros((c.nbar1, ker0.shape[1]))],
                       [np.zeros((c.nbar0, ker1.shape[1])), ker0]])
    u, svals, _ = np.linalg.svd(kernel - image @ (image.T @ kernel))
    assert svals[0] > 0
    return np.tile(u[:, 0], c.nt) / np.sqrt(c.nt)


@pytest.mark.parametrize("degree,dims", [(2, (4, 4, 3)), (2, (5, 6, 4)), (3, (5, 6, 4)),
                                         (2, (8, 8, 6)), (2, (16, 16, 8))],
                         ids=["4x4x3", "5x6x4", "5x6x4-p3", "8x8x6", "16x16x8"])
def test_harmonic_representative_is_constant_over_joints(degree, dims, complex_cache):
    cx = complex_cache(degrees=(degree,) * 3, dims=dims)
    v = cx.cohomology().harmonic_one_form
    c = cx.counts
    per_joint = v.reshape(c.nt, -1)
    npt.assert_allclose(per_joint, per_joint[:1].repeat(c.nt, axis=0), atol=0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(cx.incidence.D1 @ v).max() <= 1e-10
    assert np.abs(cx.incidence.D0.T @ v).max() <= 1e-10
    assert abs(v @ _svd_harmonic_one_form(cx.incidence)) == pytest.approx(1.0, abs=1e-12)


def test_perturbed_center_has_no_harmonic_representative():
    # the shifted center weight moves the constants out of ker d0
    spec = pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(4, 4, 3))
    assert pd.build_complex(spec, ebar_perturbation=1e-3).cohomology().harmonic_one_form is None


# -------------------------- structure tampering --------------------------------

def test_structure_check_rejects_one_changed_value(cx443):
    # one D1 value changed in joint 1, the sparsity pattern kept
    d1 = cx443.incidence.D1.copy()
    d1.data[d1.indptr[d1.shape[0] // cx443.counts.nt + 3]] *= 1.5
    bad = PolarComplex(cx443.spec, cx443.tensor, cx443.extraction,
                       dataclasses.replace(cx443.incidence, overrides={"D1": d1}),
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

    def test_unit_vector_support(self, inc443):
        c = inc443.counts
        m = np.zeros(c.n3)
        m[0] = 1.0
        h = pd.divergence_preimage(c, m)
        support = np.nonzero(np.abs(h) > 1e-14)[0] + 1
        side_k1 = set(range(c.nbar2 + 1, c.nbar2 + c.nbar1 + 1))
        assert set(support) <= side_k1

    @pytest.mark.parametrize("dims", [(16, 16, 8), (32, 32, 16)])
    def test_larger_complexes(self, dims, complex_cache):
        inc = complex_cache(dims=dims).incidence
        c = inc.counts
        m = np.random.default_rng(18).standard_normal(c.n3)
        h = pd.divergence_preimage(c, m)
        assert np.abs(inc.D2 @ h - m).max() <= 1e-12 * np.abs(m).max()
        npt.assert_array_equal(h.reshape(c.nt, -1)[:, :c.nbar2], 0.0)

    def test_length_check(self, inc443):
        with pytest.raises(ValueError, match="volume"):
            pd.divergence_preimage(inc443.counts, np.zeros(3))


def test_max_abs_empty():
    from scipy import sparse

    assert max_abs(sparse.csr_array((3, 3))) == 0.0
