"""The seven commutation identities on one joint: equal to the 3D oracle's
residuals, certified once per verification, and failing on a matrix that
is not its lift."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

import polar_derham as pd
from oracles import commutation_residuals_3d
from polar_derham import incidence, tensor
from polar_derham.bsplines import difference_triplet, triplet
from polar_derham.extraction import ExtractionSet, lift_table
from polar_derham.incidence import certify
from polar_derham.tensor import LiftTable, StructureError, derivative_entries
from polar_derham.verification import inject_row_drop, run_verification

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ORACLE_CASES = [
    ((2, 2, 2), (4, 4, 3), 0.0), ((2, 2, 2), (5, 6, 4), 0.0), ((3, 3, 3), (7, 7, 5), 0.0),
    ((2, 2, 2), (8, 8, 6), 0.0), ((4, 4, 4), (9, 9, 7), 0.0), ((5, 5, 5), (11, 11, 9), 0.0),
    ((3, 2, 4), (13, 7, 6), 0.0), ((2, 2, 2), (16, 16, 8), 0.0), ((2, 2, 2), (32, 32, 16), 0.0),
    ((2, 2, 2), (48, 48, 24), 0.0),
    ((2, 2, 2), (4, 4, 3), 1e-3), ((2, 2, 2), (8, 8, 6), 1e-3), ((3, 3, 3), (5, 6, 4), 1e-3),
]


def _assert_equals_the_oracle(cx):
    residuals = cx.commutation_residuals()
    expected = commutation_residuals_3d(cx.tensor, cx.extraction, cx.incidence)
    assert list(residuals) == list(expected)
    # exactly: the circle's terms cancel entry by entry in the 3D products
    assert residuals == expected


@pytest.mark.parametrize("degrees,dims,perturbation", ORACLE_CASES)
def test_one_joint_residuals_equal_the_3d_oracle(degrees, dims, perturbation):
    spec = pd.TorusComplexSpec(degrees=degrees, dims=dims)
    _assert_equals_the_oracle(pd.build_complex(spec, ebar_perturbation=perturbation))


@settings(max_examples=25, deadline=None)
@given(degrees=st.tuples(*[st.integers(2, 5)] * 3), data=st.data(),
       perturbation=st.sampled_from([0.0, 1e-3]))
def test_one_joint_residuals_equal_the_3d_oracle_on_random_complexes(degrees, data,
                                                                     perturbation):
    # from the size floors of the degrees up to (12, 12, 8)
    floors = (max(3, degrees[0] - 1), max(4, degrees[1] + 1), max(3, degrees[2] - 1))
    dims = tuple(data.draw(st.integers(lo, hi), label="dims")
                 for lo, hi in zip(floors, (12, 12, 8)))
    spec = pd.TorusComplexSpec(degrees=degrees, dims=dims)
    _assert_equals_the_oracle(pd.build_complex(spec, ebar_perturbation=perturbation))


# ------------------------- matrices that are not lifts ---------------------------

@pytest.mark.parametrize("dims,name,row", [((4, 4, 3), "E100", 1), ((4, 4, 3), "D1", 5),
                                           ((8, 8, 6), "D2", 3)])
def test_a_matrix_that_is_not_its_lift_fails_commutation_naming_it(complex_cache, dims,
                                                                   name, row):
    bad = inject_row_drop(complex_cache(dims=dims), name, row)
    with pytest.raises(StructureError, match=f"^{name} "):
        bad.commutation_residuals()
    report = run_verification(bad)
    suite = report.suites["commutation"]
    assert not report.passed and not suite["pass"]
    assert suite["structure_violation"].startswith(f"{name} ")
    assert "residuals" not in suite


# ----------------------------- the one-joint lift ---------------------------------

def test_the_periodic_stencil_of_one_joint_is_empty():
    rows, cols, vals = difference_triplet(1, True)
    assert rows.size == cols.size == vals.size == 0
    assert pd.difference_matrix(1, periodic=True).shape == (1, 1)
    assert pd.difference_matrix(1, periodic=True).nnz == 0
    with pytest.raises(ValueError):
        difference_triplet(0, True)


@pytest.mark.parametrize("dims", [(4, 4, 3), (5, 6, 4)])
def test_the_lift_of_one_joint_keeps_the_identity_terms_and_drops_dt(complex_cache, dims):
    cx = complex_cache(dims=dims)
    c = cx.counts
    one = lift_table(replace(c, nt=1, **{f"n{l}": c.level_dim(l) // c.nt for l in range(4)}))
    blocks, violations = certify(cx.extraction, cx.incidence)
    assert not violations
    mats = one.lift({label: triplet(b) for label, b in blocks.items()}, one.terms)
    for name in ExtractionSet.names():
        # one term, +/-I (x) block: on one joint the block itself, at its place
        shape, [((_, _, sign), label, row0, col0)] = one.terms[name]
        m, k = blocks[label].shape
        expected = sparse.lil_array(shape)
        expected[row0:row0 + m, col0:col0 + k] = sign[0] * blocks[label].toarray()
        assert (mats[name] != expected.tocsr()).nnz == 0, name
    d0, d1 = blocks["d0"], blocks["d1"]
    expected = {
        "D0": sparse.vstack([d0, sparse.csr_array((c.nbar0, c.nbar0))]),
        "D1": sparse.block_diag([d1, d0]),
        "D2": sparse.hstack([sparse.csr_array((c.nbar2, c.nbar2)), d1]),
    }
    for name, matrix in expected.items():
        assert mats[name].shape == matrix.shape, name
        assert (mats[name] != matrix.tocsr()).nnz == 0, name
        # on the nt joints the Dt terms are there: more entries than nt copies
        assert getattr(cx.incidence, name).nnz > c.nt * matrix.nnz, name


# ------------------------------- one certification --------------------------------

def test_verification_certifies_once_and_builds_no_3d_tensor_operator(complex_cache,
                                                                     monkeypatch):
    cx = complex_cache(dims=(5, 6, 4))
    reads, levels, joint_dims = [], [], []
    read, columns = LiftTable.read, ExtractionSet.columns

    def counted_read(table, matrices):
        reads.append(list(matrices))
        return read(table, matrices)

    def counted_columns(extraction, level):
        levels.append(level)
        return columns(extraction, level)

    def one_joint_entries(dims, sources, targets):
        # the tensor rule on the counts of one joint only: no 3D operator
        if dims[2] != 1:
            raise AssertionError(f"derivative entries built on {dims}")
        joint_dims.append(tuple(dims))
        return derivative_entries(dims, sources, targets)

    monkeypatch.setattr(LiftTable, "read", counted_read)
    monkeypatch.setattr(ExtractionSet, "columns", counted_columns)
    for module in (incidence, tensor):
        monkeypatch.setattr(module, "derivative_entries", one_joint_entries)
    report = run_verification(cx)
    assert report.passed, report.failures
    # the E's of a built complex are their blocks: only the D's are read
    assert reads == [["D0", "D1", "D2"]]
    assert levels == []
    assert set(joint_dims) == {(5, 6, 1)}
    assert np.isfinite(report.timings["certify"])


def test_certify_allocates_a_fraction_of_the_matrices_it_reads(complex_cache):
    # each joint is checked against its lift's joint-0 block row in place;
    # a second copy of the lifts would peak near the matrices' own size
    cx = complex_cache(dims=(32, 32, 16))
    names = [*cx.extraction.names(), "D0", "D1", "D2"]
    matrices = [getattr(cx.incidence if name[0] == "D" else cx.extraction, name) for name in names]
    size = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in matrices)
    tracemalloc.start()
    try:
        blocks, violations = certify(cx.extraction, cx.incidence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not violations
    assert peak < size / 4, (peak, size)
