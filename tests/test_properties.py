"""Property tests of the joint-structure checks, the toroidal spectrum and
the tensor apply over small random complexes, and of the echelon rank
certificate, the circle lift and the CSR constructor over small random
matrices."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

import polar_derham as pd
from oracles import (csr_reference, disk_block_pairs, echelon_ranks_3d, eval_local, find_span,
                     kron_lift_reference, level_operator, toroidal_spectrum, wrap)
from polar_derham.bsplines import csr_from_triplet, difference_triplet
from polar_derham.extraction import lift_table
from polar_derham.incidence import disk_blocks
from polar_derham.tensor import StructureError, echelon_rank, eye_triplet, kron_lift

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# degree, then (nr, ns, nt) from the size floors (3, 4, 3) up
_sizes = st.tuples(st.integers(2, 3), st.integers(3, 6), st.integers(4, 6), st.integers(3, 5))
_settings = settings(max_examples=30, deadline=None)


@_settings
@given(size=_sizes,
       name=st.sampled_from(["D0", "D1", "D2", "E100", "E010", "E001", "E011", "E101", "E110"]),
       data=st.data())
def test_one_changed_entry_in_any_joint_names_the_matrix(complex_cache, size, name, data):
    degree, *dims = size
    cx = complex_cache(degrees=(degree,) * 3, dims=dims)
    incidence = name.startswith("D")
    matrix = getattr(cx.incidence if incidence else cx.extraction, name).tolil(copy=True)
    nt = cx.counts.nt
    rows = matrix.shape[0] // nt
    joint = data.draw(st.integers(0, nt - 1), label="joint")
    row = joint * rows + data.draw(st.integers(0, rows - 1), label="local row")
    col = data.draw(st.integers(0, matrix.shape[1] - 1), label="col")
    matrix[row, col] += data.draw(st.sampled_from([0.5, -0.25, 2.0]), label="amount")
    with pytest.raises(StructureError) as err:
        if incidence:
            disk_blocks(dataclasses.replace(cx.incidence, overrides={name: matrix.tocsr()}))
        else:
            lift_table(cx.counts).read({n: getattr(cx.extraction, n) for n in cx.extraction.names()}
                                       | {name: matrix.tocsr()})
    # a change in a block read from joint 0 shows in the matrix that copies
    # it, and that matrix's message names the source: "differs from D0's d0"
    assert name in str(err.value)


@_settings
@given(degrees=st.tuples(*[st.integers(2, 5)] * 3), data=st.data(),
       perturbation=st.sampled_from([0.0, 1e-3]))
def test_disk_rank_counts_equal_the_3d_echelon_oracle_on_random_complexes(degrees, data,
                                                                          perturbation):
    # from the size floors of the degrees up to (12, 12, 8)
    floors = (max(3, degrees[0] - 1), max(4, degrees[1] + 1), max(3, degrees[2] - 1))
    dims = tuple(data.draw(st.integers(lo, hi), label="dims")
                 for lo, hi in zip(floors, (12, 12, 8)))
    cx = pd.build_complex(pd.TorusComplexSpec(degrees, dims), ebar_perturbation=perturbation)
    assert cx.cohomology().ranks == echelon_ranks_3d(cx.incidence)


@_settings
@given(size=_sizes, perturbation=st.sampled_from([0.0, 1e-3, 0.05]))
def test_fourier_union_matches_the_dense_spectrum(size, perturbation):
    degree, *dims = size
    spec = pd.TorusComplexSpec(degrees=(degree,) * 3, dims=dims)
    inc = pd.build_complex(spec, ebar_perturbation=perturbation).incidence
    nt = inc.counts.nt
    spectra = toroidal_spectrum(inc.counts, *disk_blocks(inc))
    for name, svals in spectra.items():
        assert len(svals) == nt // 2 + 1
        union = np.sort(np.concatenate(
            [np.tile(s, 1 if 2 * k % nt == 0 else 2) for k, s in enumerate(svals)]))[::-1]
        dense = np.linalg.svd(getattr(inc, name).toarray(), compute_uv=False)
        assert union.shape == dense.shape, name
        assert np.abs(union - dense).max() <= 1e-12 * dense[0], name


@_settings
@given(nr=st.integers(3, 40), ns=st.integers(4, 40), perturbation=st.floats(-0.5, 0.5))
def test_derived_disk_blocks_equal_the_transcription(nr, ns, perturbation):
    for derived, transcribed in disk_block_pairs(nr, ns, perturbation):
        assert derived[0] == transcribed[0]
        assert all(map(np.array_equal, derived[1:], transcribed[1:]))


# the stored values of small random matrices: zeros are kept as entries
_values = st.sampled_from([0.0, 0.0, 0.0, -2.0, -1.0, 0.5, 1.0, 3.0])


def _stored(dense):
    """`dense` as CSR that stores every entry, zeros included."""
    rows, cols = np.indices(dense.shape)
    return sparse.csr_array((dense.ravel(), (rows.ravel(), cols.ravel())), shape=dense.shape)


def _dense_rank(dense):
    return int(np.linalg.matrix_rank(dense)) if dense.size else 0


@_settings
@given(shape=st.tuples(st.integers(0, 8), st.integers(0, 8)), reverse=st.booleans(),
       data=st.data())
def test_echelon_rank_is_a_lower_bound_its_rows_certify(shape, reverse, data):
    dense = np.array(data.draw(st.lists(_values, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1]))).reshape(shape)
    count, pivots = echelon_rank(_stored(dense), reverse=reverse)
    assert count == pivots.size == np.unique(pivots).size
    assert count <= _dense_rank(dense)
    assert _dense_rank(dense[pivots]) == count


@_settings
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), reverse=st.booleans(),
       data=st.data())
def test_echelon_rank_of_an_echelon_matrix_is_its_rank(shape, reverse, data):
    # rows with distinct pivot columns, each nonzero only before its pivot
    # (after it with `reverse`), in a random order among zero rows
    count = data.draw(st.integers(0, min(shape)), label="rank")
    columns = data.draw(st.permutations(range(shape[1])), label="pivots")[:count]
    dense = np.zeros(shape)
    for row, col in zip(data.draw(st.permutations(range(shape[0])), label="rows"), columns):
        side = slice(col + 1, None) if reverse else slice(0, col)
        dense[row, side] = data.draw(st.lists(_values, min_size=dense[row, side].size,
                                              max_size=dense[row, side].size))
        dense[row, col] = data.draw(st.sampled_from([-1.0, 1.0, 2.0]), label="pivot")
    assert echelon_rank(_stored(dense), reverse=reverse)[0] == count == _dense_rank(dense)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("shape", [(1, 4), (3, 3), (0, 0), (0, 3), (3, 0)])
def test_echelon_rank_of_zero_rows_and_empty_matrices_is_zero(shape, reverse):
    for matrix in (sparse.csr_array(shape), _stored(np.zeros(shape))):
        count, pivots = echelon_rank(matrix, reverse=reverse)
        assert count == 0 and pivots.size == 0


def _shift_triplet(n, steps):
    """The circulant that moves every joint `steps` joints on, as a triplet."""
    return np.arange(n), (np.arange(n) + steps) % n, np.ones(n)


@st.composite
def _lift_terms(draw):
    """nt, a joint block shape and kron_lift terms: C the identity, its
    negative, the periodic stencil Dt or the two-step shift S^2, B a few
    entries (repeats, zeros and none at all included) placed at a random
    offset in the block."""
    nt = draw(st.integers(3, 6), label="nt")
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)), label="block shape")
    circulants = {"I": eye_triplet(nt), "-I": eye_triplet(nt, -1.0),
                  "Dt": difference_triplet(nt, True), "S2": _shift_triplet(nt, 2)}
    terms = []
    for _ in range(draw(st.integers(1, 4), label="terms")):
        c = circulants[draw(st.sampled_from(sorted(circulants)), label="C")]
        row0, col0 = (draw(st.integers(0, size - 1)) for size in shape)
        size = draw(st.integers(0, 6), label="entries")
        b = tuple(np.array(draw(st.lists(x, min_size=size, max_size=size)), dtype=dtype)
                  for x, dtype in ((st.integers(0, shape[0] - 1 - row0), np.int64),
                                   (st.integers(0, shape[1] - 1 - col0), np.int64),
                                   (_values, np.float64)))
        terms.append((c, b, row0, col0))
    return nt, shape, terms


def _assert_canonical(matrix):
    """Indices strictly increasing in every row and no stored zeros."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(matrix.indices)[same_row] > 0).all()
    assert (matrix.data != 0).all()


@_settings
@given(case=_lift_terms())
# nt = 3 with Dt, where the last joint's entries wrap to block 0, and two
# entries that cancel
@example(case=(3, (2, 2), [(difference_triplet(3, True),
                            (np.array([0, 1, 1, 1]), np.array([1, 0, 1, 0]),
                             np.array([1.0, 2.0, 3.0, -2.0])), 0, 0)]))
# nt = 3 with S^2 next to I: the entries of joints 1 and 2 both wrap, so
# two joints are sorted again
@example(case=(3, (2, 3), [(_shift_triplet(3, 2),
                            (np.array([0, 1, 1]), np.array([2, 0, 1]),
                             np.array([1.0, -2.0, 0.5])), 0, 0),
                           (eye_triplet(3), (np.array([0, 1]), np.array([0, 2]),
                                             np.array([3.0, 1.0])), 0, 0)]))
def test_kron_lift_matches_the_coo_reference(case):
    nt, shape, terms = case
    got, ref = kron_lift(nt, shape, terms), kron_lift_reference(nt, shape, terms)
    assert got.shape == ref.shape == (nt * shape[0], nt * shape[1])
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(got, name).astype(np.int64),
                              getattr(ref, name).astype(np.int64)), name
    # the values are sums of dyadic numbers, exact in any order
    assert got.data.dtype == np.float64 and got.data.tobytes() == ref.data.tobytes()
    assert got.indptr.dtype == got.indices.dtype == np.int32
    _assert_canonical(got)


@st.composite
def _triplets(draw):
    """A shape and an unsorted triplet in it, with repeated positions,
    explicit zeros, entries that cancel and no entries at all drawn."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)), label="shape")
    size = draw(st.integers(0, 12), label="entries")
    rows, cols = (np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
                           dtype=np.int64) for n in shape)
    vals = np.array(draw(st.lists(_values, min_size=size, max_size=size)), dtype=np.float64)
    return shape, (rows, cols, vals)


@_settings
@given(case=_triplets())
@example(case=((2, 3), (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))))
# one position three times, summing to 0, and a stored zero
@example(case=((2, 3), (np.array([1, 0, 1, 1, 0, 1]), np.array([2, 1, 2, 0, 0, 2]),
                        np.array([1.0, 0.0, -3.0, 3.0, 0.5, 2.0]))))
def test_csr_from_triplet_matches_the_coo_reference(case):
    shape, entries = case
    got, ref = csr_from_triplet(entries, shape), csr_reference(entries, shape)
    assert got.shape == ref.shape == shape
    # the values are sums of dyadic numbers, exact in any order
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, name), getattr(ref, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert got.indptr.dtype == np.int32
    _assert_canonical(got)


@_settings
@given(degrees=st.tuples(*[st.integers(2, 5)] * 3), data=st.data())
def test_tensor_apply_equals_the_3d_operator_product(degrees, data):
    # from the size floors of the degrees up to (12, 12, 8)
    floors = (max(3, degrees[0] - 1), max(4, degrees[1] + 1), max(3, degrees[2] - 1))
    dims = tuple(data.draw(st.integers(lo, hi), label="dims")
                 for lo, hi in zip(floors, (12, 12, 8)))
    tc = pd.build_tensor_sequence(degrees, dims)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    for level, apply in enumerate((tc.apply_grad, tc.apply_curl, tc.apply_div)):
        n = tc.level_dim(level)
        coeffs = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        assert np.array_equal(apply(coeffs), level_operator(tc, level) @ coeffs), level


def _parameters(space, count):
    """`count` parameters of one space: knots, the interval ends and
    arbitrary values, shifted by whole periods for a periodic space."""
    a, b = space.interval
    x = st.one_of(st.sampled_from(np.unique(space.kv.knots).tolist()), st.floats(a, b))
    if space.periodic:
        x = st.builds(lambda v, n: v + n * (b - a), x, st.integers(-3, 3))
    return st.lists(x, min_size=count, max_size=count)


@pytest.mark.parametrize("degree", [2, 3])
@_settings
@given(data=st.data())
def test_one_lookup_of_three_spaces_matches_each_space_alone(complex_cache, degree, data):
    tensor = complex_cache(degrees=(degree,) * 3, dims=(6, 7, 5)).tensor
    count = data.draw(st.integers(1, 6), label="points")
    points = np.column_stack([data.draw(_parameters(sp, count), label=name)
                              for sp, name in zip(tensor.spaces, "rst")])
    factors = tensor.local_factors(points)
    lookup = tensor.span_lookup
    for d, sp in enumerate(tensor.spaces):
        x = points[:, d]
        # the span found: its left end, against the knot vector's own search
        spans = [find_span(sp.kv, wrap(sp, v)) for v in x]
        np.testing.assert_array_equal(lookup.spans[factors.rows[:, d], 0], sp.kv.knots[spans])
        alone = eval_local(sp, x)
        width = alone.index.shape[1]
        index = lookup.index[factors.rows[:, d]]
        np.testing.assert_array_equal(index[:, 0, :width], alone.index)
        np.testing.assert_array_equal(index[:, 1, :width], alone.deriv_index)
        assert not index[:, :, width:].any()
        values = factors.values[d]
        for kind, own in enumerate((alone.values, alone.derivatives, alone.deriv_values)):
            assert np.abs(values[kind, :width].T - own).max() <= 1e-14 * max(1.0, np.abs(own).max())
            assert not values[kind, width:].any()
