"""Tensor-product spline complexes on the parametric box.

The four levels of the tensor complex (scalar potentials, curl-domain
triples, div-domain triples, densities) share three univariate spaces:
periodic in the first and third directions, open in the second.  All
coefficient-level differential operators are Kronecker products of
identities with the bidiagonal difference stencils, stated once by
:func:`derivative_blocks`: the ``apply_`` methods of :class:`TensorComplex`
apply them to coefficient arrays, :func:`derivative_entries` writes them
as a float64 triplet.

Coefficient layout: the first index runs fastest, so the coefficients of
a component with counts (nr, ns, nt) are the C-order array of shape
``(nt, ns, nr)``, and function (i, j, k), 0-based, sits at the flat index
``i + nr * (j + ns * k)``.  Spline control nets and tensor fields follow
this order; reduced vectors stack their per-joint blocks the same way,
joint index slowest.

Pointwise evaluation goes through :class:`LocalFactors`: the nonzero
univariate functions of every direction at a batch of points, from which
each component's local tensor support follows.

The polar complex's extraction and incidence matrices, and the level-0
stencils of :meth:`TensorComplex.derivative`, are circle lifts, sums of
``C (x) B`` with C circulant over the toroidal joints, stated by a
:class:`LiftTable`.  :func:`kron_lift` writes their CSR arrays
directly: joint 0's block row once, then every joint by shifting its
columns whole blocks, with no COO triplet of the whole matrix.  Every
library sparse matrix holds float64 values and int32 indices while they
fit (:func:`~polar_derham.bsplines.index_dtype`).
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .bsplines import (SpanLookup, SplineSpace, csr_arrays, csr_from_triplet, difference_triplet,
                       index_dtype, make_uniform_open_knots, triplet)

__all__ = [
    "check_size_floors",
    "cat_triplets",
    "eye_triplet",
    "derivative_blocks",
    "derivative_entries",
    "kron_lift",
    "StructureError",
    "LiftTable",
    "unit_entries",
    "partition_rank",
    "echelon_rank",
    "LocalFactors",
    "TensorComplex",
    "build_tensor_sequence",
    "distinct_knot_counts",
    "dims_of_distinct_knots",
    "LEVEL_PATTERNS",
]

# Component patterns per complex level; a 1 marks a direction carrying the
# derivative (degree-lowered) basis.
LEVEL_PATTERNS = {
    0: ((0, 0, 0),),
    1: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    2: ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    3: ((1, 1, 1),),
}
# The same patterns as :meth:`TensorComplex.local_products` choices: a
# lowered direction picks the derivative-space values.
_LEVEL_CHOICES = {level: tuple(tuple(2 * b for b in pat) for pat in pats)
                 for level, pats in LEVEL_PATTERNS.items()}
_DIRECTIONS = np.arange(3)[:, None]


_KNOT_OFFSETS = (3, 1, 3)


def check_size_floors(degrees, dims):
    """Reject degrees and dims the construction does not support: every
    degree at least 2, and dims (nr, ns, nt) at least (3, 4, 3), the polar
    floors, and at least (p_r - 1, p_s + 1, p_t - 1), two distinct knots
    per direction (see :func:`distinct_knot_counts`)."""
    floors = tuple(max(f, p - o + 2) for f, p, o in zip((3, 4, 3), degrees, _KNOT_OFFSETS))
    if min(degrees) < 2 or any(n < f for n, f in zip(dims, floors)):
        raise ValueError(
            f"size floors violated: need degrees >= (2, 2, 2) and dims >= {floors}, "
            f"got degrees {tuple(degrees)} and dims {tuple(dims)}"
        )


def distinct_knot_counts(degrees, dims):
    """Distinct-knot counts of the uniform open vectors behind `dims`:
    ``n - p + 3`` in the periodic first and third directions, whose
    reduction drops two functions, and ``n - p + 1`` in the open one."""
    return tuple(n - p + o for p, n, o in zip(degrees, dims, _KNOT_OFFSETS))


def dims_of_distinct_knots(degrees, distinct):
    """The dims whose :func:`distinct_knot_counts` are `distinct`."""
    return tuple(d + p - o for p, d, o in zip(degrees, distinct, _KNOT_OFFSETS))


# ----------------------- the tensor derivative rule -------------------------

def derivative_blocks(sources, targets):
    """The nonempty blocks (source, target, direction a, sign) of the
    coefficient derivatives from the components `sources` to `targets`
    (patterns of one level and the next, by index), by target and then by
    source, as a matrix product adds them.

    Block (q, p) is +/- the difference stencil of a (periodic in the first
    and third directions, open in the second) when q is p lowered in one
    more direction a.  The sign is - only from the 1-form component along
    b when b != a + 1 (mod 3): the 2-form components are (s, t), (t, r),
    (r, s)."""
    blocks = []
    for target, q in enumerate(targets):
        for source, p in enumerate(sources):
            step = [b - a for a, b in zip(p, q)]
            if sorted(step) == [0, 0, 1]:
                axis = step.index(1)
                sign = -1.0 if sum(p) == 1 and p.index(1) != (axis + 1) % 3 else 1.0
                blocks.append((source, target, axis, sign))
    return blocks


_LEVEL_BLOCKS = [derivative_blocks(LEVEL_PATTERNS[level], LEVEL_PATTERNS[level + 1])
                 for level in range(3)]


def derivative_entries(dims, sources, targets):
    """The coefficient derivatives from the components `sources` to the
    components `targets`, side by side in the order given, as a float64
    triplet and its shape.

    A component's counts are ``(n0, n1 - pattern[1], n2)`` for `dims` =
    (n0, n1, n2).  Each of the :func:`derivative_blocks` is its sign times
    the difference stencil of its direction, the stencil's entries
    broadcast against the index ranges of the other two directions.
    """
    counts = {p: (dims[0], dims[1] - p[1], dims[2]) for p in (*sources, *targets)}
    row0 = np.cumsum([0] + [np.prod(counts[q]) for q in targets])
    col0 = np.cumsum([0] + [np.prod(counts[p]) for p in sources])
    parts = []
    for source, target, axis, sign in derivative_blocks(sources, targets):
        src, dst = counts[sources[source]], counts[targets[target]]
        s_row, s_col, s_val = difference_triplet(src[axis], axis != 1)
        dst_stride, src_stride = np.cumprod([1, *dst[:2]]), np.cumprod([1, *src[:2]])
        a, b = (d for d in range(3) if d != axis)
        at_a, at_b = np.arange(src[a])[:, None], np.arange(src[b])[:, None, None]
        rows = at_b * dst_stride[b] + at_a * dst_stride[a] + s_row * dst_stride[axis]
        cols = at_b * src_stride[b] + at_a * src_stride[a] + s_col * src_stride[axis]
        parts.append((rows.ravel() + row0[target], cols.ravel() + col0[source],
                      np.tile(sign * s_val, src[a] * src[b])))
    return cat_triplets(parts), (row0[-1], col0[-1])


# ------------------------- one-pass Kronecker sums --------------------------

def cat_triplets(parts):
    """Concatenate (rows, cols, vals) parts into one flat triplet."""
    return tuple(np.concatenate([np.ravel(p[n]) for p in parts]) for n in range(3))


def eye_triplet(n, sign=1.0):
    """``sign * I_n`` as a triplet."""
    return np.arange(n), np.arange(n), np.full(n, sign)


def _joint_row(n, block_shape, terms):
    """Joint 0's block row of :func:`kron_lift`: the CSR arrays (data,
    indices, indptr) of its int64 keys, by :func:`~polar_derham.bsplines.csr_arrays`."""
    m, k = block_shape
    width = n * k
    keys, vals = [], []
    for (c_row, c_col, c_val), (b_row, b_col, b_val), row0, col0 in terms:
        first = c_row == 0
        # joint 0's entries keyed by row, then column, in int64
        local = (np.asarray(b_row, np.int64) + row0) * width + b_col + col0
        keys.append((c_col[first, None] * k + local).ravel())
        vals.append((c_val[first, None] * b_val).ravel())
    return csr_arrays(np.concatenate(keys), np.concatenate(vals), (m, width))


def kron_lift(n, block_shape, terms):
    """CSR sum of the Kronecker products ``C (x) B`` over (C, B, row0, col0).

    C is an n x n circulant triplet, of which only row 0 is read: its
    entry (0, d) places that value times B at block offset d, in block
    column (j + d) mod n of joint j.  B is a (rows, cols, vals) triplet
    placed at (row0, col0) inside a block of `block_shape`.

    Joint 0's block row is formed once (:func:`_joint_row`); every other
    joint has its values at columns shifted by whole blocks, and only in
    the joints where j + d passes n do each row's wrapped entries move to
    the row's front, by one argsort of the row keys plus the columns mod
    n k: the rule :meth:`LiftTable.read` inverts through
    :func:`~polar_derham.bsplines.csr_arrays`, whose duplicate and zero
    passes this lift does not need.  Indices are in
    :func:`~polar_derham.bsplines.index_dtype`.
    """
    m, k = block_shape
    width = n * k
    val, col, block_indptr = _joint_row(n, block_shape, terms)
    nnz = val.size
    idx = index_dtype((n * m, width), n * nnz)
    indptr = np.empty(n * m + 1, dtype=idx)
    np.add(np.arange(n, dtype=idx)[:, None] * nnz, block_indptr[:-1],
           out=indptr[:-1].reshape(n, m))
    indptr[-1] = n * nnz
    # joint j's columns are joint 0's plus j * k; before joint `body` none
    # passes the last column
    body = n - int(col.max(initial=0)) // k
    indices = np.empty((n, nnz), dtype=idx)
    np.add((np.arange(body, dtype=idx) * k)[:, None], col, out=indices[:body])
    data = np.tile(val, (n, 1))
    for j in range(body, n):
        # the columns past the last wrap around to the front of their row
        cols = col.astype(np.int64) + j * k
        cols[cols >= width] -= width
        order = np.argsort(np.repeat(np.arange(m) * width, np.diff(block_indptr)) + cols)
        indices[j], data[j] = cols[order], val[order]
    out = sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=(n * m, width))
    out.has_canonical_format = True
    return out


class StructureError(Exception):
    """A matrix lacks the joint structure a structured rank decision needs.

    Not a ValueError: the input is well formed, the matrix itself fails.
    """


class LiftTable(NamedTuple):
    """How matrices lift per-joint blocks along a circle of n joints.

    `terms` maps each matrix name to its joint block shape and its terms
    ``(C, B, row0, col0)`` of :func:`kron_lift`: C is an n x n triplet and
    B the label of a block of `shapes` or a fixed identity triplet.
    """

    n: int
    shapes: dict
    terms: dict

    def kron_terms(self, name, blocks):
        """The :func:`kron_lift` terms of one matrix, its labels resolved in
        `blocks` (label -> triplet)."""
        return [(c, blocks[b] if isinstance(b, str) else b, row0, col0)
                for c, b, row0, col0 in self.terms[name][1]]

    def lift(self, blocks, names):
        """The named matrices lifted from `blocks`, one :func:`kron_lift` each."""
        return {name: kron_lift(self.n, self.terms[name][0], self.kron_terms(name, blocks))
                for name in names}

    def read(self, matrices):
        """The per-joint blocks whose lift the `matrices` (name -> matrix,
        in table order) are, as CSR keyed by label.

        Each labelled block is read from joint 0 of the first matrix that
        holds it, divided by the entry (0, 0) of its C.  Every matrix must
        equal its lift exactly, explicit zeros aside, joint by joint against
        the lift's joint-0 block row, with no lift formed.  Raises
        StructureError naming the matrix and the first joint that differs
        or, in joint 0, the term of the lift that differs.
        """
        blocks, source = {}, {}
        for name, matrix in matrices.items():
            shape = self.terms[name][0]
            if matrix.shape != (self.n * shape[0], self.n * shape[1]):
                raise StructureError(f"{name}: shape {matrix.shape} does not split into "
                                     f"{self.n} joints of {shape}")
            csr = matrix.tocsr()
            for (c_row, c_col, c_val), label, row0, col0 in self.terms[name][1]:
                if isinstance(label, str) and label not in blocks:
                    m, k = self.shapes[label]
                    block = csr[row0:row0 + m, col0:col0 + k]
                    block.sum_duplicates()
                    block.eliminate_zeros()
                    # joint 0 holds the block times C's entry (0, 0), e.g. -1 in E101
                    scale = c_val[(c_row == 0) & (c_col == 0)][0]
                    blocks[label] = block if scale == 1 else block / scale
                    source[label] = name
        entries = {label: triplet(b) for label, b in blocks.items()}
        what = ("pair " if len(blocks) == 2 else "set ") + f"({', '.join(blocks)})"
        for name, matrix in matrices.items():
            csr, (m, k) = matrix.tocsr(), self.terms[name][0]
            width, lift = self.n * k, _joint_row(self.n, (m, k), self.kron_terms(name, entries))
            # joint j holds joint 0's entries at columns shifted by j k; the integer
            # arrays compare as bytes, in the matrix's index dtype
            bounds = lift[2].astype(csr.indptr.dtype).tobytes()
            cols = lift[1].astype(csr.indices.dtype).tobytes()
            for joint in range(self.n):
                ptr = csr.indptr[joint * m:(joint + 1) * m + 1]
                span = slice(ptr[0], ptr[-1])
                if ((ptr - ptr[0]).tobytes() == bounds and (csr.data[span] == lift[0]).all()
                        and (csr.indices[span] - joint * k).tobytes() == cols):
                    continue
                # columns that wrap, or rows with explicit zeros, duplicates or
                # unsorted columns: the joint's entries shifted back, canonical
                keys = (np.repeat(np.arange(m, dtype=np.int64) * width, np.diff(ptr))
                        + (csr.indices[span].astype(np.int64) - joint * k) % width)
                if not all(map(np.array_equal, csr_arrays(keys, csr.data[span], (m, width)), lift)):
                    break
            else:
                continue
            if joint:
                # joint 0's block row is that of the block-circulant lift
                raise StructureError(f"{name} is not block-circulant over {self.n} joints: the "
                                     f"entries of joint {joint} differ from those of joint 0")
            # the first entry of joint 0's rows, in row-major order, that differs
            row, col = min(zip(*(csr[:m] != sparse.csr_array(lift, shape=(m, width))).nonzero()))
            offset, col = divmod(int(col), k)
            lead = f"{name} is not the circle lift of one {what}: "
            for (c_row, c_col, c_val), b, row0, col0 in self.terms[name][1]:
                scale = c_val[(c_row == 0) & (c_col == offset)]
                m, k = self.shapes[b] if isinstance(b, str) else (b[0].size,) * 2
                if not (scale.size and row0 <= row < row0 + m and col0 <= col < col0 + k):
                    continue
                if isinstance(b, str):
                    times = "" if scale[0] == 1 else f"{scale[0]:+g} times "
                    label, expected = b, f"{times}{source[b]}'s {b}"
                else:
                    label, expected = "identity", f"{scale[0] * b[2][0]:+g} times the identity"
                raise StructureError(lead + f"its offset-{offset} {label} block (rows "
                                     f"{row0}:{row0 + m}, cols {col0}:{col0 + k}) differs "
                                     f"from {expected}")
            raise StructureError(lead + "joint 0 has entries outside the blocks of the lift")
        return blocks


def unit_entries(entries):
    """The nonzero entries (rows, cols, vals) of a block's triplet, the mask
    of its unit entries (a +/-1 alone in its row) and the mask of the unit
    entries whose column another row touches."""
    keep = entries[2] != 0
    rows, cols, vals = (part[keep] for part in entries)
    unit = (np.bincount(rows)[rows] == 1) & (np.abs(vals) == 1)
    return (rows, cols, vals), unit, unit & (np.bincount(cols)[cols] > 1)


def partition_rank(block, name):
    """Exact rank and number of nonzero rows of a per-joint extraction
    block (a sparse matrix without duplicate entries, as
    :meth:`LiftTable.read` returns), certified by its row partition.

    Every row must be empty, a unit row (a single +/-1 in a column no
    other row touches) or one of at most three center rows.  Unit rows
    are independent of each other and of the center rows, so the rank is
    their number plus the dense rank of the center rows restricted to
    their columns, a matrix of at most 3 x 2 nr.  The partition is
    checked in O(nnz); a block that fails it raises StructureError naming
    the block.
    """
    (rows, cols, vals), unit, shared = unit_entries(triplet(block))
    if shared.any():
        row, col = rows[shared][0], cols[shared][0]
        raise StructureError(
            f"{name} does not partition into unit and center rows: the unit row "
            f"{row} shares column {col} with rows {sorted(set(rows[cols == col].tolist()) - {row})}")
    center = ~unit
    center_rows = np.flatnonzero(np.bincount(rows[center], minlength=block.shape[0]))
    if center_rows.size > 3:
        raise StructureError(
            f"{name} does not partition into unit and center rows: {center_rows.size} "
            f"rows are neither empty nor unit rows, at most 3 may be")
    center_cols = np.flatnonzero(np.bincount(cols[center], minlength=block.shape[1]))
    sub = np.zeros((center_rows.size, center_cols.size))
    sub[np.searchsorted(center_rows, rows[center]),
        np.searchsorted(center_cols, cols[center])] = vals[center]
    center_rank = int(np.linalg.matrix_rank(sub)) if sub.size else 0
    return int(unit.sum()) + center_rank, int(np.unique(rows).size)


def echelon_rank(matrix, reverse=False):
    """A certified lower bound on the rank of a sparse matrix and the rows
    that certify it, in O(nnz).

    Rows whose last nonzero entries (first with `reverse`) sit in distinct
    columns are linearly independent: ordered by that column, each has a
    nonzero where every row before it has none.  No arithmetic is
    involved, so the number of distinct such columns bounds the rank from
    below exactly for the stored values; duplicates are summed and stored
    zeros are not entries.  Returns that number and one row for each such
    column, in column order.
    """
    csr = sparse.csr_array(matrix, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    starts, stops = csr.indptr[:-1], csr.indptr[1:]
    rows = np.flatnonzero(stops > starts)
    pivot = np.full(csr.shape[1], -1)
    pivot[csr.indices[starts[rows] if reverse else stops[rows] - 1]] = rows
    pivots = pivot[pivot >= 0]
    return pivots.size, pivots


class LocalFactors(NamedTuple):
    """Local univariate bases of the three directions at m points.

    ``points`` is the validated (m, 3) array and ``single`` records that
    the input was one (3,) point, whose results the entry points return
    without the batch axis.  ``rows`` (m, 3) and ``values`` (3, 3, w, m)
    are the tensor's :class:`SpanLookup` results, direction by direction:
    each point's span rows and the values, first derivatives and
    derivative-space values of the functions nonzero there.
    """

    spaces: tuple
    points: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    single: bool

    @property
    def size(self):
        return self.points.shape[0]


class TensorComplex:
    """The four tensor-product spline levels over one triple of spaces.

    Parameters
    ----------
    space_r, space_s, space_t : SplineSpace
        Univariate factors; the first and third must be periodic, the
        second must not be.
    """

    def __init__(self, space_r, space_s, space_t):
        if not (space_r.periodic and space_t.periodic):
            raise ValueError("first and third directions must be periodic")
        if space_s.periodic:
            raise ValueError("second direction must be a plain open space")
        self.spaces = (space_r, space_s, space_t)
        self.nr, self.ns, self.nt = (sp.dim for sp in self.spaces)
        check_size_floors(self.degrees, self.dims)
        self._plans = {}

    @property
    def dims(self):
        return self.nr, self.ns, self.nt

    @property
    def degrees(self):
        return tuple(sp.degree for sp in self.spaces)

    # --------------------------- dimensions ---------------------------------

    def component_shape(self, pattern):
        """(nr, ns or ns-1, nt) of one component; periodic derivative bases
        keep the periodic dimension."""
        return self.nr, self.ns - pattern[1], self.nt

    def component_dim(self, pattern):
        nr, ns, nt = self.component_shape(pattern)
        return nr * ns * nt

    def level_dim(self, level):
        return sum(self.component_dim(pat) for pat in LEVEL_PATTERNS[level])

    # ------------------------ basis evaluation ------------------------------

    @cached_property
    def span_lookup(self):
        """The three spaces' span tables, stacked in one :class:`SpanLookup`."""
        return SpanLookup(self.spaces)

    def local_factors(self, points):
        """Validate points and evaluate the three directions' local bases in
        one :class:`SpanLookup` call.

        `points` is one (r, s, t) point or an (m, 3) array of them; each
        coordinate must be finite, s must lie in the open direction's
        interval, and r and t wrap periodically.  Factors already built on
        these spaces pass through unchanged.
        """
        if isinstance(points, LocalFactors):
            if points.spaces is self.spaces:
                return points
            points = points.points
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(
                f"points must have shape (3,) or (m, 3), got {np.shape(points)}"
            )
        rows, values = self.span_lookup(pts, "rst")
        return LocalFactors(self.spaces, pts, rows, values, single)

    def local_products(self, points, choices):
        """Tensor products of one local univariate factor per direction.

        Each (r, s, t) triple of the tuple `choices` picks, per direction,
        the values (0), first derivatives (1) or derivative-space values
        (2) of the local basis.  Returns (K, k, m) arrays, for the k
        choices at the m points, of keys and of the products' values; K is
        the product of the local widths the choices read per direction.
        The key of function (i, j, joint) of the component a choice reads
        (one function fewer along s where it picks 2 there) is
        ``joint * nr * ns + i + nr * j``: its joint and its column within
        the joint, and for level-0 functions their index in the module's
        layout.  The points run last, so that broadcasts over a batch loop
        over them innermost.
        """
        factors = self.local_factors(points)
        if choices not in self._plans:
            self._plans[choices] = self._product_plan(choices)
        index, kind, (wr, ws, wt) = self._plans[choices]
        i = np.take(index, factors.rows.T, axis=-1)
        v = factors.values[_DIRECTIONS, kind]
        # (w, k, m) per direction, combined into (wt, ws, wr, k, m)
        keys = i[:wt, None, None, :, 2] + i[None, :ws, None, :, 1] + i[None, None, :wr, :, 0]
        vs = v[1, :, :ws].transpose(1, 0, 2)[:, None] * v[0, :, :wr].transpose(1, 0, 2)
        vals = v[2, :, :wt].transpose(1, 0, 2)[:, None, None] * vs
        shape = (wt * ws * wr, len(choices), factors.size)
        return keys.reshape(shape), vals.reshape(shape)

    def _product_plan(self, choices):
        """Per local slot, choice and span row of the lookup, the index of
        the function the choice reads there, scaled by its direction's
        stride in the keys of :meth:`local_products`; per direction and
        choice, the values row; and per direction, the widest local width
        the choices read.  The indices, and so the keys, are int32 while
        the level-0 functions fit.
        """
        kind = np.array(choices).T
        lookup = self.span_lookup
        d = lookup.owner
        index = lookup.index[np.arange(d.size)[:, None], kind[d] // 2]
        index = index * np.array([1, self.nr, self.nr * self.ns])[d, None, None]
        index = index.astype(index_dtype((self.level_dim(0),), 0))
        widths = lookup.widths[_DIRECTIONS, kind // 2].max(axis=1)
        return np.ascontiguousarray(index.transpose(2, 1, 0)), kind, tuple(widths)

    def local_level_basis(self, level, points, extra=()):
        """:meth:`local_products` of the level's components, followed by
        those of the `extra` choices."""
        return self.local_products(points, _LEVEL_CHOICES[level] + tuple(extra))

    # --------------------- coefficient derivatives --------------------------

    def derivative(self, axis):
        """The difference stencil of direction `axis` on level 0, identities
        over the other directions, lifted from one joint: ``I (x) g`` with g
        the stencil on one joint, empty in t, plus ``Dt (x) I`` in t
        (float64 CSR, no stored zeros)."""
        nr, ns, nt = self.dims
        g, shape = derivative_entries((nr, ns, 1), LEVEL_PATTERNS[0], (LEVEL_PATTERNS[1][axis],))
        dt = [(difference_triplet(nt, True), eye_triplet(nr * ns), 0, 0)] if axis == 2 else []
        return kron_lift(nt, shape, [(eye_triplet(nt), g, 0, 0), *dt])

    def _components(self, coeffs, level):
        """One (nt, ns or ns-1, nr) view per component of a level's vector."""
        shapes = [self.component_shape(pat)[::-1] for pat in LEVEL_PATTERNS[level]]
        stops = np.cumsum([0] + [self.component_dim(pat) for pat in LEVEL_PATTERNS[level]])
        return [coeffs[a:b].reshape(shape) for a, b, shape in zip(stops, stops[1:], shapes)]

    # -------------------------- operator actions ----------------------------

    def _apply(self, level, coeffs):
        """The level -> level + 1 coefficient derivatives applied to a
        vector by :func:`derivative_blocks`, equal to the product with the
        matrix of :func:`derivative_entries` exactly: a target's first block
        is one subtraction, and each later block adds its two terms in the
        order of their columns, -1 then +1 but on the periodic wrap row."""
        coeffs = np.asarray(coeffs, dtype=float)
        expected = self.level_dim(level)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"level-{level} coefficients must have length {expected}, "
                f"got shape {coeffs.shape}"
            )
        out = np.empty(self.level_dim(level + 1))
        x, y = self._components(coeffs, level), self._components(out, level + 1)
        started = set()
        for source, target, axis, sign in _LEVEL_BLOCKS[level]:
            # along the direction, row i takes sign * (x[i + 1] - x[i]) and
            # the periodic wrap row n - 1 sign * (x[0] - x[n - 1]): the
            # groups of rows (out, a, b, w) take w * a - w * b, a's column first
            src, dst = x[source], y[target]
            if axis == 1:
                rows = [(dst, src[:, :-1], src[:, 1:], -sign)]
            elif axis == 2:
                rows = [(dst[:-1], src[:-1], src[1:], -sign), (dst[-1], src[0], src[-1], sign)]
            else:
                # r runs fastest: one slice of the flat arrays passes each
                # row's end too, so the wrap rows are formed aside first
                # and put back over those entries last
                held, flat_dst, flat_src = dst[..., -1].copy(), dst.reshape(-1), src.reshape(-1)
                rows = [(held, src[..., 0], src[..., -1], sign),
                        (flat_dst[:-1], flat_src[:-1], flat_src[1:], -sign)]
            for at, a, b, w in rows:
                if target not in started:
                    np.subtract(*((a, b) if w > 0 else (b, a)), out=at)
                else:
                    (np.add if w > 0 else np.subtract)(at, a, out=at)
                    (np.subtract if w > 0 else np.add)(at, b, out=at)
            if axis == 0:
                dst[..., -1] = held
            started.add(target)
        return out

    def apply_grad(self, coeffs):
        return self._apply(0, coeffs)

    def apply_curl(self, coeffs):
        return self._apply(1, coeffs)

    def apply_div(self, coeffs):
        return self._apply(2, coeffs)


def build_tensor_sequence(degrees, dims, lengths=(1.0, 1.0, 1.0)):
    """Construct the tensor complex from degree and dimension triples.

    `dims` counts basis functions after the periodic reduction in the
    first and third directions; uniform open knot vectors with
    :func:`distinct_knot_counts` values are used.
    """
    check_size_floors(degrees, dims)
    return TensorComplex(*(
        SplineSpace(make_uniform_open_knots(p, d, 0.0, length), periodic=periodic)
        for p, d, length, periodic in zip(degrees, distinct_knot_counts(degrees, dims),
                                          lengths, (True, False, True))))
