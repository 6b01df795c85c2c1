"""Univariate B-spline spaces on open knot vectors.

Provides the Cox-de Boor evaluation kernel and the per-knot-span
polynomial tables built from it, the derivative basis of a spline space,
the extraction matrices tying a C1 space into its C1-periodic subspace,
the bidiagonal coefficient-difference stencils, the index-dtype rule and
triplet-to-CSR pass of every library sparse matrix, and the
design-through-analysis (DTA) diagnostic used throughout the polar
construction.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

__all__ = [
    "KnotVector",
    "SplineSpace",
    "SpanLookup",
    "DtaDiagnostic",
    "make_uniform_open_knots",
    "difference_triplet",
    "difference_matrix",
    "index_dtype",
    "csr_arrays",
    "csr_from_keys",
    "csr_from_triplet",
    "triplet",
    "periodic_h0",
    "periodic_h1",
    "dta_diagnostic",
    "DTA_TOL",
]


# =============================== knot vectors ===============================

class KnotVector:
    """Open knot vector ``t_1 <= ... <= t_{n+p+1}`` of a degree-p basis.

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 0.
    knots : array_like
        Non-decreasing knot sequence with the first and last p+1 entries
        repeated (open vector).
    """

    def __init__(self, degree, knots):
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        knots = np.ascontiguousarray(knots, dtype=float)
        if knots.ndim != 1:
            raise ValueError("knots must be a one-dimensional sequence")
        n = knots.size - degree - 1
        if n < degree + 1:
            raise ValueError(
                f"knot vector of length {knots.size} supports no degree-{degree} basis"
            )
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be non-decreasing")
        if knots[degree] != knots[0] or knots[-degree - 1] != knots[-1]:
            raise ValueError("knot vector must be open (boundary multiplicity p+1)")
        if knots[0] == knots[-1]:
            raise ValueError("knot vector spans an empty interval")
        self.degree = int(degree)
        self.knots = knots
        self.knots.setflags(write=False)

    @property
    def n(self):
        """Number of B-spline basis functions."""
        return self.knots.size - self.degree - 1

    @property
    def interval(self):
        return self.knots[0], self.knots[-1]

    def breakpoints(self):
        """Distinct knot values and their multiplicities."""
        values, counts = np.unique(self.knots, return_counts=True)
        return values, counts

    def smoothness(self):
        """Global smoothness class k: the space is C^k on the interval.

        Computed as p minus the largest interior knot multiplicity; a
        single-span vector (no interior knots) is reported as C^{p-1}.
        """
        _, counts = self.breakpoints()
        interior = counts[1:-1]
        max_mult = int(interior.max()) if interior.size else 1
        return self.degree - max_mult

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, knots={self.knots.tolist()})"

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.degree == other.degree
            and np.array_equal(self.knots, other.knots)
        )


def _basis_funs_batch(knots, p, x, span):
    """The Cox-de Boor triangular scheme (NURBS book, BasisFuns) over a
    batch of parameters, each with its 0-based knot span.

    Returns the p+1 degree-p values and the p degree-(p-1) values that are
    nonzero on each parameter's span, as (m, p+1) and (m, p) arrays.
    """
    j = np.arange(1, p + 1)
    left = x[:, None] - knots[span[:, None] + 1 - j]
    right = knots[span[:, None] + j] - x[:, None]
    vals = np.ones((x.size, 1))
    lower = vals[:, :0]
    for j in range(1, p + 1):
        lower = vals
        tmp = vals / (right[:, :j] + left[:, j - 1::-1])
        vals = np.zeros((x.size, j + 1))
        vals[:, :j] = right[:, :j] * tmp
        vals[:, 1:] += left[:, j - 1::-1] * tmp
    return vals, lower


def _nonzero_rows(mask):
    """Positions of the True entries of each row of `mask`, in order.

    Returns ``index`` (rows, w), padded with 0, and ``real`` (rows, w)
    marking the slots that are not padding; w is the largest row count.
    """
    width = int(mask.sum(axis=1).max(initial=0))
    order = np.argsort(~mask, axis=1, kind="stable")[:, :width]
    real = np.take_along_axis(mask, order, axis=1)
    return np.where(real, order, 0), real


def make_uniform_open_knots(p, num_distinct, a, b):
    """Uniform open knot vector with `num_distinct` equally spaced values.

    Boundary values carry multiplicity p+1, interior values multiplicity 1.
    """
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")
    if num_distinct < 2:
        raise ValueError(f"need at least two distinct knots, got {num_distinct}")
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    values = np.linspace(a, b, num_distinct)
    knots = np.concatenate([np.full(p, a), values, np.full(p, b)])
    return KnotVector(p, knots)


# ========================== coefficient differences =========================

def difference_triplet(n, periodic):
    """The bidiagonal -1/+1 stencil mapping n coefficients to derivative
    coefficients, as float64 (rows, cols, vals) in CSR order: row i holds
    -1 at column i and +1 at column i + 1, n - 1 rows when open and n when
    periodic, the last wrapping around to ``(1, 0, ..., 0, -1)``; empty
    when periodic with n = 1, where the shift is the identity."""
    if n < 2 - periodic:
        raise ValueError(f"difference stencil needs n >= {2 - periodic}, got {n}")
    at = np.arange(n if periodic and n > 1 else n - 1)
    cols = np.sort(np.column_stack([at, (at + 1) % n]), axis=1).ravel()
    rows = np.repeat(at, 2)
    return rows, cols, np.where(cols == rows, -1.0, 1.0)


def difference_matrix(n, periodic):
    """:func:`difference_triplet` as CSR."""
    return csr_from_triplet(difference_triplet(n, periodic), (n if periodic else n - 1, n))


# ============================ sparse storage =================================
# Every library sparse matrix holds float64 values and indices of one
# dtype rule, :func:`index_dtype`.

def index_dtype(shape, nnz):
    """The index dtype of a sparse matrix of `shape` with `nnz` entries:
    int32 while the rows, the columns and nnz are all below 2**31, int64
    otherwise."""
    return np.int32 if max(*shape, nnz) < 2**31 else np.int64


def csr_arrays(keys, vals, shape):
    """The CSR arrays (data, indices, indptr) of the entries `vals` at the
    int64 keys ``row * cols + col``, with no COO pass: the keys sorted
    stably, duplicates summed in input order, stored zeros dropped,
    indices in :func:`index_dtype` and the dtype of `vals` kept."""
    vals = np.asarray(vals)
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        start = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        keys, vals = keys[start], np.add.reduceat(vals, start)
    keep = vals != 0
    if not keep.all():
        keys = keys[keep]
    idx = index_dtype(shape, keys.size)
    # the keys ascend, so row r starts at the first key >= r * cols
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1, dtype=np.int64) * shape[1])
    col = np.remainder(keys, shape[1], out=np.empty(keys.size, idx), casting="unsafe")
    return vals[keep], col, indptr.astype(idx)


def csr_from_keys(keys, vals, shape):
    """The entries `vals` at the int64 keys ``row * cols + col`` as a CSR
    matrix, by :func:`csr_arrays`."""
    mat = sparse.csr_array(csr_arrays(keys, vals, shape), shape=shape)
    mat.has_canonical_format = True
    return mat


def csr_from_triplet(entries, shape):
    """(rows, cols, vals) as a CSR matrix, by :func:`csr_from_keys`."""
    rows, cols, vals = entries
    return csr_from_keys(np.asarray(rows, np.int64) * shape[1] + np.asarray(cols, np.int64),
                         vals, shape)


def triplet(matrix):
    """(rows, cols, vals) of a matrix, in CSR storage order."""
    csr = sparse.csr_array(matrix)
    return np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr)), csr.indices, csr.data


# ======================== C1-periodic extraction ============================

def _periodic_weights(kv):
    """The pair (c1, c2) splitting the two boundary functions."""
    p, t = kv.degree, kv.knots
    num = np.array([t[-1] - t[-p - 2], t[p + 1] - t[0]])
    return num / num.sum()


def _check_c1_periodic(kv):
    """Reject a knot vector without a C1-periodic subspace: the space must
    be C1 and have n >= 4 functions."""
    if kv.smoothness() < 1:
        raise ValueError("C1-periodic subspace requires a C1 space")
    if kv.n < 4:
        raise ValueError(f"C1-periodic subspace requires n >= 4, got n = {kv.n}")


def periodic_h0(kv):
    """Extraction matrix of the C1-periodic subspace of the space on the
    KnotVector `kv`, size (n-2) x n.

    Column block layout ``[c | I_{n-2} | c]`` with
    ``c = (c1, 0, ..., 0, c2)^T``; every column sums to 1.
    """
    _check_c1_periodic(kv)
    n = kv.n
    c1, c2 = _periodic_weights(kv)
    rows = [0, n - 3] + list(range(n - 2)) + [0, n - 3]
    cols = [0, 0] + list(range(1, n - 1)) + [n - 1, n - 1]
    vals = [c1, c2] + [1.0] * (n - 2) + [c1, c2]
    return csr_from_triplet((rows, cols, vals), (n - 2, n))


def periodic_h1(kv):
    """Extraction matrix of the C0-periodic derivative basis of the space
    on the KnotVector `kv`, (n-2) x (n-1).

    Identity of size n-3 in the upper middle block; the last row carries
    c2 in the first column and c1 in the last.
    """
    _check_c1_periodic(kv)
    n = kv.n
    c1, c2 = _periodic_weights(kv)
    rows = list(range(n - 3)) + [n - 3, n - 3]
    cols = list(range(1, n - 2)) + [0, n - 2]
    vals = [1.0] * (n - 3) + [c2, c1]
    return csr_from_triplet((rows, cols, vals), (n - 2, n - 1))


# ============================= spline spaces ================================

class SplineSpace:
    """Degree-p spline space on an open knot vector, optionally restricted
    to its C1-periodic subspace.

    The periodic restriction ties value and first derivative at the two
    interval endpoints; its basis is ``H0 @ B`` with two fewer functions
    than the full space, and parameters are identified modulo the interval
    length before evaluation.
    """

    def __init__(self, kv, periodic=False):
        self.kv = kv
        self.periodic = bool(periodic)
        self.h0 = periodic_h0(kv) if self.periodic else None
        self.h1 = periodic_h1(kv) if self.periodic else None

    @property
    def degree(self):
        return self.kv.degree

    @property
    def dim(self):
        return self.kv.n - 2 if self.periodic else self.kv.n

    @property
    def interval(self):
        return self.kv.interval

    @cached_property
    def derivative_scales(self):
        """Scales of the degree-(p-1) basis spanning the derivatives: its
        j-th function is ``p / (t_{j+p+1} - t_{j+1})`` times the j-th
        B-spline on the clipped knot vector ``(t_2, ..., t_{n+p})``."""
        p, t = self.kv.degree, self.kv.knots
        if p < 1:
            raise ValueError("derivative basis needs degree >= 1")
        denom = t[p + 1 : -1] - t[1 : -p - 1]
        if np.any(denom <= 0):
            raise ValueError(
                "derivative basis requires interior knot multiplicity <= degree"
            )
        scales = p / denom
        scales.setflags(write=False)
        return scales

    @cached_property
    def difference_stencil(self):
        """The space's coefficient-difference stencil, built once."""
        return difference_matrix(self.dim, self.periodic)

    @cached_property
    def _span_tables(self):
        """Per knot span: the functions nonzero there and the monomial
        coefficients, in the span-local coordinate u in [0, 1], of their
        values, derivatives and derivative-space values.

        Returns ``index`` (spans, 2, w), the 0-based indices of the
        functions of the space ([:, 0]) and of its derivative space ([:, 1])
        that can be nonzero on each span, padded with index 0; the two
        local widths, of which w is the larger; the knots
        ``t_p .. t_{n-1}`` (span k's left end is entry k); each span's
        inverse length; and ``table`` (spans, p+1, 3, w): power j of u
        times ``table[k, j]`` summed over j gives the span's values,
        derivatives and derivative-space values.  H0/H1 (periodic spaces),
        the derivative-basis scales and the difference stencil are folded
        in, so evaluation never touches a matrix the size of the space.
        The coefficients come from one Cox-de Boor pass at p+1 nodes of
        every span and one solve against the nodes' Vandermonde matrix;
        zero-length spans, which no parameter selects, keep zero rows.
        """
        p, n, knots = self.degree, self.kv.n, self.kv.knots
        spans = np.arange(p, n)
        ext0 = self.h0.toarray() if self.periodic else np.eye(n)
        value_blocks = ext0[:, spans[:, None] - p + np.arange(p + 1)]
        if p == 0:
            # piecewise constants: zero derivative, empty derivative space
            deriv_blocks = np.zeros((0, spans.size, 0))
            slope_blocks = np.zeros((self.dim, spans.size, 0))
        else:
            ext1 = self.h1.toarray() if self.periodic else np.eye(n - 1)
            ext1 = ext1 * self.derivative_scales
            cols = spans[:, None] - p + np.arange(p)
            deriv_blocks = ext1[:, cols]
            slope_blocks = (self.difference_stencil.T @ ext1)[:, cols]
        parts = [_nonzero_rows(mask.T > 0) for mask in (
            np.abs(value_blocks).sum(axis=2) + np.abs(slope_blocks).sum(axis=2),
            np.abs(deriv_blocks).sum(axis=2))]
        widths = tuple(ix.shape[1] for ix, _ in parts)
        index = np.zeros((spans.size, 2, max(widths)), dtype=np.intp)
        real = np.zeros(index.shape, dtype=bool)
        for d, (ix, re) in enumerate(parts):
            index[:, d, :ix.shape[1]], real[:, d, :re.shape[1]] = ix, re

        left = knots[spans]
        length = knots[spans + 1] - left
        live = length > 0
        nodes = np.linspace(0.0, 1.0, p + 1)
        x = (left[live, None] + length[live, None] * nodes).ravel()
        vals, lower = _basis_funs_batch(knots, p, x, np.repeat(spans[live], p + 1))
        k = np.flatnonzero(live)
        vals = vals.reshape(k.size, p + 1, p + 1)
        lower = lower.reshape(k.size, p + 1, p)
        at_nodes = np.concatenate([
            np.einsum("fkj,knj->knf", value_blocks[:, live], vals),
            np.einsum("fkj,knj->knf", slope_blocks[:, live], lower),
            np.einsum("fkj,knj->knf", deriv_blocks[:, live], lower),
        ], axis=2)
        # values and derivatives gather the space's functions, the third part
        # its derivative space's
        gather = (index[:, [0, 0, 1]] + np.arange(3)[:, None] * self.dim).reshape(spans.size, -1)
        at_nodes = np.take_along_axis(at_nodes, gather[k, None], axis=2)
        at_nodes *= real[:, [0, 0, 1]].reshape(spans.size, -1)[k, None]
        table = np.zeros((spans.size, p + 1, at_nodes.shape[2]))
        table[k] = np.linalg.solve(np.vander(nodes, increasing=True), at_nodes)
        inverse_length = np.divide(1.0, length, out=np.zeros_like(length), where=live)
        return (index, widths, left, inverse_length, table.reshape(spans.size, p + 1, 3, -1))

    def __repr__(self):
        tag = ", periodic" if self.periodic else ""
        return f"SplineSpace(degree={self.degree}, dim={self.dim}{tag})"


class SpanLookup:
    """The per-span tables of k spline spaces, stacked so that one call
    evaluates every space's local basis at its own parameters.

    A call validates an (m, k) array of parameters, column d for space d,
    wraps the periodic columns, finds every span in one binary search and
    contracts the powers of the span-local coordinates with the spans'
    tables (`SplineSpace._span_tables`) in one product.  The search runs
    over the complex keys ``d + 1j * knot``, which numpy orders by space
    first and by knot second, so no parameter is shifted and each lands in
    the span a search of its own space alone would give.

    It returns each parameter's row in the stacked tables, (m, k), and
    ``values`` (k, 3, w, m): the values, first derivatives and
    derivative-space values of the functions that ``index[row]`` (2, w)
    lists, those of the space ([0]) for the first two and those of its
    derivative space ([1]) for the third.  The width w is the largest
    local width of the k spaces, ``widths[d]`` space d's two local
    widths; padding slots carry index 0 and value 0.  ``owner`` maps a row
    to its space.
    """

    def __init__(self, spaces):
        tables = [sp._span_tables for sp in spaces]
        width = max(t[0].shape[2] for t in tables)
        order = max(t[4].shape[1] for t in tables)
        self.intervals = [sp.interval for sp in spaces]
        self.start, end = np.array(self.intervals).T
        self.widths = np.array([t[1] for t in tables])
        # Row 0 is a spare, so that the number of keys up to a parameter's
        # is its row: every span's left end, as an offset from the
        # interval's start, is one key.
        stop = np.cumsum([1] + [len(t[0]) for t in tables])
        self.index = np.zeros((stop[-1], 2, width), dtype=np.int64)
        table = np.zeros((stop[-1], order, 3, width))
        self.spans = np.zeros((stop[-1], 2))
        for a, b, start, (ix, _, left, inverse_length, coeffs) in zip(
                stop, stop[1:], self.start, tables):
            self.index[a:b, :, :ix.shape[2]] = ix
            table[a:b, :coeffs.shape[1], :, :coeffs.shape[3]] = coeffs
            self.spans[a:b] = np.column_stack([left - start, inverse_length])
        self.table = table.reshape(stop[-1], order, 3 * width)
        # the spaces' indices as complex numbers, to which a call adds 1j times its offsets
        self.space = np.arange(len(spaces)) + 0j
        self.owner = np.repeat(np.append(0, range(len(spaces))), np.diff(stop, prepend=0))
        self.keys = self.owner[1:] + 1j * self.spans[1:, 0]
        self.powers = np.arange(order)
        periodic = np.array([sp.periodic for sp in spaces])
        # an open space's parameters, checked to lie in its interval, keep
        # their offset from its start under an infinite modulus
        self.modulus = np.where(periodic, end - self.start, np.inf)
        # periodic columns only need to be finite; every comparison with
        # NaN fails
        big = np.finfo(float).max
        self.lower = np.where(periodic, -big, self.start)
        self.upper = np.where(periodic, big, end)

    def __call__(self, x, names):
        """(rows, values) at the (m, k) parameters `x`; errors name the
        parameters of column d `names[d]`."""
        inside = (x >= self.lower) & (x <= self.upper)
        if not inside.all():
            self._reject(x, inside, names)
        offset = (x - self.start) % self.modulus
        row = self.keys.searchsorted(offset * 1j + self.space, side="right")
        span = self.spans.take(row, axis=0)
        u = (offset - span[..., 0]) * span[..., 1]
        values = np.einsum("mkj,mkjw->kwm", u[..., None] ** self.powers,
                           self.table.take(row, axis=0), order="C")
        return row, values.reshape(len(self.space), 3, self.index.shape[2], len(x))

    def _reject(self, x, inside, names):
        for column, ok, name, (a, b) in zip(x.T, inside.T, names, self.intervals):
            finite = np.isfinite(column)
            if not finite.all():
                raise ValueError(f"{name} = {column[~finite][0]} is not finite")
            if not ok.all():
                raise ValueError(f"{name} = {column[~ok][0]} outside [{a}, {b}]")


# ========================== DTA compatibility ===============================

@dataclass
class DtaDiagnostic:
    """Outcome of the design-through-analysis compatibility check: `ok`
    when the matrix has full rank, unit column sums and no negative entry,
    and otherwise `violation` names the first of these that fails."""

    ok: bool
    rank: int
    min_entry: float
    max_column_sum_error: float
    max_row_support: int
    violation: str | None = None

    def __bool__(self):
        return self.ok


# Roundoff allowed in the column sums and below zero.
DTA_TOL = 1e-12


def dta_diagnostic(matrix, rank, joints=1):
    """Check full rank, unit column sums and non-negativity of the circle
    lift ``I (x) matrix`` over `joints` joints, `rank` the rank of one
    `matrix`, to within DTA_TOL.

    Column sums, the minimum entry and the row supports come from the
    stored entries in row order, so they equal those of the dense lift
    summed row by row.  Row support sizes are recorded in the diagnostic
    but DTA compatibility itself only constrains them through sparsity,
    not a hard bound.
    """
    M = sparse.csr_array(matrix)
    M.sum_duplicates()
    rows = triplet(M)[0]
    col_err = float(np.abs(np.bincount(M.indices, M.data, M.shape[1]) - 1.0).max())
    min_entry = float(M.data.min(initial=np.inf))
    if joints > 1 or M.nnz < M.shape[0] * M.shape[1]:
        min_entry = min(min_entry, 0.0)
    max_support = int(np.bincount(rows[np.abs(M.data) > DTA_TOL], minlength=M.shape[0]).max())
    rank, full = joints * rank, joints * min(M.shape)
    violation = None
    if rank != full:
        violation = f"rank deficient: rank {rank} < {full}"
    elif not col_err <= DTA_TOL:
        violation = f"column sums deviate from 1 by {col_err:.3e}"
    elif not min_entry >= -DTA_TOL:
        violation = f"negative entry {min_entry:.3e}"
    return DtaDiagnostic(
        ok=violation is None,
        rank=rank,
        min_entry=min_entry,
        max_column_sum_error=col_err,
        max_row_support=max_support,
        violation=violation,
    )
