"""Tensor-product spline complexes on the parametric box.

The four levels of the tensor complex (scalar potentials, curl-domain
triples, div-domain triples, densities) share three univariate spaces:
periodic in the first and third directions, open in the second.  All
coefficient-level differential operators are Kronecker products of
identities with the bidiagonal difference stencils.

Coefficient layout: the first index runs fastest, so the coefficients of
a component with counts (nr, ns, nt) are the C-order array of shape
``(nt, ns, nr)``, and function (i, j, k), 0-based, sits at the flat index
``i + nr * (j + ns * k)``.  Spline control nets and tensor fields follow
this order; reduced vectors stack their per-joint blocks the same way,
joint index slowest.

Pointwise evaluation goes through :class:`LocalFactors`: the nonzero
univariate functions of every direction at a batch of points, from which
each component's local tensor support follows.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .bsplines import SplineSpace, make_uniform_open_knots

__all__ = [
    "check_size_floors",
    "triplet",
    "cat_triplets",
    "eye_triplet",
    "kron_lift",
    "StructureError",
    "circulant_blocks",
    "kron_block",
    "LocalFactors",
    "TensorComplex",
    "build_tensor_sequence",
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


def check_size_floors(nr, ns, nt):
    """Reject sizes below the smallest the polar construction supports,
    (nr, ns, nt) >= (3, 4, 3)."""
    if nr < 3 or ns < 4 or nt < 3:
        raise ValueError(
            f"size floors violated: need (nr, ns, nt) >= (3, 4, 3), got ({nr}, {ns}, {nt})"
        )


# ------------------------- one-pass Kronecker sums --------------------------

def triplet(matrix):
    """(rows, cols, vals) of a sparse matrix."""
    coo = sparse.coo_array(matrix)
    return coo.row, coo.col, coo.data


def cat_triplets(parts):
    """Concatenate (rows, cols, vals) parts into one flat triplet."""
    return tuple(np.concatenate([np.ravel(p[n]) for p in parts]) for n in range(3))


def eye_triplet(n, sign=1.0):
    """``sign * I_n`` as a triplet; `sign` also fixes the dtype."""
    return np.arange(n), np.arange(n), np.full(n, sign)


def kron_lift(n, block_shape, terms):
    """CSR sum of the Kronecker products ``C (x) B`` over (C, B, row0, col0).

    C (n x n) and B are (rows, cols, vals) triplets; B is placed at
    (row0, col0) inside a block of `block_shape`, repeated along C.  The
    entries keep the dtype of the products C * B; stored zeros are
    dropped.
    """
    rows, cols, vals = cat_triplets([
        (c_row[:, None] * block_shape[0] + row0 + b_row,
         c_col[:, None] * block_shape[1] + col0 + b_col,
         c_val[:, None] * b_val)
        for (c_row, c_col, c_val), (b_row, b_col, b_val), row0, col0 in terms
    ])
    shape = (n * block_shape[0], n * block_shape[1])
    mat = sparse.coo_array((vals, (rows, cols)), shape=shape).tocsr()
    mat.eliminate_zeros()
    return mat


class StructureError(Exception):
    """A matrix lacks the joint structure a structured rank decision needs.

    Not a ValueError: the input is well formed, the matrix itself fails.
    """


def circulant_blocks(matrix, n, name):
    """Block row 0 of a matrix that is block-circulant over n joints.

    The matrix splits into n x n blocks of one shape, and block
    (j, (j + d) mod n) must be the same C_d for every j.  This is checked
    exactly on the stored nonzero entries.  Returns the block shape and
    the (rows, offsets, cols, vals) of joint 0: value `vals` at local
    (row, col) of C_offset.  Raises StructureError naming the first joint
    whose entries differ from joint 0's.
    """
    coo = sparse.coo_array(matrix, copy=True)
    coo.sum_duplicates()
    if coo.shape[0] % n or coo.shape[1] % n:
        raise StructureError(f"{name}: shape {coo.shape} does not split into {n} joints")
    m, k = coo.shape[0] // n, coo.shape[1] // n
    keep = coo.data != 0
    joint, rows = np.divmod(coo.row[keep].astype(np.int64), m)
    offsets = (coo.col[keep] // k - joint) % n
    cols = coo.col[keep] % k
    order = np.argsort(((joint * m + rows) * n + offsets) * k + cols, kind="stable")
    counts = np.bincount(joint, minlength=n)
    differs = counts != counts[0]
    if not differs.any():
        entries = np.stack([rows, offsets, cols, coo.data[keep]])[:, order]
        entries = entries.reshape(4, n, counts[0])
        differs = (entries != entries[:, :1]).any(axis=(0, 2))
    if differs.any():
        raise StructureError(
            f"{name} is not block-circulant over {n} joints: the entries of "
            f"joint {int(np.argmax(differs))} differ from those of joint 0"
        )
    first = order[:counts[0]]
    return (m, k), (rows[first], offsets[first], cols[first], coo.data[keep][first])


def kron_block(matrix, n, name):
    """The block B of a matrix that is exactly ``I_n (x) B``, as CSR.

    Raises StructureError naming the first joint that breaks the pattern.
    """
    shape, (rows, offsets, cols, vals) = circulant_blocks(matrix, n, name)
    if offsets.any():
        raise StructureError(
            f"{name} is not I_{n} (x) block: joint 0 has entries in the block "
            f"column of joint {int(offsets[offsets != 0][0])}"
        )
    return sparse.csr_array((vals, (rows, cols)), shape=shape)


@dataclass(frozen=True)
class LocalFactors:
    """Local univariate bases of the three directions at m points.

    ``points`` is the validated (m, 3) array, ``bases`` one
    :class:`~polar_derham.bsplines.LocalBasis` per direction and
    ``single`` records that the input was one (3,) point, whose results
    the entry points return without the batch axis.
    """

    spaces: tuple
    points: np.ndarray
    bases: tuple
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
        for name, sp in (("r", space_r), ("s", space_s), ("t", space_t)):
            if sp.degree < 2:
                raise ValueError(
                    f"direction {name}: degree >= 2 required, got {sp.degree}"
                )
        self.spaces = (space_r, space_s, space_t)
        self.nr, self.ns, self.nt = (sp.dim for sp in self.spaces)
        check_size_floors(self.nr, self.ns, self.nt)

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

    def _direction_basis(self, axis, lowered, x):
        sp = self.spaces[axis]
        return sp.eval_deriv_space_basis(x) if lowered else sp.eval_basis(x)

    def eval_component_basis(self, pattern, point):
        """Dense vector of one component's tensor basis at (r, s, t)."""
        r, s, t = point
        br = self._direction_basis(0, pattern[0], r)
        bs = self._direction_basis(1, pattern[1], s)
        bt = self._direction_basis(2, pattern[2], t)
        return np.kron(bt, np.kron(bs, br))

    def local_factors(self, points):
        """Validate points and evaluate every direction's local basis once.

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
        bases = tuple(
            sp.eval_local(pts[:, axis], name)
            for axis, (sp, name) in enumerate(zip(self.spaces, "rst"))
        )
        return LocalFactors(self.spaces, pts, bases, single)

    def local_component_basis(self, pattern, points):
        """One component's tensor basis functions nonzero at each point.

        Returns (m, K) arrays of 0-based flat indices into the component's
        coefficients (the module's layout) and of values; K is
        the product of the three directions' local widths.
        """
        factors = self.local_factors(points)
        nr, ns, _ = self.component_shape(pattern)
        (ir, br), (is_, bs), (it, bt) = (
            (b.deriv_index, b.deriv_values) if lowered else (b.index, b.values)
            for b, lowered in zip(factors.bases, pattern)
        )
        m = factors.size
        cols = (it[:, :, None, None] * ns + is_[:, None, :, None]) * nr + ir[:, None, None, :]
        vals = bt[:, :, None, None] * (bs[:, :, None] * br[:, None, :])[:, None]
        return cols.reshape(m, -1), vals.reshape(m, -1)

    # --------------------- coefficient derivatives --------------------------

    def _eye(self, n):
        return sparse.identity(n, dtype=np.int64, format="csr")

    def derivative_r(self, s_count=None):
        """I x I x Delta_per acting along the first index."""
        s_count = self.ns if s_count is None else s_count
        delta = self.spaces[0].difference_stencil
        return sparse.kron(
            self._eye(self.nt), sparse.kron(self._eye(s_count), delta), format="csr"
        )

    def derivative_s(self):
        """I x Delta x I, lowering the open direction count by one."""
        delta = self.spaces[1].difference_stencil
        return sparse.kron(
            self._eye(self.nt), sparse.kron(delta, self._eye(self.nr)), format="csr"
        )

    def derivative_t(self, s_count=None):
        """Delta_per x I x I acting along the third index."""
        s_count = self.ns if s_count is None else s_count
        delta = self.spaces[2].difference_stencil
        return sparse.kron(
            delta, sparse.kron(self._eye(s_count), self._eye(self.nr)), format="csr"
        )

    def derivative_matrices(self):
        """The three coefficient-derivative matrices on level-0 input."""
        return self.derivative_r(), self.derivative_s(), self.derivative_t()

    def grad_matrix(self):
        """Stacked level-0 -> level-1 coefficient map (integer entries)."""
        dr, ds, dt = self.derivative_matrices()
        return sparse.vstack([dr, ds, dt], format="csr")

    def curl_matrix(self):
        """Block level-1 -> level-2 coefficient map (integer entries)."""
        ns1 = self.ns - 1
        dr, ds, dt = self.derivative_matrices()
        dr1 = self.derivative_r(ns1)
        dt1 = self.derivative_t(ns1)
        n_g1 = self.component_dim((1, 0, 0))
        n_g2 = self.component_dim((0, 1, 0))
        n_g3 = self.component_dim((0, 0, 1))

        def zeros(m, n):
            return sparse.csr_array((m, n), dtype=np.int64)

        row1 = [zeros(dt1.shape[0], n_g1), -dt1, ds]
        row2 = [dt, zeros(dt.shape[0], n_g2), -dr]
        row3 = [-ds, dr1, zeros(dr1.shape[0], n_g3)]
        return sparse.vstack(
            [sparse.hstack(r, format="csr") for r in (row1, row2, row3)],
            format="csr",
        )

    def div_matrix(self):
        """Block level-2 -> level-3 coefficient map (integer entries)."""
        ns1 = self.ns - 1
        return sparse.hstack(
            [self.derivative_r(ns1), self.derivative_s(), self.derivative_t(ns1)],
            format="csr",
        )

    # -------------------------- operator actions ----------------------------

    # Built on first use and kept: the complex is immutable.
    @cached_property
    def _grad(self):
        return self.grad_matrix()

    @cached_property
    def _curl(self):
        return self.curl_matrix()

    @cached_property
    def _div(self):
        return self.div_matrix()

    def apply_grad(self, coeffs):
        coeffs = self._check(coeffs, 0)
        return self._grad @ coeffs

    def apply_curl(self, coeffs):
        coeffs = self._check(coeffs, 1)
        return self._curl @ coeffs

    def apply_div(self, coeffs):
        coeffs = self._check(coeffs, 2)
        return self._div @ coeffs

    def _check(self, coeffs, level):
        coeffs = np.asarray(coeffs, dtype=float)
        expected = self.level_dim(level)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"level-{level} coefficients must have length {expected}, "
                f"got shape {coeffs.shape}"
            )
        return coeffs

    # ------------------------------ misc ------------------------------------

    def greville_points(self):
        """Level-0 Greville abscissae, one (r, s, t) row per flat index."""
        t, s, r = np.meshgrid(*(sp.greville() for sp in self.spaces[::-1]), indexing="ij")
        return np.column_stack([r.ravel(), s.ravel(), t.ravel()])


def build_tensor_sequence(degrees, dims, lengths=(1.0, 1.0, 1.0)):
    """Construct the tensor complex from degree and dimension triples.

    `dims` counts basis functions after the periodic reduction in the
    first and third directions; uniform open knot vectors are used, so the
    distinct-knot counts are ``n - p + 3`` (periodic) and ``n - p + 1``
    (open).
    """
    pr, ps, pt = degrees
    nr, ns, nt = dims
    if min(degrees) < 2:
        raise ValueError(f"degrees >= 2 required, got {degrees}")
    check_size_floors(nr, ns, nt)
    R, S, T = lengths
    space_r = SplineSpace(make_uniform_open_knots(pr, nr - pr + 3, 0.0, R), periodic=True)
    space_s = SplineSpace(make_uniform_open_knots(ps, ns - ps + 1, 0.0, S))
    space_t = SplineSpace(make_uniform_open_knots(pt, nt - pt + 3, 0.0, T), periodic=True)
    return TensorComplex(space_r, space_s, space_t)
