"""Extraction operators defining the reduced (polar) spline spaces.

The reduced spaces are spanned by ``E @ B`` where B collects a
tensor-product level's basis functions and E is one of eight extraction
matrices.  All of them derive from four small per-joint blocks
(:func:`joint_blocks`): the vertex block tying the two innermost rings
of functions to three center functions through the 3 x 2n_r barycentric
center block, the two edge blocks that feed the center edges from it and
map the outer functions onto edge rounds, and a plain selector for
faces/volumes.  :func:`lift_table` states how these eight and the three
incidence matrices lift per-joint blocks along the toroidal circle: the
build lifts from it and the verification reads the blocks back through it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .bsplines import difference_triplet
from .tensor import LEVEL_PATTERNS, LiftTable, cat_triplets, check_size_floors, eye_triplet

__all__ = [
    "EbarBlock",
    "control_angles",
    "PolarCounts",
    "ExtractionSet",
    "ebar_block",
    "polar_counts",
    "joint_blocks",
    "lift_table",
    "assemble_3d",
    "reduced_basis_values",
]

# Maps barycentric deviations to the three center functions.
_BARY = np.array([[1.0 / 3.0, 0.0],
                  [-1.0 / 6.0, np.sqrt(3.0) / 6.0],
                  [-1.0 / 6.0, -np.sqrt(3.0) / 6.0]])


@dataclass(frozen=True)
class EbarBlock:
    """Dense 3 x 2n_r block combining the two innermost function rings.

    First n_r columns are constant 1/3; the remaining columns place the
    second ring barycentrically around the center, one angle per poloidal
    position.
    """

    nr: int
    matrix: np.ndarray
    thetas: np.ndarray

    def ring_steps(self):
        """Rows 2 and 3 of the second-ring column steps, column i + 1 minus
        column i (wrapping), as a 2 x n_r array."""
        second = self.matrix[1:, self.nr:]
        return np.roll(second, -1, axis=1) - second

    def perturbed(self, eps):
        """Copy with entry (1, (1, 2)) shifted by eps (negative control)."""
        m = self.matrix.copy()
        m[0, self.nr] += eps
        return EbarBlock(self.nr, m, self.thetas)


def control_angles(n):
    """Angles ``(2 pi + (1 - 2i) pi / n) mod 2 pi`` for i = 1..n: one per
    poloidal (or toroidal) position of the control nets."""
    i = np.arange(1, n + 1)
    return (2.0 * np.pi + (1.0 - 2.0 * i) * np.pi / n) % (2.0 * np.pi)


def ebar_block(nr):
    """Build the barycentric center block for n_r poloidal positions."""
    if nr < 3:
        raise ValueError(f"center block needs nr >= 3 poloidal positions, got {nr}")
    thetas = control_angles(nr)
    matrix = np.empty((3, 2 * nr))
    matrix[:, :nr] = 1.0 / 3.0
    matrix[:, nr:] = 1.0 / 3.0 + _BARY @ np.vstack([np.cos(thetas), np.sin(thetas)])
    return EbarBlock(nr, matrix, thetas)


# ------------------------------- counts -------------------------------------

@dataclass(frozen=True)
class PolarCounts:
    """Dimension bookkeeping of the reduced spaces."""

    nr: int
    ns: int
    nt: int
    nbar0: int
    nbar1: int
    nbar2: int
    n0: int
    n1: int
    n2: int
    n3: int

    @property
    def alternating_sum(self):
        return self.n0 - self.n1 + self.n2 - self.n3

    def level_dim(self, level):
        """Dimension n0, n1, n2 or n3 of one reduced level."""
        return (self.n0, self.n1, self.n2, self.n3)[level]


def polar_counts(nr, ns, nt):
    check_size_floors((2, 2, 2), (nr, ns, nt))  # the degree-free polar floors
    nbar0 = nr * (ns - 2) + 3
    nbar1 = 2 * (nbar0 - 2)
    nbar2 = nbar0 - 3
    return PolarCounts(
        nr=nr, ns=ns, nt=nt,
        nbar0=nbar0, nbar1=nbar1, nbar2=nbar2,
        n0=nt * nbar0,
        n1=nt * (nbar0 + nbar1),
        n2=nt * (nbar1 + nbar2),
        n3=nt * nbar2,
    )


# --------------------------- per-joint blocks -------------------------------

def joint_blocks(nr, ns, ebar):
    """The per-joint blocks e0, e10, e01 and e2 as triplets in CSR order,
    without zeros, in the shapes of :func:`lift_table`.  e0: the center
    block on the two innermost function rings, then one vertex per outer
    function.  e10 and e01, of the poloidal- and the radial-derivative
    component: the two center edges take the center block's second-ring
    steps (e10) or its first-to-second-ring change (e01); after them each
    vertex ring owns the radial round reaching it, then the poloidal round
    around it, and the outer function rings feed, in order, the poloidal
    (e10) or the radial (e01) rounds.  e2: every ring but the innermost.
    """
    outer = nr * (ns - 2)
    e0 = cat_triplets([
        (np.repeat(np.arange(3), 2 * nr), np.tile(np.arange(2 * nr), 3), ebar.matrix),
        (3 + np.arange(outer), 2 * nr + np.arange(outer), np.ones(outer)),
    ])
    i, ring = np.arange(nr), np.arange(ns - 2)[:, None]
    edges = [cat_triplets([
        (np.repeat([0, 1], nr), np.tile(poloidal * nr + i, 2), head),
        (2 + (2 * ring + poloidal) * nr + i, (ring + poloidal + 1) * nr + i, np.ones(outer)),
    ]) for head, poloidal in ((ebar.ring_steps(), 1),
                              (ebar.matrix[1:, nr:] - ebar.matrix[1:, :nr], 0))]
    e2 = np.arange(outer), np.arange(outer) + nr, np.ones(outer)
    return tuple(tuple(part[b[2] != 0] for part in b) for b in (e0, *edges, e2))


def lift_table(counts):
    """The :class:`~polar_derham.tensor.LiftTable` of E000 to E111 and D0
    to D2 over the nt joints, C the identity, its negative or the periodic
    difference stencil Dt.  The joint rows are ordered as in
    :mod:`polar_derham.incidence`: E001 places e0 below the in-joint edges,
    E011 and E101 place e01 and -e10 on the side faces."""
    c = counts
    n0, n1, n2 = c.nbar0, c.nbar1, c.nbar2
    w0, w1 = c.nr * c.ns, c.nr * (c.ns - 1)
    same, minus, step = eye_triplet(c.nt), eye_triplet(c.nt, -1.0), difference_triplet(c.nt, True)
    shapes = {"e0": (n0, w0), "e10": (n1, w0), "e01": (n1, w1), "e2": (n2, w1),
              "d0": (n1, n0), "d1": (n2, n1)}
    return LiftTable(c.nt, shapes, {
        "E000": ((n0, w0), [(same, "e0", 0, 0)]),
        "E100": ((n1 + n0, w0), [(same, "e10", 0, 0)]),
        "E010": ((n1 + n0, w1), [(same, "e01", 0, 0)]),
        "E001": ((n1 + n0, w0), [(same, "e0", n1, 0)]),
        "E011": ((n2 + n1, w1), [(same, "e01", n2, 0)]),
        "E101": ((n2 + n1, w0), [(minus, "e10", n2, 0)]),
        "E110": ((n2 + n1, w1), [(same, "e2", 0, 0)]),
        "E111": ((n2, w1), [(same, "e2", 0, 0)]),
        "D0": ((n1 + n0, n0), [(same, "d0", 0, 0), (step, eye_triplet(n0), n1, 0)]),
        "D1": ((n2 + n1, n1 + n0), [(same, "d1", 0, 0), (same, "d0", n2, n1),
                                    (step, eye_triplet(n1, -1.0), n2, 0)]),
        "D2": ((n2, n2 + n1), [(same, "d1", 0, n2), (step, eye_triplet(n2), 0, 0)]),
    })


# ----------------------------- 3D assembly ----------------------------------

@dataclass(frozen=True)
class ExtractionSet:
    """All extraction matrices of one polar complex.

    The eight circle lifts of the per-joint blocks, keyed by which
    directions carry the derivative basis, and the blocks' triplets (e0,
    e10, e01, e2), from which the incidence matrices follow.
    """

    counts: PolarCounts
    ebar: EbarBlock
    joint_blocks: tuple
    E000: sparse.csr_array
    E100: sparse.csr_array
    E010: sparse.csr_array
    E001: sparse.csr_array
    E011: sparse.csr_array
    E101: sparse.csr_array
    E110: sparse.csr_array
    E111: sparse.csr_array

    def level_matrices(self, level):
        return [(pat, getattr(self, "E" + "".join(map(str, pat)))) for pat in LEVEL_PATTERNS[level]]

    @staticmethod
    def names():
        """E000 to E111, level by level in LEVEL_PATTERNS order."""
        return ["E" + "".join(str(b) for b in pat)
                for pats in LEVEL_PATTERNS.values() for pat in pats]

    @cached_property
    def _columns(self):
        return {}

    def columns(self, level):
        """CSC form of one level's matrices side by side, ``[E_1 E_2 E_3]``,
        built on first use and kept on this instance: column c lists the
        reduced functions that function c of the level's tensor
        coefficients (its components in LEVEL_PATTERNS order) contributes
        to."""
        cache = self._columns
        if level not in cache:
            cache[level] = sparse.hstack(
                [sparse.csc_array(E) for _, E in self.level_matrices(level)], format="csc")
        return cache[level]


def assemble_3d(nr, ns, nt, ebar=None):
    """Assemble the eight extraction matrices for n_t joints, lifted from
    the per-joint blocks as :func:`lift_table` states."""
    counts = polar_counts(nr, ns, nt)
    ebar = ebar_block(nr) if ebar is None else ebar
    blocks = joint_blocks(nr, ns, ebar)
    lifts = lift_table(counts).lift(dict(zip(("e0", "e10", "e01", "e2"), blocks)),
                                    ExtractionSet.names())
    return ExtractionSet(counts=counts, ebar=ebar, joint_blocks=blocks, **lifts)


# --------------------------- basis evaluation -------------------------------

def reduced_basis_values(extraction, tensor, level, point, coeffs=None):
    """Values of every reduced basis function of one level, or of a field.

    `point` is one (r, s, t) point or an (m, 3) array of points.  Without
    `coeffs` the result holds every basis function: shape (n_level,) for
    the scalar levels 0 and 3 and (n_level, 3) for the vector levels 1
    and 2, with a leading m axis for a batch.  With a length-n_level
    `coeffs` it holds the field ``sum_l coeffs[l] * phi_l``: a scalar or
    (3,), with a leading m axis for a batch.

    The tensor functions nonzero at each point, for all of the level's
    components at once, select their columns of :meth:`ExtractionSet.columns`
    in one gather, so the cost per point is the local support size times
    the column length, independent of the mesh size.
    """
    csc = extraction.columns(level)
    n = csc.shape[0]
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n,):
            raise ValueError(
                f"level-{level} field needs {n} coefficients, got {coeffs.shape}"
            )
    factors = tensor.local_factors(point)
    cols, vals = tensor.local_level_basis(level, factors)
    k, m = cols.shape[1:]
    flat, vals = cols.ravel(), vals.ravel()
    start = csc.indptr[flat]
    # padding slots, and functions that vanish at the point, add nothing
    count = (csc.indptr[flat + 1] - start) * (vals != 0)
    # entry, slot and the key slot * n + rows below are int64, whatever
    # the index dtype of `csc`
    entry = np.repeat(np.arange(flat.size, dtype=np.int64), count)
    pos = np.arange(entry.size) + (start - (np.cumsum(count) - count))[entry]
    rows, weights = csc.indices[pos], csc.data[pos] * vals[entry]
    slot = entry % (k * m)  # component * m + point
    if coeffs is None:
        out = np.bincount(slot * n + rows, weights=weights, minlength=k * m * n)
        out = out.reshape(k, m, n).transpose(1, 2, 0)
    else:
        out = np.bincount(slot, weights=coeffs[rows] * weights, minlength=k * m).reshape(k, m).T
    if k == 1:
        out = out[..., 0]
    return out[0] if factors.single else out
