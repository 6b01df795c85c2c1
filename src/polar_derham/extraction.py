"""Extraction operators defining the reduced (polar) spline spaces.

The reduced spaces are spanned by ``E @ B`` where B collects a
tensor-product level's basis functions and E is one of eight extraction
matrices.  All of them derive from four small per-joint blocks
(:func:`joint_blocks`): the vertex block tying the two innermost rings
of functions to three center functions through the 3 x 2n_r barycentric
center block, the two edge blocks that feed the center edges from it and
map the outer functions onto edge rounds, and a plain selector for
faces/volumes.  :func:`lift_table` states how these eight and the three
incidence matrices lift per-joint blocks along the toroidal circle, and
:class:`LiftedFamily` is the one rule of both families: a matrix is its
override or its lift, and the blocks are read back from the matrices only
when the family holds an override.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .bsplines import csr_from_triplet, difference_triplet
from .tensor import (LEVEL_PATTERNS, LiftTable, cat_triplets, check_level, check_size_floors,
                     eye_triplet)

__all__ = [
    "EbarBlock",
    "control_angles",
    "PolarCounts",
    "ExtractionSet",
    "LiftedFamily",
    "lifted_matrix",
    "ebar_block",
    "polar_counts",
    "joint_blocks",
    "lift_table",
    "ColumnTable",
    "assemble_3d",
    "gather",
    "basis_entries",
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

class LiftedFamily:
    """Matrices that are circle lifts of per-joint blocks, or overrides.

    A family holds the blocks' triplets as `joint_blocks` (in the order of
    its `labels`), the :class:`~polar_derham.tensor.LiftTable` `lifts` that
    makes its matrices `names()` of them, and `overrides` (name -> matrix,
    empty for a built complex), each a matrix that replaces its lift, as
    fault injection installs it.
    """

    @property
    def blocks(self):
        """The per-joint blocks' triplets keyed by label."""
        return dict(zip(self.labels, self.joint_blocks))

    def matrix(self, name):
        """The override of matrix `name`, or its circle lift."""
        if name in self.overrides:
            return self.overrides[name]
        return self.lifts.lift(self.blocks, (name,))[name]

    def read_blocks(self):
        """The per-joint blocks whose circle lifts the family's matrices are,
        as CSR keyed by label: without an override its own blocks, and with
        one the blocks :meth:`~polar_derham.tensor.LiftTable.read` reads back
        from every matrix, which raises StructureError naming a matrix that
        is no lift."""
        if not self.overrides:
            return {label: csr_from_triplet(b, self.lifts.shapes[label])
                    for label, b in self.blocks.items()}
        return self.lifts.read({name: getattr(self, name) for name in self.names()})


def lifted_matrix(name, kept=False):
    """A family's attribute `name`: its override or its circle lift, formed
    on each access, or with `kept` on the first and kept on the instance."""
    def get(self):
        return self.matrix(name)
    return cached_property(get) if kept else property(get)


class ColumnTable(NamedTuple):
    """The columns that one level's tensor functions add to the reduced
    functions, as the rows of the CSR `entries`: side by side per
    component, component l taking ``offsets[l]`` to ``offsets[l + 1]`` of
    one joint.

    The tensor function of component l with the
    :meth:`~polar_derham.tensor.TensorComplex.local_level_basis` key
    ``j * nr * ns + c`` (joint j, column c) adds the entries of row
    ``j * joint_cols + offsets[l] + c`` at the reduced functions from
    ``j * joint_rows`` on.  A lifted level holds one joint's block columns,
    with the signs and row offsets of its lift table: joint_rows the
    reduced functions of one joint, joint_cols 0.  A level with an override
    holds its own 3D columns, joint by joint, as a single joint:
    joint_rows 0, joint_cols the columns of one joint.
    """

    entries: sparse.csr_array
    offsets: np.ndarray
    joint_rows: int
    joint_cols: int


@dataclass(frozen=True)
class ExtractionSet(LiftedFamily):
    """All extraction matrices of one polar complex.

    The per-joint blocks' triplets (e0, e10, e01, e2), from which the
    incidence matrices follow, and the lift table that makes E000 to E111
    of them: the eight circle lifts, keyed by which directions carry the
    derivative basis.  Each is its override or is lifted when asked for
    and kept by nobody (:class:`LiftedFamily`).
    """

    counts: PolarCounts
    ebar: EbarBlock
    joint_blocks: tuple
    lifts: LiftTable
    overrides: dict = field(default_factory=dict)

    labels = ("e0", "e10", "e01", "e2")
    E000, E100, E010, E001, E011, E101, E110, E111 = map(
        lifted_matrix, ("E000", "E100", "E010", "E001", "E011", "E101", "E110", "E111"))

    @staticmethod
    def names():
        """E000 to E111, level by level in LEVEL_PATTERNS order."""
        return ["E" + "".join(str(b) for b in pat)
                for pats in LEVEL_PATTERNS.values() for pat in pats]

    def level_matrices(self, level):
        return [(pat, self.matrix("E" + "".join(map(str, pat)))) for pat in LEVEL_PATTERNS[level]]

    def columns(self, level):
        """CSC form of one level's matrices side by side, ``[E_1 E_2 E_3]``,
        lifted on each call: column c lists the reduced functions that
        function c of the level's tensor coefficients (its components in
        LEVEL_PATTERNS order) contributes to."""
        return sparse.hstack(
            [sparse.csc_array(E) for _, E in self.level_matrices(level)], format="csc")

    @cached_property
    def _tables(self):
        return {}

    def column_table(self, level):
        """The level's :class:`ColumnTable`, built on first use and kept on
        this instance: O(block nnz) for a lifted level."""
        if level not in self._tables:
            self._tables[level] = self._column_table(level)
        return self._tables[level]

    def _column_table(self, level):
        c, pats = self.counts, LEVEL_PATTERNS[level]
        names = ["E" + "".join(map(str, pat)) for pat in pats]
        widths = [c.nr * (c.ns - pat[1]) for pat in pats]
        offsets = np.cumsum([0] + widths)
        if any(name in self.overrides for name in names):
            # the 3D columns of component l, joint j sit at l's offset plus
            # j times its width; reorder them joint by joint
            at = np.cumsum([0] + [c.nt * w for w in widths])
            order = np.concatenate([
                np.arange(w) + a + j * w for j in range(c.nt) for w, a in zip(widths, at)])
            return ColumnTable(self.columns(level).T.tocsr()[order], offsets, 0, offsets[-1])
        parts = []
        for name, col0 in zip(names, offsets):
            # each E lifts one block with C = +/-I: its joint-0 entries
            ((c_row, c_col, c_val), (rows, cols, vals), row0, _), = self.lifts.kron_terms(
                name, self.blocks)
            sign = c_val[(c_row == 0) & (c_col == 0)]
            parts.append((cols + col0, rows + row0, sign * vals))
        joint_rows = self.lifts.terms[names[0]][0][0]
        return ColumnTable(csr_from_triplet(cat_triplets(parts), (offsets[-1], joint_rows)),
                           offsets, joint_rows, 0)

    def to_tensor(self, level, data):
        """The tensor coefficients ``[E_1^T data; E_2^T data; ...]`` of the
        reduced coefficients `data`: one sparse product of the level's
        table with the joints' coefficients side by side."""
        table, nt = self.column_table(level), self.counts.nt
        joints = nt if table.joint_rows else 1
        # x[row of one joint, joint]: an override's one joint holds them all
        x = np.asarray(data, dtype=float).reshape(joints, -1).T
        # (joints, columns of one joint)
        y = (table.entries @ x).reshape(-1, joints).T.reshape(nt, -1)
        stops = table.offsets
        out = np.empty(nt * stops[-1])
        for a, b in zip(stops, stops[1:]):
            out[nt * a:nt * b].reshape(nt, b - a)[...] = y[:, a:b]
        return out


def assemble_3d(nr, ns, nt, ebar=None):
    """The extraction set of n_t joints: its per-joint blocks and the lift
    table that :func:`lift_table` states, no matrix lifted."""
    counts = polar_counts(nr, ns, nt)
    ebar = ebar_block(nr) if ebar is None else ebar
    return ExtractionSet(counts=counts, ebar=ebar, joint_blocks=joint_blocks(nr, ns, ebar),
                         lifts=lift_table(counts))


# --------------------------- basis evaluation -------------------------------

def gather(table, products, stride):
    """The entries (slot, reduced function, weight) of the products'
    contributions through `table`: slot ``component * m + point``, in the
    order of the (K, k, m) `products` (keys, values), and of each column's
    entries.  `stride` is the keys' joint stride, nr * ns.  Padding slots,
    and functions that vanish at the point, add nothing."""
    keys, vals = products
    k, m = keys.shape[1:]
    vals = vals.ravel()
    live = vals.nonzero()[0]
    # keys, entry and slot are int64 from here, whatever the index dtypes
    keys, vals = keys.ravel()[live].astype(np.int64), vals[live]
    joints = keys // stride
    # joint * joint_cols + offset + column: the key minus its joint's
    # stride, less the joint's columns in an override's table
    flat = keys - joints * (stride - table.joint_cols) + table.offsets[live // m % k]
    entries = table.entries
    start = entries.indptr[flat]
    count = entries.indptr[flat + 1] - start
    entry = np.arange(live.size).repeat(count)
    pos = np.arange(entry.size) + (start - (count.cumsum() - count))[entry]
    rows = entries.indices[pos]
    if table.joint_rows:
        rows = rows + (joints * table.joint_rows)[entry]
    return live[entry] % (k * m), rows, entries.data[pos] * vals[entry]


def basis_entries(extraction, tensor, level, point):
    """The gathered entries of every reduced basis function of one level
    at the points, unsummed: (slot, function, weight) arrays, slot
    ``component * m + point``; the function's value at the point is the
    sum of its weights there, and every function without an entry is 0."""
    level = check_level(level)
    factors = tensor.local_factors(point)
    return gather(extraction.column_table(level), tensor.local_level_basis(level, factors),
                  tensor.nr * tensor.ns)


def reduced_basis_values(extraction, tensor, level, point):
    """Values of every reduced basis function of one level: the
    :func:`basis_entries` summed into a dense array.

    `point` is one (r, s, t) point or an (m, 3) array of points.  The
    result has shape (n_level,) for the scalar levels 0 and 3 and
    (n_level, 3) for the vector levels 1 and 2, with a leading m axis for
    a batch.  The gather costs O(p^3) per point, but the dense result
    zero-fills m * n_level * k values, so the cost grows with the mesh: one
    level-0 point took 45 us at (8,8,6) and 54 us at (48,48,24), against
    40 us at both for :func:`basis_entries` (medians of 200, 2-vCPU Xeon).
    For O(p^3) work per point use :func:`basis_entries`, or a pushforward
    for a field.
    """
    slot, rows, weights = basis_entries(extraction, tensor, level, point)
    shape, n = np.shape(point), extraction.counts.level_dim(level)
    k, m = len(LEVEL_PATTERNS[level]), shape[0] if len(shape) == 2 else 1
    out = np.bincount(slot * n + rows, weights=weights, minlength=k * m * n)
    out = out.reshape(k, m, n).transpose(1, 2, 0)
    if k == 1:
        out = out[..., 0]
    return out if len(shape) == 2 else out[0]
