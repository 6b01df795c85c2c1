"""Extraction operators defining the reduced (polar) spline spaces.

The reduced spaces are spanned by ``E @ B`` where B collects a
tensor-product level's basis functions and E is one of eight extraction
matrices.  All of them derive from four small per-joint blocks: the
3 x 2n_r barycentric block tying the two innermost rings of functions to
three center functions, the two edge-level blocks that feed the center
edges from it and map the outer functions onto edge rounds, and a plain
selector for faces/volumes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .tensor import LEVEL_PATTERNS, check_size_floors, eye_triplet, kron_lift, triplet

__all__ = [
    "EbarBlock",
    "control_angles",
    "PolarCounts",
    "ExtractionSet",
    "ebar_block",
    "polar_counts",
    "extraction_e0",
    "extraction_e10",
    "extraction_e01",
    "extraction_e2",
    "assemble_3d",
    "reduced_basis_values",
    "reduced_basis_eval",
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
    check_size_floors(nr, ns, nt)
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

def extraction_e0(nr, ns, ebar=None):
    """Vertex-level block: block diagonal of the center block and an
    identity over the outer rings; DTA-compatible by construction."""
    ebar = ebar_block(nr) if ebar is None else ebar
    eye = sparse.identity(nr * (ns - 2), dtype=float, format="csr")
    return sparse.block_diag(
        [sparse.csr_array(ebar.matrix), eye], format="csr"
    )


def edge_round(nr, ring, poloidal):
    """First per-joint edge index of one round of n_r edges.

    After the two center edges, every outer vertex ring (0-based `ring`)
    owns the radial round reaching it (``poloidal=0``), then the poloidal
    round running around it (``poloidal=1``).
    """
    return 2 + (2 * ring + poloidal) * nr


def _edge_block(nr, ns, head, poloidal):
    """Per-joint edge block of one derivative component.

    The 2 x n_r `head` ties the component's function ring `poloidal` to the
    two center edges; the following function rings map one to one, in
    order, onto the poloidal (1) or radial (0) edge rounds of vertex rings
    0, 1, ...
    """
    i = np.arange(nr)
    ring = np.arange(ns - 2)[:, None]
    rows = np.append(np.repeat([0, 1], nr), edge_round(nr, ring, poloidal) + i)
    cols = np.append(np.tile(poloidal * nr + i, 2), (ring + poloidal + 1) * nr + i)
    vals = np.append(head, np.ones(nr * (ns - 2)))
    shape = (2 * nr * (ns - 2) + 2, nr * (ns - 1 + poloidal))
    mat = sparse.coo_array((vals, (rows, cols)), shape=shape).tocsr()
    mat.eliminate_zeros()
    return mat


def extraction_e10(nr, ns, ebar=None):
    """Edge-level block acting on the poloidal-derivative component: the
    center edges take the center block's second-ring poloidal steps, the
    outer functions feed the poloidal rounds."""
    ebar = ebar_block(nr) if ebar is None else ebar
    return _edge_block(nr, ns, ebar.ring_steps(), poloidal=1)


def extraction_e01(nr, ns, ebar=None):
    """Edge-level block acting on the radial-derivative component: the
    center edges take the center block's first-to-second-ring change, the
    outer functions feed the radial rounds."""
    ebar = ebar_block(nr) if ebar is None else ebar
    head = ebar.matrix[1:, nr:] - ebar.matrix[1:, :nr]
    return _edge_block(nr, ns, head, poloidal=0)


def extraction_e2(nr, ns):
    """Face/volume-level selector dropping the innermost ring."""
    rows = np.arange(nr * (ns - 2))
    vals = np.ones(rows.size, dtype=np.int64)
    return sparse.coo_array(
        (vals, (rows, rows + nr)), shape=(rows.size, nr * (ns - 1))
    ).tocsr()


# ----------------------------- 3D assembly ----------------------------------

@dataclass(frozen=True)
class ExtractionSet:
    """All extraction matrices of one polar complex.

    Per-joint blocks E0, E10, E01, E2 plus the eight toroidal assemblies,
    keyed by which directions carry the derivative basis.
    """

    counts: PolarCounts
    ebar: EbarBlock
    E0: sparse.csr_array
    E10: sparse.csr_array
    E01: sparse.csr_array
    E2: sparse.csr_array
    E000: sparse.csr_array
    E100: sparse.csr_array
    E010: sparse.csr_array
    E001: sparse.csr_array
    E011: sparse.csr_array
    E101: sparse.csr_array
    E110: sparse.csr_array
    E111: sparse.csr_array

    def by_pattern(self, pattern):
        return getattr(self, "E" + "".join(str(b) for b in pattern))

    def level_matrices(self, level):
        return [(pat, self.by_pattern(pat)) for pat in LEVEL_PATTERNS[level]]

    def names(self):
        """E000 to E111, level by level in LEVEL_PATTERNS order."""
        return ["E" + "".join(str(b) for b in pat)
                for pats in LEVEL_PATTERNS.values() for pat in pats]

    @cached_property
    def _columns(self):
        return {}

    def columns(self, pattern):
        """CSC form of one component's matrix, converted on first use and
        kept on this instance: column c lists the reduced functions that
        tensor function c contributes to."""
        cache = self._columns
        if pattern not in cache:
            cache[pattern] = sparse.csc_array(self.by_pattern(pattern))
        return cache[pattern]


def assemble_3d(nr, ns, nt, ebar=None):
    """Assemble the eight extraction matrices for n_t joints: each is the
    identity over the joints Kronecker one per-joint block, placed inside
    the level's per-joint row layout (see :mod:`polar_derham.incidence`)."""
    counts = polar_counts(nr, ns, nt)
    ebar = ebar_block(nr) if ebar is None else ebar
    e0 = extraction_e0(nr, ns, ebar)
    e10 = extraction_e10(nr, ns, ebar)
    e01 = extraction_e01(nr, ns, ebar)
    e2 = extraction_e2(nr, ns)
    n0, n1, n2 = counts.nbar0, counts.nbar1, counts.nbar2
    w0, w1 = nr * ns, nr * (ns - 1)
    t0, t10, t01, t2 = (triplet(b) for b in (e0, e10, e01, e2))

    def joints(block, shape, row0=0, sign=1.0):
        return kron_lift(nt, shape, [(eye_triplet(nt, sign), block, row0, 0)])

    return ExtractionSet(
        counts=counts,
        ebar=ebar,
        E0=e0,
        E10=e10,
        E01=e01,
        E2=e2,
        E000=joints(t0, (n0, w0)),
        E100=joints(t10, (n1 + n0, w0)),
        E010=joints(t01, (n1 + n0, w1)),
        E001=joints(t0, (n1 + n0, w0), row0=n1),
        E011=joints(t01, (n2 + n1, w1), row0=n2),
        E101=joints(t10, (n2 + n1, w0), row0=n2, sign=-1.0),
        E110=joints(t2, (n2 + n1, w1)),
        E111=joints(t2, (n2, w1), sign=1),
    )


# --------------------------- basis evaluation -------------------------------

def _gather(extraction, tensor, pattern, factors):
    """Triplets (point, reduced row, weight) of ``E[:, cols] @ b[cols]``.

    Only the columns of E that belong to the tensor functions nonzero at
    each point are read, so the cost per point is the local support size
    times the column length, independent of the mesh size.
    """
    cols, vals = tensor.local_component_basis(pattern, factors)
    csc = extraction.columns(pattern)
    flat = cols.ravel()
    start = csc.indptr[flat]
    count = csc.indptr[flat + 1] - start
    entry = np.repeat(np.arange(flat.size), count)
    pos = np.arange(entry.size) + (start - (np.cumsum(count) - count))[entry]
    return entry // cols.shape[1], csc.indices[pos], csc.data[pos] * vals.ravel()[entry]


def reduced_basis_values(extraction, tensor, level, point, coeffs=None):
    """Values of every reduced basis function of one level, or of a field.

    `point` is one (r, s, t) point or an (m, 3) array of points.  Without
    `coeffs` the result holds every basis function: shape (n_level,) for
    the scalar levels 0 and 3 and (n_level, 3) for the vector levels 1
    and 2, with a leading m axis for a batch.  With a length-n_level
    `coeffs` it holds the field ``sum_l coeffs[l] * phi_l``: a scalar or
    (3,), with a leading m axis for a batch.
    """
    mats = extraction.level_matrices(level)
    n = mats[0][1].shape[0]
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n,):
            raise ValueError(
                f"level-{level} field needs {n} coefficients, got {coeffs.shape}"
            )
    factors = tensor.local_factors(point)
    m = factors.size
    comps = []
    for pat, _ in mats:
        pts, rows, weights = _gather(extraction, tensor, pat, factors)
        if coeffs is None:
            flat = np.bincount(pts * n + rows, weights=weights, minlength=m * n)
            comps.append(flat.reshape(m, n))
        else:
            comps.append(np.bincount(pts, weights=coeffs[rows] * weights, minlength=m))
    out = comps[0] if level in (0, 3) else np.stack(comps, axis=-1)
    return out[0] if factors.single else out


def reduced_basis_eval(extraction, tensor, level, ell, point):
    """Value of the 1-based ell-th reduced basis function of a level."""
    n_level = extraction.counts.level_dim(level)
    if not 1 <= ell <= n_level:
        raise IndexError(f"basis index {ell} out of range 1..{n_level}")
    values = reduced_basis_values(extraction, tensor, level, point)
    return values[ell - 1]
