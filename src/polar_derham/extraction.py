"""Extraction operators defining the reduced (polar) spline spaces.

The reduced spaces are spanned by ``E @ B`` where B collects a
tensor-product level's basis functions and E is one of eight extraction
matrices.  All of them derive from four small per-joint blocks: the
3 x 2n_r barycentric block tying the two innermost rings of functions to
three center functions, the two edge-level blocks defined through their
actions, and a plain selector for faces/volumes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .tensor import wrap1

__all__ = [
    "EbarBlock",
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

    def col1(self, i):
        """First-ring column for 1-based poloidal index i (wraps)."""
        return self.matrix[:, wrap1(i, self.nr) - 1]

    def col2(self, i):
        """Second-ring column for 1-based poloidal index i (wraps)."""
        return self.matrix[:, self.nr + wrap1(i, self.nr) - 1]

    def delta2(self, i):
        """Second-ring column difference col2(i+1) - col2(i)."""
        return self.col2(i + 1) - self.col2(i)

    def perturbed(self, eps):
        """Copy with entry (1, (1, 2)) shifted by eps (negative control)."""
        m = self.matrix.copy()
        m[0, self.nr] += eps
        return EbarBlock(self.nr, m, self.thetas)


def ebar_block(nr):
    """Build the barycentric center block for n_r poloidal positions."""
    if nr < 3:
        raise ValueError(f"center block needs nr >= 3 poloidal positions, got {nr}")
    i = np.arange(1, nr + 1)
    thetas = (2.0 * np.pi + (1.0 - 2.0 * i) * np.pi / nr) % (2.0 * np.pi)
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


def polar_counts(nr, ns, nt):
    if nr < 3 or ns < 4 or nt < 3:
        raise ValueError(
            f"size floors violated: need (nr, ns, nt) >= (3, 4, 3), got ({nr}, {ns}, {nt})"
        )
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
    polar_counts(nr, ns, 3)  # size-floor validation
    eye = sparse.identity(nr * (ns - 2), dtype=float, format="csr")
    return sparse.block_diag(
        [sparse.csr_array(ebar.matrix), eye], format="csr"
    )


def _materialize(apply_fn, nrows, ncols):
    """Drive an action definition with unit vectors into a sparse matrix."""
    cols = np.empty((ncols, nrows))
    unit = np.zeros(ncols)
    for m in range(ncols):
        unit[m] = 1.0
        cols[m] = apply_fn(unit)
        unit[m] = 0.0
    return sparse.csr_array(cols.T)


def _e10_action(ebar, ns, x):
    """Poloidal edge-level action on a length n_r*n_s vector (1-based
    index arithmetic, result length nbar1)."""
    nr = ebar.nr
    nbar1 = 2 * (nr * (ns - 2) + 1)
    y = np.zeros(nbar1)
    for ell in (1, 2):
        acc = 0.0
        for i in range(1, nr + 1):
            acc += ebar.delta2(i)[ell] * x[i + nr - 1]
        y[ell - 1] = acc
    for j in range(3, ns + 1):
        for i in range(1, nr + 1):
            y[2 + i + (2 * j - 6) * nr - 1] = 0.0
            y[2 + i + (2 * j - 5) * nr - 1] = x[i + (j - 1) * nr - 1]
    return y


def _e01_action(ebar, ns, x):
    """Radial edge-level action on a length n_r*(n_s-1) vector."""
    nr = ebar.nr
    nbar1 = 2 * (nr * (ns - 2) + 1)
    y = np.zeros(nbar1)
    for ell in (1, 2):
        acc = 0.0
        for i in range(1, nr + 1):
            acc += (ebar.col2(i)[ell] - ebar.col1(i)[ell]) * x[i - 1]
        y[ell - 1] = acc
    for j in range(2, ns):
        for i in range(1, nr + 1):
            y[2 + i + (2 * j - 4) * nr - 1] = x[i + (j - 1) * nr - 1]
            y[2 + i + (2 * j - 3) * nr - 1] = 0.0
    return y


def extraction_e10(nr, ns, ebar=None):
    """Edge-level block acting on the poloidal-derivative component,
    materialized by driving its action with unit vectors."""
    ebar = ebar_block(nr) if ebar is None else ebar
    counts = polar_counts(nr, ns, 3)
    return _materialize(
        lambda x: _e10_action(ebar, ns, x), counts.nbar1, nr * ns
    )


def extraction_e01(nr, ns, ebar=None):
    """Edge-level block acting on the radial-derivative component."""
    ebar = ebar_block(nr) if ebar is None else ebar
    counts = polar_counts(nr, ns, 3)
    return _materialize(
        lambda x: _e01_action(ebar, ns, x), counts.nbar1, nr * (ns - 1)
    )


def extraction_e2(nr, ns):
    """Face/volume-level selector dropping the innermost ring."""
    counts = polar_counts(nr, ns, 3)
    rows = np.arange(counts.nbar2)
    cols = rows + nr
    vals = np.ones(counts.nbar2, dtype=np.int64)
    return sparse.coo_array(
        (vals, (rows, cols)), shape=(counts.nbar2, nr * (ns - 1))
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
        from .tensor import LEVEL_PATTERNS

        return [(pat, self.by_pattern(pat)) for pat in LEVEL_PATTERNS[level]]

    def names(self):
        return [
            "E000", "E100", "E010", "E001", "E011", "E101", "E110", "E111",
        ]

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
    """Assemble the eight extraction matrices for n_t joints."""
    counts = polar_counts(nr, ns, nt)
    ebar = ebar_block(nr) if ebar is None else ebar
    e0 = extraction_e0(nr, ns, ebar)
    e10 = extraction_e10(nr, ns, ebar)
    e01 = extraction_e01(nr, ns, ebar)
    e2 = extraction_e2(nr, ns)

    def zeros(m, n):
        return sparse.csr_array((m, n))

    nbar0, nbar1, nbar2 = counts.nbar0, counts.nbar1, counts.nbar2
    w0, w1 = nr * ns, nr * (ns - 1)
    eye = sparse.identity(nt, dtype=float, format="csr")

    def toroidal(block):
        return sparse.kron(eye, block, format="csr")

    return ExtractionSet(
        counts=counts,
        ebar=ebar,
        E0=e0,
        E10=e10,
        E01=e01,
        E2=e2,
        E000=toroidal(e0),
        E100=toroidal(sparse.vstack([e10, zeros(nbar0, w0)], format="csr")),
        E010=toroidal(sparse.vstack([e01, zeros(nbar0, w1)], format="csr")),
        E001=toroidal(sparse.vstack([zeros(nbar1, w0), e0], format="csr")),
        E011=toroidal(sparse.vstack([zeros(nbar2, w1), e01], format="csr")),
        E101=toroidal(sparse.vstack([zeros(nbar2, w0), -e10], format="csr")),
        E110=toroidal(sparse.vstack([e2.astype(float), zeros(nbar1, w1)], format="csr")),
        E111=sparse.kron(sparse.identity(nt, dtype=np.int64, format="csr"), e2, format="csr"),
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
    n_level = (extraction.counts.n0, extraction.counts.n1,
               extraction.counts.n2, extraction.counts.n3)[level]
    if not 1 <= ell <= n_level:
        raise IndexError(f"basis index {ell} out of range 1..{n_level}")
    values = reduced_basis_values(extraction, tensor, level, point)
    return values[ell - 1]
