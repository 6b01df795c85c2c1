"""Incidence matrices of the polar control ring and the cohomology engine.

The reduced complex acts on degrees of freedom attached to the vertices,
edges, faces and volumes of a polygonal ring with n_t joints.  Three
matrices encode gradient, curl and divergence on those DOFs; their
entries are +/-1 except near the ring centers, where the barycentric
center block supplies the weights.

The complex is the 2D polar-disk complex of one joint tensored with the
periodic toroidal circle.  Per joint, the DOFs are ordered

* vertices: ``[nbar0]``,
* edges: ``[in-joint nbar1 | toroidal nbar0]``,
* faces: ``[joint nbar2 | side nbar1]``,
* volumes: ``[nbar2]``,

and the disk blocks d0 (nbar1 x nbar0, vertices to in-joint edges) and d1
(nbar2 x nbar1, in-joint edges to joint faces) lift with the periodic
difference stencil Dt of the joints to

* ``D0 = I (x) [d0; 0] + Dt (x) [0; I]``,
* ``D1 = I (x) diag(d1, d0) + Dt (x) [[0, 0], [-I, 0]]``,
* ``D2 = I (x) [0, d1] + Dt (x) [I, 0]``.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .bsplines import difference_matrix
from .extraction import PolarCounts, ebar_block, edge_round, polar_counts
from .tensor import LEVEL_PATTERNS, cat_triplets, circulant_blocks, eye_triplet, kron_lift, triplet

__all__ = [
    "IncidenceSet",
    "CohomologyReport",
    "FrequencyRanks",
    "build_incidence",
    "verify_commutation",
    "cohomology_dimensions",
    "divergence_preimage",
    "max_abs",
    "rank_with_gap",
    "toroidal_spectrum",
]


# ============================ polar disk =====================================

def _disk_blocks(ebar, ns):
    """The per-joint disk blocks d0 and d1 as (rows, cols, vals) triplets,
    and the rows of each that carry center-block weights.

    Outer vertex ``(i, ring)`` sits at ``3 + ring * n_r + i`` after the
    three center vertices and face ``(i, ring)`` at ``ring * n_r + i``.
    Apart from the weighted rows and the two center edges, every entry
    comes from the periodic (poloidal) and open (radial) difference
    stencils.
    """
    nr, rings = ebar.nr, ns - 2
    i = np.arange(nr)
    ring = np.arange(rings)[:, None]
    dr_row, dr_col, dr_val = triplet(difference_matrix(nr, periodic=True))
    ds_row, ds_col, ds_val = triplet(difference_matrix(rings, periodic=False))
    dr_vals = np.tile(dr_val, (rings, 1))
    first = edge_round(nr, 0, 0) + i
    d0 = cat_triplets([
        # center edges: vertex 2 - vertex 1 and vertex 3 - vertex 1
        ([0, 0, 1, 1], [1, 0, 2, 0], [1, -1, 1, -1]),
        # first radial round: ring-0 vertex minus its center combination
        (first, 3 + i, np.ones(nr)),
        (np.tile(first, 3), np.repeat([0, 1, 2], nr), -ebar.matrix[:, nr:]),
        # poloidal rounds around every ring
        (edge_round(nr, ring, 1) + dr_row, 3 + ring * nr + dr_col, dr_vals),
        # radial rounds between consecutive rings
        (edge_round(nr, ds_row[:, None] + 1, 0) + i, 3 + ds_col[:, None] * nr + i,
         np.repeat(ds_val[:, None], nr, axis=1)),
    ])
    d1 = cat_triplets([
        # innermost faces: the two center edges replace the missing inner round
        (np.tile(i, 2), np.repeat([0, 1], nr), ebar.ring_steps()),
        # the radial edges on either side of each face
        (ring * nr + dr_row, edge_round(nr, ring, 0) + dr_col, dr_vals),
        # the poloidal edges outside and inside each face
        (ring * nr + i, edge_round(nr, ring, 1) + i, -np.ones((rings, nr))),
        (ring[1:] * nr + i, edge_round(nr, ring[:-1], 1) + i, np.ones((rings - 1, nr))),
    ])
    return d0, d1, first, i


@dataclass(frozen=True)
class IncidenceSet:
    """The three DOF-level differential operators of one polar complex."""

    counts: PolarCounts
    D0: sparse.csr_array
    D1: sparse.csr_array
    D2: sparse.csr_array
    # rows whose entries carry center-block weights rather than pure +/-1
    weighted_rows: dict = field(default_factory=dict)


def build_incidence(nr, ns, nt, ebar=None):
    """D0, D1 and D2 on n_t joints: the disk blocks lifted along the
    circle as the module docstring sets out."""
    c = polar_counts(nr, ns, nt)
    ebar = ebar_block(nr) if ebar is None else ebar
    d0, d1, w0, w1 = _disk_blocks(ebar, ns)
    n0, n1, n2 = c.nbar0, c.nbar1, c.nbar2
    same, step = eye_triplet(nt), triplet(difference_matrix(nt, periodic=True))

    def lifted_rows(stride, *joint_rows):
        joints = np.arange(nt)[:, None] * stride
        return sorted(np.concatenate([(joints + r).ravel() for r in joint_rows]).tolist())

    return IncidenceSet(
        counts=c,
        D0=kron_lift(nt, (n1 + n0, n0), [(same, d0, 0, 0), (step, eye_triplet(n0), n1, 0)]),
        D1=kron_lift(nt, (n2 + n1, n1 + n0), [
            (same, d1, 0, 0), (same, d0, n2, n1), (step, eye_triplet(n1, -1.0), n2, 0),
        ]),
        D2=kron_lift(nt, (n2, n2 + n1), [(same, d1, 0, n2), (step, eye_triplet(n2), 0, 0)]),
        weighted_rows={
            "D0": lifted_rows(n1 + n0, w0),
            "D1": lifted_rows(n2 + n1, w1, n2 + w0),
            "D2": lifted_rows(n2, w1),
        },
    )


def max_abs(matrix):
    """Largest absolute entry of a sparse matrix (0 for an empty one)."""
    if sparse.issparse(matrix):
        data = matrix.tocoo().data
        return float(np.abs(data).max()) if data.size else 0.0
    arr = np.asarray(matrix)
    return float(np.abs(arr).max()) if arr.size else 0.0


# ============================ commutation ====================================

_IDENTITY_NAMES = (("grad_r", "grad_s", "grad_t"), ("curl_1", "curl_2", "curl_3"), ("div",))


def verify_commutation(tensor, extraction, incidence):
    """Max-abs residuals of the seven matrix commutation identities.

    For each level l < 3, with T_l the stacked transposed extraction
    matrices of level l, ``op_l T_l - T_{l+1} D_l`` must vanish; its rows
    split by the components of level l + 1 into three gradient diagrams,
    three curl diagrams and the divergence diagram.  All vanish
    identically up to roundoff in the center-block weights.
    """
    lift = [sparse.hstack([E for _, E in extraction.level_matrices(level)], format="csr").T
            for level in range(4)]
    residuals = {}
    for level, names in enumerate(_IDENTITY_NAMES):
        try:
            residual = (tensor.level_operator(level) @ lift[level]
                        - lift[level + 1] @ getattr(incidence, f"D{level}"))
        except ValueError as exc:
            raise ValueError(
                f"commutation identities {names}: inconsistent matrix shapes "
                f"(construction bug): {exc}"
            ) from exc
        sizes = [tensor.component_dim(pat) for pat in LEVEL_PATTERNS[level + 1]]
        bounds = np.cumsum([0] + sizes)
        for name, start, stop in zip(names, bounds[:-1], bounds[1:]):
            residuals[name] = max_abs(residual[start:stop])
    return residuals


# ============================ cohomology =====================================

@dataclass(frozen=True)
class FrequencyRanks:
    """Rank decisions of the frequency-k blocks of D0, D1 and D2.

    The blocks of k and nt - k are complex conjugates with the same
    singular values, so frequencies 0 < k < nt/2 count twice
    (`multiplicity`).  `dims` is the cohomology of the frequency-k block
    complex.
    """

    k: int
    multiplicity: int
    ranks: tuple
    gap_ratios: tuple
    dims: tuple


@dataclass
class CohomologyReport:
    """Kernel-modulo-image dimensions of the reduced complex."""

    dims: tuple
    ranks: tuple
    gap_ratios: tuple
    sv_bracket: tuple
    euler_characteristic: int
    alternating_dim_sum: int
    warnings: list
    harmonic_one_form: np.ndarray | None = None
    frequencies: list = field(default_factory=list)

    @property
    def euler_ok(self):
        return self.euler_characteristic == self.alternating_dim_sum

    @property
    def kunneth_ok(self):
        """Every nonzero toroidal frequency is exact, as the Kunneth
        formula requires of the disk complex tensored with the circle."""
        return all(not any(f.dims) for f in self.frequencies if f.k)


def _decide(svals, tol):
    """(rank, gap ratio, (smallest kept, largest dropped)) of descending
    singular values at threshold `tol`."""
    rank = int((svals > tol).sum())
    kept = float(svals[rank - 1]) if rank > 0 else 0.0
    dropped = float(svals[rank]) if rank < svals.size else 0.0
    gap = kept / dropped if dropped > 0.0 else float("inf")
    return rank, gap, (kept, dropped)


def _threshold(rank_tol, shape, sigma_max):
    """The absolute `rank_tol`, or max(shape) * ulp * sigma_max."""
    return rank_tol if rank_tol is not None else max(shape) * np.finfo(float).eps * sigma_max


def rank_with_gap(matrix, rank_tol=None):
    """Numerical rank by singular-value counting on the dense matrix.

    Returns (rank, gap_ratio, (smallest kept, largest dropped)).  The
    default threshold is max(shape) * ulp * sigma_max; `rank_tol`
    overrides it with an absolute cutoff.  The dense cross-check of
    :func:`toroidal_spectrum`.
    """
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, float)
    svals = np.linalg.svd(dense, compute_uv=False)
    return _decide(svals, _threshold(rank_tol, dense.shape, svals[0] if svals.size else 0.0))


def toroidal_spectrum(matrix, nt, name, vectors=False):
    """Singular values of a block-circulant matrix, one frequency at a time.

    Block (j, j + d) of `matrix` is the same C_d for every joint j
    (checked by :func:`~polar_derham.tensor.circulant_blocks`), so the DFT
    over the joints turns it into the blocks
    ``A_k = sum_d C_d exp(-2 pi i d k / nt)`` (Davis, *Circulant
    Matrices*, 1979).  A_{nt-k} is the conjugate of A_k, so k = 0..nt//2
    cover every singular value.  Returns the per-joint block shape, the
    descending singular values of each A_k and, with `vectors`, the full
    (u, s, vt) of the real A_0 (else None), from the same decomposition.
    """
    shape, (rows, offsets, cols, vals) = circulant_blocks(matrix, nt, name)
    at, entry = np.unique(rows * shape[1] + cols, return_inverse=True)
    coeffs = np.zeros((at.size, nt))
    coeffs[entry, offsets] = vals
    spectrum = np.fft.rfft(coeffs, axis=1)
    svals, svd0 = [], None
    for k in range(nt // 2 + 1):
        real = 2 * k % nt == 0
        block = np.zeros(shape, float if real else complex)
        block.flat[at] = spectrum[:, k].real if real else spectrum[:, k]
        if k == 0 and vectors:
            svd0 = np.linalg.svd(block)
            svals.append(svd0[1])
        else:
            svals.append(np.linalg.svd(block, compute_uv=False))
    return shape, svals, svd0


def cohomology_dimensions(incidence, rank_tol=None, harmonic=True):
    """Compute the cohomology dimensions of the reduced complex.

    h0 = dim ker D0, h1 = dim ker D1 - rank D0, h2 = dim ker D2 - rank D1,
    h3 = n3 - rank D2.  Ranks count the singular values of the toroidal
    frequency blocks (:func:`toroidal_spectrum`) above the threshold of
    the full matrix; a StructureError is raised for a D that is not
    block-circulant over the joints.  A gap ratio below 1e3 at any rank
    decision is recorded as a warning, not a failure.  A least-squares
    harmonic representative of h1 (kernel of D1 orthogonal to the image
    of D0) is attached as a non-normative diagnostic; it is constant over
    the joints, so it comes from the frequency-0 blocks.
    """
    c = incidence.counts
    nt = c.nt
    multiplicity = [1 if 2 * k % nt == 0 else 2 for k in range(nt // 2 + 1)]
    decisions, per_frequency, shapes, full_svds = [], [], [], []
    for name in ("D0", "D1", "D2"):
        matrix = getattr(incidence, name)
        shape, svals, full = toroidal_spectrum(
            matrix, nt, name, vectors=harmonic and name != "D2")
        union = np.sort(np.concatenate(
            [np.tile(s, m) for s, m in zip(svals, multiplicity)]))[::-1]
        tol = _threshold(rank_tol, matrix.shape, union[0] if union.size else 0.0)
        decisions.append(_decide(union, tol))
        per_frequency.append([_decide(s, tol) for s in svals])
        shapes.append(shape)
        full_svds.append(full)
    (r0, g0, b0), (r1, g1, b1), (r2, g2, b2) = decisions
    dims = (c.n0 - r0, (c.n1 - r1) - r0, (c.n2 - r2) - r1, c.n3 - r2)
    (_, cols0), (_, cols1), (rows2, cols2) = shapes
    frequencies = []
    for k, ((k0, q0, _), (k1, q1, _), (k2, q2, _)) in enumerate(zip(*per_frequency)):
        frequencies.append(FrequencyRanks(
            k=k,
            multiplicity=multiplicity[k],
            ranks=(k0, k1, k2),
            gap_ratios=(q0, q1, q2),
            dims=(cols0 - k0, cols1 - k1 - k0, cols2 - k2 - k1, rows2 - k2),
        ))
    warnings = []
    for name, gap in (("D0", g0), ("D1", g1), ("D2", g2)):
        if gap < 1e3:
            warnings.append(
                f"ill-conditioned rank gap for {name}: ratio {gap:.3e} < 1e3"
            )
    rep = None
    if harmonic and dims[1] > 0:
        # the kernel of the frequency-0 D1 block orthogonal to the image of
        # the D0 block, tiled over the joints with unit norm
        (u0, _, _), (_, _, vt1) = full_svds[:2]
        rank00, rank10 = frequencies[0].ranks[:2]
        kernel = vt1[rank10:].T
        if kernel.shape[1]:
            image_basis = u0[:, :rank00]
            residual = kernel - image_basis @ (image_basis.T @ kernel)
            u, svals, _ = np.linalg.svd(residual)
            if svals.size and svals[0] > 0:
                rep = np.tile(u[:, 0], nt) / np.sqrt(nt)
    euler = dims[0] - dims[1] + dims[2] - dims[3]
    return CohomologyReport(
        dims=dims,
        ranks=(r0, r1, r2),
        gap_ratios=(g0, g1, g2),
        sv_bracket=(b0, b1, b2),
        euler_characteristic=euler,
        alternating_dim_sum=c.alternating_sum,
        warnings=warnings,
        harmonic_one_form=rep,
        frequencies=frequencies,
    )


# ======================= divergence surjectivity =============================

def divergence_preimage(counts, m, beta=0.0):
    """Back-substitute a level-2 coefficient vector h with D2 @ h = m.

    Per joint, every joint face is set to the free parameter beta, the side
    faces of the two center edges and of the radial rounds are zeroed, and
    the side round of ring j's poloidal edges carries minus the running sum
    of the volumes of rings 0..j.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (counts.n3,):
        raise ValueError(f"expected {counts.n3} volume DOFs, got shape {m.shape}")
    nr, ns, nt = counts.nr, counts.ns, counts.nt
    h = np.zeros((nt, counts.nbar2 + counts.nbar1))
    h[:, :counts.nbar2] = beta
    rounds = h[:, counts.nbar2 + 2:].reshape(nt, ns - 2, 2, nr)
    rounds[:, :, 1] = -np.cumsum(m.reshape(nt, ns - 2, nr), axis=1)
    return h.ravel()
