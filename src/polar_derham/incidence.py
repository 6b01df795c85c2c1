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
from .tensor import cat_triplets, eye_triplet, kron_lift, triplet

__all__ = [
    "IncidenceSet",
    "CohomologyReport",
    "build_incidence",
    "verify_commutation",
    "cohomology_dimensions",
    "divergence_preimage",
    "max_abs",
    "rank_with_gap",
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

def verify_commutation(tensor, extraction, incidence):
    """Max-abs residuals of the seven matrix commutation identities.

    Three gradient diagrams, three curl diagrams and the divergence
    diagram; all vanish identically up to roundoff in the center-block
    weights.
    """
    ns1 = tensor.ns - 1
    dr, ds, dt = tensor.derivative_matrices()
    dr1 = tensor.derivative_r(ns1)
    dt1 = tensor.derivative_t(ns1)
    e = extraction
    d0, d1, d2 = incidence.D0, incidence.D1, incidence.D2

    identities = {
        "grad_r": lambda: dr @ e.E000.T - e.E100.T @ d0,
        "grad_s": lambda: ds @ e.E000.T - e.E010.T @ d0,
        "grad_t": lambda: dt @ e.E000.T - e.E001.T @ d0,
        "curl_1": lambda: -dt1 @ e.E010.T + ds @ e.E001.T - e.E011.T @ d1,
        "curl_2": lambda: dt @ e.E100.T - dr @ e.E001.T - e.E101.T @ d1,
        "curl_3": lambda: -ds @ e.E100.T + dr1 @ e.E010.T - e.E110.T @ d1,
        "div": lambda: (dr1 @ e.E011.T + ds @ e.E101.T + dt1 @ e.E110.T
                        - e.E111.T.astype(float) @ d2),
    }
    residuals = {}
    for name, compute in identities.items():
        try:
            residuals[name] = max_abs(compute())
        except ValueError as exc:
            raise ValueError(
                f"commutation identity {name!r}: inconsistent matrix shapes "
                f"(construction bug): {exc}"
            ) from exc
    return residuals


# ============================ cohomology =====================================

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

    @property
    def euler_ok(self):
        return self.euler_characteristic == self.alternating_dim_sum


def rank_with_gap(matrix, rank_tol=None):
    """Numerical rank by singular-value counting.

    Returns (rank, gap_ratio, (smallest kept, largest dropped)).  The
    default threshold is max(shape) * ulp * sigma_max; `rank_tol`
    overrides it with an absolute cutoff.
    """
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, float)
    svals = np.linalg.svd(dense, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0, float("inf"), (0.0, 0.0)
    tol = rank_tol if rank_tol is not None else max(dense.shape) * np.finfo(float).eps * svals[0]
    rank = int((svals > tol).sum())
    kept = float(svals[rank - 1]) if rank > 0 else 0.0
    dropped = float(svals[rank]) if rank < svals.size else 0.0
    gap = kept / dropped if dropped > 0.0 else float("inf")
    return rank, gap, (kept, dropped)


def _null_space(matrix, rank_tol=None):
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, float)
    u, svals, vt = np.linalg.svd(dense)
    tol = rank_tol if rank_tol is not None else max(dense.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int((svals > tol).sum())
    return vt[rank:].T


def cohomology_dimensions(incidence, rank_tol=None, harmonic=True):
    """Compute the cohomology dimensions of the reduced complex.

    h0 = dim ker D0, h1 = dim ker D1 - rank D0, h2 = dim ker D2 - rank D1,
    h3 = n3 - rank D2.  Ranks come from singular values; a gap ratio below
    1e3 at any rank decision is recorded as a warning, not a failure.
    A least-squares harmonic representative of h1 (kernel of D1 orthogonal
    to the image of D0) is attached as a non-normative diagnostic.
    """
    c = incidence.counts
    r0, g0, b0 = rank_with_gap(incidence.D0, rank_tol)
    r1, g1, b1 = rank_with_gap(incidence.D1, rank_tol)
    r2, g2, b2 = rank_with_gap(incidence.D2, rank_tol)
    dims = (c.n0 - r0, (c.n1 - r1) - r0, (c.n2 - r2) - r1, c.n3 - r2)
    warnings = []
    for name, gap in (("D0", g0), ("D1", g1), ("D2", g2)):
        if gap < 1e3:
            warnings.append(
                f"ill-conditioned rank gap for {name}: ratio {gap:.3e} < 1e3"
            )
    rep = None
    if harmonic and dims[1] > 0:
        kernel = _null_space(incidence.D1, rank_tol)
        if kernel.shape[1]:
            image_basis = np.linalg.svd(incidence.D0.toarray())[0][:, :r0]
            residual = kernel - image_basis @ (image_basis.T @ kernel)
            u, svals, _ = np.linalg.svd(residual)
            rep = u[:, 0] if svals.size and svals[0] > 0 else None
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
