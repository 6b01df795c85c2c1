"""Incidence matrices of the polar control ring and their cohomology.

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
* ``D2 = I (x) [0, d1] + Dt (x) [I, 0]``,

as :func:`~polar_derham.extraction.lift_table` states them, next to the
lifts of the extraction matrices.  The disk blocks follow from the
per-joint extraction blocks (e0, e1 = [e10 e01], e2) and the disk's
tensor derivatives (g0 grad, g1 curl, the tensor complex's rule on one
joint) by the commuting diagram ``g_l e_l^T = e_{l+1}^T d_l``, so only
the extraction states the DOF numbering; ``tests/oracles.py`` keeps an
entry-by-entry transcription of d0 and d1 as the tests' reference.
:class:`IncidenceSet` keeps d0 and d1 and lifts each D on first use;
:func:`certify` takes both families' blocks by one rule, reading them back
from the 3D matrices only where a family holds an override, and the seven
commutation identities are checked on one joint from them
(:func:`commutation_residuals`): the circle's terms cancel on both sides.

The ranks behind the cohomology are certified from the matrices: echelon
rows bound each rank from below exactly, and the lift bounds it from
above (:func:`cohomology_dimensions`).  The closed form over the circle
(:func:`kunneth_spectrum`) adds the singular values, their gaps and a
second rank decision that must agree; no frequency block is decomposed.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .bsplines import csr_from_triplet, triplet
from .extraction import LiftedFamily, PolarCounts, lift_table, lifted_matrix
from .tensor import (LEVEL_PATTERNS, LiftTable, StructureError, cat_triplets,
                     derivative_entries, echelon_rank, kron_lift, unit_entries)

__all__ = [
    "IncidenceSet",
    "CohomologyReport",
    "build_incidence",
    "certify",
    "commutation_residuals",
    "cohomology_dimensions",
    "disk_blocks",
    "kunneth_spectrum",
    "divergence_preimage",
    "max_abs",
]


# ============================ polar disk =====================================

def _diagram_rows(g, e, e_next, shape, first, name):
    """Rows `first` on of the d with ``g e^T = e_next^T d``, as a triplet
    with duplicates unsummed: each row owns a unit tensor function, a
    column of `e_next` (of `shape`) holding a single +1 in that row alone,
    and is that function's row of ``g e^T``.  A row without one raises
    StructureError naming `name`."""
    (rows, cols, vals), unit, shared = unit_entries(e_next)
    own = unit & ~shared & (vals == 1)
    missing = np.flatnonzero(np.bincount(rows[own], minlength=shape[0])[first:] == 0)
    if missing.size:
        raise StructureError(f"{name} row {first + missing[0]} owns no unit tensor function: "
                             "no column holds a single +1 in that row alone")
    row_of = np.full(shape[1], -1)
    row_of[cols[own]] = rows[own]
    keep = row_of[g[0]] >= first
    g_row, g_col, g_val = row_of[g[0][keep]], g[1][keep], g[2][keep]
    # entry (i, k, x) of g meets each entry (j, k, y) of e, sorted by k, as (i, j, x * y)
    e_row, e_col, e_val = e
    count = np.bincount(e_col, minlength=g[1].max() + 1)
    per_col, stop = count[g_col], np.cumsum(count)[g_col]
    at = np.repeat(np.arange(g_col.size), per_col)
    pos = np.argsort(e_col, kind="stable")[
        np.arange(at.size) - np.repeat(np.cumsum(per_col) - stop, per_col)]
    return g_row[at], e_row[pos], g_val[at] * e_val[pos]


def _disk_blocks(counts, e0, e10, e01, e2):
    """d0 and d1 as triplets, from the per-joint extraction blocks' triplets
    (module docstring); g0 and g1 are :func:`~polar_derham.tensor.derivative_entries`
    on the disk counts (nr, ns, 1) and the components without a t-bit."""
    disk = [tuple(p for p in LEVEL_PATTERNS[level] if not p[2]) for level in range(3)]
    (g0, (m0, w0)), (g1, (m1, _)) = (
        derivative_entries((counts.nr, counts.ns, 1), disk[level], disk[level + 1])
        for level in (0, 1))
    e1 = cat_triplets([e10, (e01[0], e01[1] + w0, e01[2])])
    d0 = cat_triplets([
        # the center edges: vertex 2 - vertex 1 and vertex 3 - vertex 1
        ([0, 0, 1, 1], [1, 0, 2, 0], [1, -1, 1, -1]),
        _diagram_rows(g0, e0, e1, (counts.nbar1, m0), 2, "e1"),
    ])
    return d0, _diagram_rows(g1, e1, e2, (counts.nbar2, m1), 0, "e2")


@dataclass(frozen=True)
class IncidenceSet(LiftedFamily):
    """The three DOF-level differential operators of one polar complex.

    The disk blocks' triplets (d0, d1) and the extraction's lift table,
    which makes D0 to D2 of them.  Each is its override or its lift
    (:class:`~polar_derham.extraction.LiftedFamily`), formed on first access
    and kept: the reduced grad, curl and div apply it again and again.
    """

    counts: PolarCounts
    joint_blocks: tuple
    lifts: LiftTable
    overrides: dict = field(default_factory=dict)

    labels = ("d0", "d1")
    D0, D1, D2 = (lifted_matrix(name, kept=True) for name in ("D0", "D1", "D2"))

    @staticmethod
    def names():
        """D0 to D2, level by level."""
        return ("D0", "D1", "D2")


def build_incidence(extraction):
    """The incidence set of an ExtractionSet: the disk blocks its per-joint
    blocks fix, and its lift table; no D is lifted."""
    return IncidenceSet(counts=extraction.counts, lifts=extraction.lifts,
                        joint_blocks=_disk_blocks(extraction.counts, *extraction.joint_blocks))


def disk_blocks(incidence):
    """The disk blocks (d0, d1) whose circle lift D0, D1 and D2 are, as CSR
    (:meth:`~polar_derham.extraction.LiftedFamily.read_blocks`)."""
    return tuple(incidence.read_blocks().values())


def max_abs(matrix):
    """Largest absolute entry of a sparse matrix or an array (0 for an empty one)."""
    return float(np.abs(matrix.data if sparse.issparse(matrix) else matrix).max(initial=0.0))


# ============================ commutation ====================================

def commutation_residuals(counts, blocks):
    """Max-abs residuals of the seven commutation identities, from the
    per-joint blocks e0, e10, e01, e2, d0 and d1 (label -> sparse matrix)
    that the E's and D's are certified circle lifts of.

    Per level l < 3, ``op_l T_l - T_{l+1} D_l`` must vanish, with T_l the
    transposed E's of level l stacked by component; its rows split by the
    components of level l + 1 into the grad, curl and div diagrams.  The
    circle's difference enters both sides as the same ``Dt (x) X`` and
    cancels entry by entry, so the three levels are one product of block
    matrices on one joint, where Dt is the empty stencil: the lifts of
    :func:`~polar_derham.extraction.lift_table` at nt = 1.
    """
    c = counts
    joint = replace(c, nt=1, **{f"n{l}": c.level_dim(l) // c.nt for l in range(4)})
    one, blocks = lift_table(joint), {label: triplet(b) for label, b in blocks.items()}
    patterns = [pat for level in range(4) for pat in LEVEL_PATTERNS[level]]
    tensor_at = np.cumsum([0] + [c.nr * (c.ns - pat[1]) for pat in patterns])
    reduced_at = np.cumsum([0] + [joint.level_dim(level) for level in range(4)])
    # T: every E transposed, at its component's rows and its level's columns
    t = kron_lift(1, (tensor_at[-1], reduced_at[-1]), [
        (circ, (b[1], b[0], b[2]), tensor_at[at] + col0, reduced_at[sum(pat)] + row0)
        for at, pat in enumerate(patterns)
        for circ, b, row0, col0 in one.kron_terms("E" + "".join(map(str, pat)), blocks)])
    # D: each D_l below the diagonal, from level l to level l + 1
    d = kron_lift(1, (reduced_at[-1],) * 2, [
        (circ, b, reduced_at[level + 1] + row0, reduced_at[level] + col0)
        for level in range(3) for circ, b, row0, col0 in one.kron_terms(f"D{level}", blocks)])
    op = csr_from_triplet(*derivative_entries((c.nr, c.ns, 1), patterns, patterns))
    residual = (op @ t - t @ d).tocsr()
    # the stored entries of each component's rows are one run of the CSR data
    at = residual.indptr[tensor_at[1:]]
    return {name: max_abs(residual.data[start:stop]) for name, start, stop in zip(
        ("grad_r", "grad_s", "grad_t", "curl_1", "curl_2", "curl_3", "div"), at[:-1], at[1:])}


def certify(extraction, incidence):
    """The per-joint blocks of the E's and D's, as CSR keyed by label, and,
    keyed "E" or "D", the StructureError message naming the matrix of each
    family that is no lift.  Each family's blocks are its own, or read back
    from its matrices when it holds an override
    (:meth:`~polar_derham.extraction.LiftedFamily.read_blocks`)."""
    blocks, violations = {}, {}
    for family, owner in (("E", extraction), ("D", incidence)):
        try:
            blocks |= owner.read_blocks()
        except StructureError as exc:
            violations[family] = str(exc)
    return blocks, violations


# ============================ cohomology =====================================

@dataclass
class CohomologyReport:
    """Kernel-modulo-image dimensions of the reduced complex.

    `ranks` are the certified lower bounds on the ranks of D0, D1 and D2.
    `rank_method` is "certificate" when each meets its upper bound, so the
    ranks are exact, and "lower-bound" otherwise; `dims` is None then.
    `method` is "kunneth" when the disk blocks are a complex and the closed
    form gives the singular values behind `gap_ratios` and `sv_bracket`,
    and "not-a-complex" otherwise, with no singular values decided and both
    empty.  `failures` holds one message per unmet bound, per rank the
    closed form decides otherwise and for a disk pair that is not a complex.
    """

    dims: tuple | None
    ranks: tuple
    rank_method: str
    gap_ratios: tuple
    sv_bracket: tuple
    warnings: list
    failures: list
    method: str
    harmonic_one_form: np.ndarray | None = None


def _decide(svals, tol):
    """(rank, gap ratio, (smallest kept, largest dropped)) of descending
    singular values at threshold `tol`."""
    rank = int((svals > tol).sum())
    kept = float(svals[rank - 1]) if rank > 0 else 0.0
    dropped = float(svals[rank]) if rank < svals.size else 0.0
    gap = kept / dropped if dropped > 0.0 else float("inf")
    return rank, gap, (kept, dropped)


def _threshold(shape, sigma_max):
    """The rank threshold of every decision: max(shape) * ulp * sigma_max."""
    return max(shape) * np.finfo(float).eps * sigma_max


def kunneth_spectrum(counts, s0, s1):
    """Singular values of the frequency blocks of D0, D1 and D2 in closed
    form from the descending singular values s0 of d0 and s1 of d1.

    Each D is the circle lift of d0 and d1, a sum of terms ``C (x) B``
    with C circulant over the joints
    (:func:`~polar_derham.extraction.lift_table`), so the DFT over the
    joints turns it into blocks A_k, k = 0..nt-1, with the same singular
    values (Davis, *Circulant Matrices*, 1979); A_{nt-k} is the conjugate
    of A_k.  The circle complex at frequency k multiplies by
    c_k = exp(2 pi i k / nt) - 1, with |c_k|^2 = 4 sin^2(pi k / nt), and
    the Hodge Laplacian of a tensor product is the sum of its factors'
    Laplacians.  So A_0(D0), A_0(D1) = diag(d1, d0) and A_0(D2) have the
    values of the disk blocks they hold, and at k != 0 each nonzero disk
    value s becomes sqrt(s^2 + |c_k|^2) while |c_k| fills the
    rest of the block's nonzero values: dim ker d0 of them for D0,
    h1(disk) = nbar1 - rank d0 - rank d1 for D1 and nbar2 - rank d1 for
    D2.  Zeros pad every block to the smaller side of its joint block.

    A disk value counts as nonzero above the threshold of its own block
    (:func:`_threshold`): the disk ranks only place the values, they
    decide nothing.  The closed form holds when d1 d0 = 0,
    which implies rank d0 + rank d1 <= nbar1; when the ranks break that
    bound it returns None.  Otherwise it returns the descending values of
    k = 0..nt//2 keyed by matrix name.
    """
    c = counts
    r0 = int((s0 > _threshold((c.nbar1, c.nbar0), s0[0])).sum())
    r1 = int((s1 > _threshold((c.nbar2, c.nbar1), s1[0])).sum())
    if r0 + r1 > c.nbar1:
        return None
    ck2 = 4 * np.sin(np.pi * np.arange(c.nt // 2 + 1) / c.nt) ** 2
    spectra = {}
    for name, factors, ranks, nonzero, width in (
        ("D0", (s0,), (r0,), c.nbar0, c.nbar0),
        ("D1", (s0, s1), (r0, r1), c.nbar1, c.nbar2 + c.nbar1),
        ("D2", (s1,), (r1,), c.nbar2, c.nbar2),
    ):
        free = nonzero - sum(ranks)
        spectra[name] = []
        for k2 in ck2:
            if k2 == 0.0:
                vals = np.concatenate(factors)
            else:
                vals = np.concatenate(
                    [np.sqrt(f[:r] ** 2 + k2) for f, r in zip(factors, ranks)]
                    + [np.full(free, np.sqrt(k2))])
            block = np.zeros(width)
            block[:vals.size] = np.sort(vals)[::-1]
            spectra[name].append(block)
    return spectra


def cohomology_dimensions(incidence, disk):
    """Compute the cohomology dimensions of the reduced complex.

    h0 = dim ker D0, h1 = dim ker D1 - rank D0, h2 = dim ker D2 - rank D1,
    h3 = n3 - rank D2, from ranks decided by certificate.  `disk` is the
    pair (d0, d1) whose circle lift D0, D1 and D2 are, as
    :func:`certify` or :func:`disk_blocks` reads it.

    Each rank has an exact lower bound, the echelon count of D0, D1 and
    D2^T (:func:`~polar_derham.tensor.echelon_rank`, first nonzeros for
    D2^T), and an upper bound from the lift:

    * rank D0 <= n0 - 1 when the constants lie in ker d0 to rounding,
      ``max|d0 1| <= max(shape) * ulp * sigma_max(d0)``, since D0 1 is
      [d0 1; 0] in every joint; n0 otherwise;
    * rank D1 <= n2 - rank D2 when d1 d0 vanishes to rounding,
      ``max|d1 d0| <= max(shape) * ulp * sigma_max(d0) * sigma_max(d1)``
      over the shapes of d0 and d1, since D2 D1 = I (x) [0, d1 d0]; n2
      otherwise;
    * rank D2 <= n3.

    Where the bounds meet, the rank is certified.  When d1 d0 vanishes to
    rounding and the disk ranks agree, the disk blocks are a complex, and
    one SVD of each gives every singular value of D0, D1 and D2 in closed
    form (:func:`kunneth_spectrum`, method "kunneth").  Their ranks at the
    threshold of the full matrix, max(shape) * ulp * sigma_max, must equal
    the certified ones, and they supply the gap ratios and brackets; a gap
    ratio below 1e3 is recorded as a warning.  Otherwise, as under a
    perturbed center block, the method is "not-a-complex", no singular
    value is decided and only the lower bounds are reported.  The bound
    depends on the disk blocks alone, so no tolerance of the caller can
    admit a d1 d0 the closed form does not hold for.  Each unmet bound,
    disagreement and failed gate is a message in `failures` naming the
    matrices and both numbers.

    When h1 > 0 and the constants lie in ker d0 to rounding, the
    normalised indicator of the toroidal edges is attached as the harmonic
    one-form, a non-normative diagnostic: D1 maps it to d0 1 in every
    joint, and D0^T to the column sums of the periodic difference stencil,
    zero.
    """
    c, names = incidence.counts, ("D0", "D1", "D2")
    nt = c.nt
    multiplicity = [1 if 2 * k % nt == 0 else 2 for k in range(nt // 2 + 1)]
    d0, d1 = disk
    s0, s1 = (np.linalg.svd(d.toarray(), compute_uv=False) for d in (d0, d1))
    ones_ok = max_abs(d0 @ np.ones(c.nbar0)) <= _threshold(d0.shape, s0[0])
    product, bound = max_abs(d1 @ d0), _threshold((*d0.shape, d1.shape[0]), s0[0]) * s1[0]
    lower = (echelon_rank(incidence.D0)[0], echelon_rank(incidence.D1)[0],
             echelon_rank(incidence.D2.T, reverse=True)[0])
    upper = (c.n0 - 1 if ones_ok else c.n0, c.n2 - lower[2] if product <= bound else c.n2, c.n3)
    spectra = kunneth_spectrum(c, s0, s1) if product <= bound else None
    failures = []
    if spectra is None:
        why = (f"max|d1 d0| = {product:.3e} > bound {bound:.3e}" if product > bound
               else "rank d0 + rank d1 > nbar1 at the disk thresholds")
        failures.append(f"(d0, d1) is not a complex: {why}")
    failures += [f"{name} rank not certified: {low} echelon rows, upper bound {up}"
                 for name, low, up in zip(names, lower, upper) if low != up]
    decisions = []
    if spectra is not None:
        for (name, svals), low, up in zip(spectra.items(), lower, upper):
            tol = _threshold(getattr(incidence, name).shape, max(float(s[0]) for s in svals))
            union = np.sort(np.concatenate(
                [np.tile(s, m) for s, m in zip(svals, multiplicity)]))[::-1]
            decisions.append(_decide(union, tol))
            if low == up != decisions[-1][0]:
                failures.append(f"{name}: certified rank {low}, Kunneth rank {decisions[-1][0]}")
    certified = lower == upper
    dims = ((c.n0 - lower[0], c.n1 - lower[1] - lower[0], c.n2 - lower[2] - lower[1],
             c.n3 - lower[2]) if certified else None)
    warnings = [f"ill-conditioned rank gap for {name}: ratio {gap:.3e} < 1e3"
                for name, (_, gap, _) in zip(names, decisions) if gap < 1e3]
    rep = None
    if certified and dims[1] > 0 and ones_ok:
        joint = np.concatenate([np.zeros(c.nbar1), np.ones(c.nbar0)])
        rep = np.tile(joint, nt) / np.sqrt(nt * c.nbar0)
    return CohomologyReport(
        dims=dims,
        ranks=lower,
        rank_method="certificate" if certified else "lower-bound",
        gap_ratios=tuple(gap for _, gap, _ in decisions),
        sv_bracket=tuple(bracket for _, _, bracket in decisions),
        warnings=warnings,
        failures=failures,
        method="not-a-complex" if spectra is None else "kunneth",
        harmonic_one_form=rep,
    )


# ======================= divergence surjectivity =============================

def divergence_preimage(counts, m):
    """Back-substitute a level-2 coefficient vector h with D2 @ h = m.

    Per joint, every joint face, the side faces of the two center edges
    and those of the radial rounds are zero, and the side round of ring
    j's poloidal edges carries minus the running sum of the volumes of
    rings 0..j.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (counts.n3,):
        raise ValueError(f"expected {counts.n3} volume DOFs, got shape {m.shape}")
    nr, ns, nt = counts.nr, counts.ns, counts.nt
    h = np.zeros((nt, counts.nbar2 + counts.nbar1))
    rounds = h[:, counts.nbar2 + 2:].reshape(nt, ns - 2, 2, nr)
    rounds[:, :, 1] = -np.cumsum(m.reshape(nt, ns - 2, nr), axis=1)
    return h.ravel()
