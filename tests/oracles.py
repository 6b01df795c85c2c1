"""Dense reference evaluations that the tests check the library against.

Each one builds a vector as long as the space or decomposes a dense
matrix, so its cost grows with the size of the space.  The library itself
evaluates through per-span tables (`SpanLookup`,
`TensorComplex.local_level_basis`) and decides ranks from structure; these
are the independent, one-point-at-a-time definitions those paths must
reproduce.  The univariate evaluation of one space through its own
`SpanLookup` lives here too: only the tests evaluate a single space.  The
disk blocks of the incidence matrices are kept here as an entry-by-entry
transcription of the DOF numbering; the library derives them from the
extraction blocks.  The D's spectrum, one dense SVD per toroidal
frequency, is the reference for the library's closed form, which gives
the singular values, while certificates give the ranks; the echelon
counts of the lifted D's are the reference for the library's rank counts
from the disk blocks.  The circle lift
through scipy's COO constructor is the reference for the library's
direct CSR lift, and its COO -> CSR pass the reference for the library's
triplet constructor.  The tensor level operators and the level-0
stencils assembled in 3D are the references for the library's
matrix-free apply and its lifted stencils.  The seven commutation
identities on the full 3D matrices are the reference for the library's
one-joint evaluation.  The sampled probe of the polar curve, first
differences of every level-0 function near s = 0, cross-checks the
library's evaluation there, and on planted faults it is the reference for
the verifier's algebraic C1 check.  Evaluation gathered from the lifted
3D columns of the E's is the reference for the library's gather from one
joint's block columns.
"""

from typing import NamedTuple

import numpy as np
from scipy import sparse

import polar_derham as pd
from polar_derham.bsplines import (KnotVector, SpanLookup, difference_matrix, dta_diagnostic,
                                   index_dtype, triplet)
from polar_derham.extraction import joint_blocks, lift_table
from polar_derham.incidence import _decide, _disk_blocks, _threshold, max_abs
from polar_derham.tensor import LEVEL_PATTERNS, cat_triplets, derivative_entries, echelon_rank


# =============================== knot vectors ===============================

def find_span(kv, t):
    """0-based index of the knot span of the KnotVector `kv` containing t.

    Half-open spans ``[t_i, t_{i+1})``, closed at the right interval
    endpoint.
    """
    a, b = kv.interval
    if t < a or t > b:
        raise ValueError(f"parameter {t} outside knot interval [{a}, {b}]")
    p, n = kv.degree, kv.n
    if t >= kv.knots[n]:
        return n - 1
    span = int(np.searchsorted(kv.knots, t, side="right")) - 1
    return min(max(span, p), n - 1)


def _basis_funs(knots, p, t, span):
    """Non-vanishing basis values at t (NURBS-book triangular scheme)."""
    left = np.empty(p)
    right = np.empty(p)
    vals = np.empty(p + 1)
    vals[0] = 1.0
    for j in range(1, p + 1):
        left[j - 1] = t - knots[span + 1 - j]
        right[j - 1] = knots[span + j] - t
        saved = 0.0
        for r in range(j):
            tmp = vals[r] / (right[r] + left[j - r - 1])
            vals[r] = saved + right[r] * tmp
            saved = left[j - r - 1] * tmp
        vals[j] = saved
    return vals


def eval_all(kv, t):
    """Values of all n basis functions of `kv` at t (dense vector)."""
    span = find_span(kv, t)
    vals = _basis_funs(kv.knots, kv.degree, t, span)
    out = np.zeros(kv.n)
    out[span - kv.degree : span + 1] = vals
    return out


def deriv_eval_all(space, t):
    """Values of the n-1 derivative-basis functions of `space` at t: its
    `derivative_scales` times the degree-(p-1) B-splines on the clipped
    knot vector ``(t_2, ..., t_{n+p})``."""
    kv = space.kv
    return space.derivative_scales * eval_all(KnotVector(kv.degree - 1, kv.knots[1:-1]), t)


# ============================= spline spaces ================================

def wrap(space, t):
    """t, identified modulo the interval for a periodic space."""
    a, b = space.kv.interval
    if not space.periodic:
        return t
    return a + (t - a) % (b - a)


def eval_basis(space, t):
    """Values of the dim(space) basis functions at t."""
    t = wrap(space, t)
    vals = eval_all(space.kv, t)
    if space.periodic:
        return space.h0 @ vals
    return vals


def eval_deriv_space_basis(space, t):
    """Values of the functions spanning the derivative space at t.

    Length n-1 (open) or n-2 (periodic, extracted through H1).
    """
    t = wrap(space, t)
    vals = deriv_eval_all(space, t)
    if space.periodic:
        return space.h1 @ vals
    return vals


def eval_basis_derivative(space, t):
    """First derivatives of the dim(space) basis functions at t."""
    return space.difference_stencil.T @ eval_deriv_space_basis(space, t)


# ====================== one space through its span tables ====================

class LocalBasis(NamedTuple):
    """Nonzero basis functions of a spline space at m parameters.

    Row k of ``index`` holds the 0-based indices of the space's functions
    that can be nonzero at the k-th parameter, ``values`` and
    ``derivatives`` their values and first derivatives; ``deriv_index``
    and ``deriv_values`` do the same for the derivative-space basis.
    Padding slots carry index 0 and value 0.
    """

    index: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    deriv_index: np.ndarray
    deriv_values: np.ndarray


def eval_local(space, x, name="parameter"):
    """Nonzero basis functions of `space` at a 1-D array of parameters.

    The :class:`SpanLookup` of this one space: the cost per parameter is
    fixed by the degree, not by the size of the space.  Periodic spaces
    wrap x into the interval first.  Non-finite parameters and parameters
    outside an open space's interval raise ValueError, naming them
    `name`.  Returns a :class:`LocalBasis` whose index arrays share one
    width, padded as the class describes.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} values must form a 1-D array, got shape {x.shape}")
    lookup = SpanLookup((space,))
    row, (values,) = lookup(x[:, None], (name,))
    index = lookup.index[row[:, 0]]
    return LocalBasis(index=index[:, 0], values=values[0].T, derivatives=values[1].T,
                      deriv_index=index[:, 1], deriv_values=values[2].T)


def _check_coeffs(coeffs, dim):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (dim,):
        raise ValueError(f"expected {dim} coefficients, got shape {coeffs.shape}")
    return coeffs


def eval_spline(space, coeffs, t):
    """Spline value at t, a scalar or a 1-D array of parameters."""
    coeffs = _check_coeffs(coeffs, space.dim)
    loc = eval_local(space, np.atleast_1d(t))
    out = np.einsum("mw,mw->m", coeffs[loc.index], loc.values)
    return float(out[0]) if np.ndim(t) == 0 else out


def eval_spline_derivative(space, coeffs, t):
    """f'(t) through the derivative basis and the difference stencil."""
    coeffs = _check_coeffs(coeffs, space.dim)
    loc = eval_local(space, np.atleast_1d(t))
    diffs = space.difference_stencil @ coeffs
    out = np.einsum("mw,mw->m", diffs[loc.deriv_index], loc.deriv_values)
    return float(out[0]) if np.ndim(t) == 0 else out


# ============================== tensor levels ===============================

def direction_basis(tensor, axis, lowered, x):
    sp = tensor.spaces[axis]
    return eval_deriv_space_basis(sp, x) if lowered else eval_basis(sp, x)


def eval_component_basis(tensor, pattern, point):
    """Dense vector of one component's tensor basis at (r, s, t)."""
    r, s, t = point
    br = direction_basis(tensor, 0, pattern[0], r)
    bs = direction_basis(tensor, 1, pattern[1], s)
    bt = direction_basis(tensor, 2, pattern[2], t)
    return np.kron(bt, np.kron(bs, br))


# ============================ ranks and DTA =================================

def rank_with_gap(matrix):
    """Numerical rank by singular-value counting on the dense matrix.

    Returns (rank, gap_ratio, (smallest kept, largest dropped)) at the
    library's threshold, max(shape) * ulp * sigma_max.
    """
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, float)
    svals = np.linalg.svd(dense, compute_uv=False)
    return _decide(svals, _threshold(dense.shape, svals[0] if svals.size else 0.0))


def toroidal_spectrum(counts, d0, d1):
    """Singular values of D0, D1 and D2, one toroidal frequency at a time.

    Each D is the circle lift of d0 and d1, a sum of terms ``C (x) B``
    with C circulant over the joints (`lift_table`).  The DFT over the
    joints turns it into blocks A_k to which each term contributes B times
    the DFT of row 0 of its C at k (Davis, *Circulant Matrices*, 1979).
    A_{nt-k} is the conjugate of A_k, so k = 0..nt//2 cover every singular
    value.  Returns, keyed by matrix name, the descending singular values
    of each A_k, as `kunneth_spectrum` does in closed form: one dense SVD
    per frequency, whether or not the disk blocks are a complex.
    """
    nt, table = counts.nt, lift_table(counts)
    blocks = {"d0": triplet(d0), "d1": triplet(d1)}
    spectra = {}
    for name in ("D0", "D1", "D2"):
        terms = table.kron_terms(name, blocks)
        scales = [np.fft.rfft(np.bincount(c_col[c_row == 0], c_val[c_row == 0], nt))
                  for (c_row, c_col, c_val), *_ in terms]
        spectra[name] = []
        for k in range(nt // 2 + 1):
            block = np.zeros(table.terms[name][0], complex)
            for scale, (_, (rows, cols, vals), row0, col0) in zip(scales, terms):
                block[row0 + rows, col0 + cols] += scale[k] * vals
            spectra[name].append(np.linalg.svd(block.real if 2 * k % nt == 0 else block,
                                               compute_uv=False))
    return spectra


def frequency_ranks(incidence, spectra):
    """Per matrix, the rank of each frequency block of `spectra` (k =
    0..nt//2, as `toroidal_spectrum` or `kunneth_spectrum` return them),
    decided at the threshold of the full matrix from its largest value."""
    return {name: [_decide(s, _threshold(getattr(incidence, name).shape,
                                         max(float(b[0]) for b in svals)))[0]
                   for s in svals]
            for name, svals in spectra.items()}


def echelon_ranks_3d(incidence):
    """The echelon counts of the lifted D0, D1 and, by first nonzeros,
    D2^T: exact lower bounds on their ranks, read off the 3D matrices, that
    the library's counts from the disk blocks and the circle must equal."""
    return (echelon_rank(incidence.D0)[0], echelon_rank(incidence.D1)[0],
            echelon_rank(incidence.D2.T, reverse=True)[0])


def is_dta_compatible(matrix):
    """Check full rank, unit column sums and non-negativity of `matrix`,
    with its rank from a dense SVD (see `dta_diagnostic`)."""
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
    return dta_diagnostic(matrix, int(np.linalg.matrix_rank(dense)))


# ============================== circle lifts ================================

def kron_lift_reference(n, block_shape, terms):
    """The sum of ``C (x) B`` over the `kron_lift` terms (C, B, row0, col0)
    through scipy's COO constructor: every entry of every row of C times
    every entry of B placed, duplicates summed, stored zeros dropped.  The
    library reads only row 0 of each circulant C and writes the CSR arrays
    of every joint from joint 0's."""
    rows, cols, vals = cat_triplets([
        (np.asarray(c_row)[:, None] * block_shape[0] + row0 + b_row,
         np.asarray(c_col)[:, None] * block_shape[1] + col0 + b_col,
         np.asarray(c_val)[:, None] * b_val)
        for (c_row, c_col, c_val), (b_row, b_col, b_val), row0, col0 in terms
    ])
    mat = sparse.coo_array((vals, (rows, cols)),
                           shape=(n * block_shape[0], n * block_shape[1])).tocsr()
    mat.eliminate_zeros()
    return mat


def csr_reference(entries, shape):
    """(rows, cols, vals) as CSR through scipy's COO constructor: duplicates
    summed, indices sorted and in the library's index dtype, stored zeros
    dropped.  The library sorts int64 keys instead."""
    rows, cols, vals = entries
    idx = index_dtype(shape, np.size(vals))
    mat = sparse.coo_array((vals, (np.asarray(rows).astype(idx, copy=False),
                                   np.asarray(cols).astype(idx, copy=False))), shape=shape).tocsr()
    mat.eliminate_zeros()
    return mat


# ============================ tensor operators ==============================

def level_operator(tensor, level):
    """The level -> level + 1 coefficient map assembled in 3D, from
    `derivative_entries` on the tensor's counts (nr, ns, nt).  The library
    applies the same blocks to coefficient arrays."""
    return csr_reference(*derivative_entries(
        tensor.dims, LEVEL_PATTERNS[level], LEVEL_PATTERNS[level + 1]))


def derivative_matrix(tensor, axis):
    """The level-0 stencil of direction `axis` assembled in 3D; the library
    lifts it from one joint."""
    return csr_reference(*derivative_entries(
        tensor.dims, LEVEL_PATTERNS[0], (LEVEL_PATTERNS[1][axis],)))


# ============================== commutation =================================

def commutation_residuals_3d(tensor, extraction, incidence):
    """Max-abs residuals of the seven commutation identities on the full 3D
    matrices: per level l < 3, the tensor level operator times the stacked
    transposed E's of level l, minus those of level l + 1 times D_l, rows
    split by the components of level l + 1.  The library evaluates the
    same identities on one joint, from the certified blocks."""
    lift = [extraction.columns(level).T for level in range(4)]
    worst = []
    for level in range(3):
        residual = (level_operator(tensor, level) @ lift[level]
                    - lift[level + 1] @ getattr(incidence, f"D{level}")).tocsr()
        sizes = [tensor.component_dim(pat) for pat in LEVEL_PATTERNS[level + 1]]
        at = residual.indptr[np.cumsum([0] + sizes)]
        worst += [max_abs(residual.data[start:stop]) for start, stop in zip(at[:-1], at[1:])]
    return dict(zip(("grad_r", "grad_s", "grad_t", "curl_1", "curl_2", "curl_3", "div"), worst))


# ========================= evaluation from 3D columns =======================

def column_gather(cx, level, point, coeffs=None):
    """`reduced_basis_values` gathered from the level's lifted 3D columns
    (`ExtractionSet.columns`): each nonzero tensor function selects its
    column by its flat index in the level's coefficients.  The library
    gathers the same entries, in the same order, from one joint's block
    columns, so the two agree exactly."""
    csc = cx.extraction.columns(level)
    n, tensor = csc.shape[0], cx.tensor
    factors = tensor.local_factors(point)
    keys, vals = tensor.local_level_basis(level, factors)
    k, m = keys.shape[1:]
    joints, cols = np.divmod(keys, tensor.nr * tensor.ns)
    widths = np.array([tensor.nr * (tensor.ns - pat[1]) for pat in LEVEL_PATTERNS[level]])
    offsets = np.cumsum([0, *(tensor.nt * widths)])[:-1]
    flat, vals = (cols + offsets[:, None] + joints * widths[:, None]).ravel(), vals.ravel()
    start = csc.indptr[flat]
    count = (csc.indptr[flat + 1] - start) * (vals != 0)
    entry = np.repeat(np.arange(flat.size, dtype=np.int64), count)
    pos = np.arange(entry.size) + (start - (np.cumsum(count) - count))[entry]
    rows, weights, slot = csc.indices[pos], csc.data[pos] * vals[entry], entry % (k * m)
    if coeffs is None:
        out = np.bincount(slot * n + rows, weights=weights, minlength=k * m * n)
        out = out.reshape(k, m, n).transpose(1, 2, 0)
    else:
        out = np.bincount(slot, weights=coeffs[rows] * weights, minlength=k * m).reshape(k, m).T
    if k == 1:
        out = out[..., 0]
    return out[0] if factors.single else out


def column_pushforward(cx, level, coeffs, point):
    """The pushforward of a reduced field from :func:`column_gather` and
    the polar map's own `eval` and `jacobian`."""
    param = column_gather(cx, level, point, coeffs)
    if level == 0:
        return cx.polar_map.eval(point), param
    xyz, jac, det = cx.polar_map.jacobian(point)
    if level == 1:
        return xyz, np.linalg.solve(np.swapaxes(jac, -1, -2), param[..., None])[..., 0]
    if level == 2:
        return xyz, np.einsum("...ij,...j->...i", jac, param) / np.expand_dims(det, -1)
    return xyz, param / det


# ============================ per-joint blocks ==============================

def joint_block(label, nr, ns, ebar=None):
    """One per-joint extraction block, e0, e10, e01 or e2, as CSR: the
    library's triplet, in the shape of its lift table."""
    ebar = pd.ebar_block(nr) if ebar is None else ebar
    rows, cols, vals = dict(zip(("e0", "e10", "e01", "e2"), joint_blocks(nr, ns, ebar)))[label]
    shape = lift_table(pd.polar_counts(nr, ns, 3)).shapes[label]
    return sparse.csr_array((vals, (rows, cols)), shape=shape)


# =============================== disk blocks ================================

def edge_round(nr, ring, poloidal):
    """First per-joint edge index of one round of n_r edges.

    After the two center edges, every outer vertex ring (0-based `ring`)
    owns the radial round reaching it (``poloidal=0``), then the poloidal
    round running around it (``poloidal=1``).
    """
    return 2 + (2 * ring + poloidal) * nr


def disk_blocks_transcribed(ebar, ns):
    """The per-joint disk blocks d0 and d1 as (rows, cols, vals) triplets.

    Outer vertex ``(i, ring)`` sits at ``3 + ring * n_r + i`` after the
    three center vertices and face ``(i, ring)`` at ``ring * n_r + i``.
    Apart from the two center edges and the rows that carry center-block
    weights, d0's first radial round (edges 2 .. n_r + 1) and d1's
    innermost faces (0 .. n_r - 1), every entry comes from the periodic
    (poloidal) and open (radial) difference stencils.
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
    return d0, d1


def disk_block_pairs(nr, ns, perturbation=0.0):
    """(derived, transcribed) pairs of d0 and d1 from one center block,
    shifted by `perturbation`: the library's blocks, derived from the
    per-joint extraction blocks, and :func:`disk_blocks_transcribed`, each
    as its CSR (dtype, indptr, indices, data)."""
    ebar = pd.ebar_block(nr)
    if perturbation:
        ebar = ebar.perturbed(perturbation)
    extraction = pd.assemble_3d(nr, ns, 3, ebar)
    c = extraction.counts
    pairs = []
    for blocks, shape in zip(
            zip(_disk_blocks(c, *extraction.joint_blocks), disk_blocks_transcribed(ebar, ns)),
            [(c.nbar1, c.nbar0), (c.nbar2, c.nbar1)]):
        pair = []
        for rows, cols, vals in blocks:
            csr = sparse.coo_array((vals, (rows, cols)), shape=shape).tocsr()
            csr.eliminate_zeros()
            pair.append((csr.dtype, csr.indptr, csr.indices, csr.data))
        pairs.append(pair)
    return pairs


# ========================== sampled polar-curve probe =======================

# The probe's fixed sampling and gate: steps away from the polar curve, the
# toroidal parameter, samples of the collapsed s = 0 face, the noise floor
# below which the C1 estimates need not decrease and the spread the raw
# tensor basis must show at s = 0.
EPS_LIST = (1e-2, 1e-3, 1e-4)
PROBE_T = 0.33
PROBE_R_SAMPLES = 8
PROBE_FLOOR = 1e-10
NEGATIVE_CONTROL_MIN = 1e-4


class SmoothnessProbeReport(NamedTuple):
    """``value_discrepancy`` is the spread of each function over the
    collapsed s = 0 face (well-definedness); ``c1_table`` holds, per
    epsilon, the weighted first-difference estimate of the derivative
    mismatch across the polar curve, which shrinks for a C1 function."""

    r_samples: np.ndarray
    value_discrepancy: np.ndarray
    c1_table: list


def probe_engine(value_fn, polar_map, tensor, t, eps_list):
    """Run the probe on `value_fn`, which maps an (m, 3) array of points to
    (m,) or (m, K) values; every point is evaluated in one batch."""
    num_r = PROBE_R_SAMPLES
    R = tensor.spaces[0].interval[1]
    S = tensor.spaces[1].interval[1]
    rs = np.linspace(0.0, R, num_r, endpoint=False) + 0.37 * R / num_r
    # Three approach directions in the meridian plane always admit a
    # nontrivial cancelling combination; for symmetric nets two of them
    # are antipodal and this reduces to the opposite-direction pair.
    r3 = (0.15 * R + np.array([0.0, R / 3.0, 2.0 * R / 3.0])) % R
    eps = np.asarray(eps_list, dtype=float)
    r = np.concatenate([rs, np.tile(r3, eps.size + 1)])
    s = np.concatenate([np.zeros(num_r + 3), np.repeat(eps * S, 3)])
    points = np.column_stack([r, s, np.full(r.size, float(t))])

    vals = value_fn(points).reshape(r.size, -1)
    vals0, base = vals[:num_r], vals[num_r : num_r + 3]
    approach = vals[num_r + 3 :].reshape(eps.size, 3, -1)
    jac = polar_map.jacobian(points[num_r : num_r + 3])[1]
    weights = np.linalg.svd(jac[:, :, 1].T)[2][-1]
    table = [
        (float(e), np.abs(weights @ (v - base)) / e)
        for e, v in zip(eps_list, approach)
    ]
    return SmoothnessProbeReport(
        r_samples=rs,
        value_discrepancy=vals0.max(axis=0) - vals0.min(axis=0),
        c1_table=table,
    )


def smoothness_probe(cx, t, eps_list, space="reduced"):
    """Probe every level-0 basis function of `cx` at once through the
    library's batched evaluation.  `space` "reduced" probes the polar
    vertex basis, "tensor" the raw tensor-product basis, which is
    generically multivalued at s = 0."""
    if space not in ("reduced", "tensor"):
        raise ValueError(f"unknown space {space!r}")

    def values(points):
        if space == "reduced":
            return cx.reduced_basis_values(0, points)
        cols, vals = cx.tensor.local_level_basis(0, cx.tensor.local_factors(points))
        n, m = cx.tensor.level_dim(0), len(points)
        flat = np.arange(m) * n + cols
        return np.bincount(flat.ravel(), weights=vals.ravel(), minlength=m * n).reshape(m, n)

    return probe_engine(values, cx.polar_map, cx.tensor, t, eps_list)


def probe_passes(cx, residual=1e-12):
    """The sampled probe's gate: single-valued at s = 0 to `residual`,
    each C1 estimate at most the one at the previous, larger step or below
    the noise floor, and a raw tensor basis the probe sees as multivalued."""
    rep = smoothness_probe(cx, PROBE_T, EPS_LIST)
    deltas = [d for _, d in rep.c1_table]
    monotone = all(np.all((nxt <= prev) | (nxt <= PROBE_FLOOR))
                   for prev, nxt in zip(deltas, deltas[1:]))
    raw = smoothness_probe(cx, PROBE_T, EPS_LIST[:1], space="tensor")
    return bool(rep.value_discrepancy.max() <= residual and monotone
                and raw.value_discrepancy.max() > NEGATIVE_CONTROL_MIN)
