"""Dense reference evaluations that the tests check the library against.

Each one builds a vector as long as the space or decomposes a dense
matrix, so its cost grows with the size of the space.  The library itself
evaluates through per-span tables (`SplineSpace.eval_local`,
`TensorComplex.local_products`) and decides ranks from structure; these
are the independent, one-point-at-a-time definitions those paths must
reproduce.
"""

import numpy as np
from scipy import sparse

from polar_derham.bsplines import KnotVector, dta_diagnostic
from polar_derham.incidence import _decide, _threshold


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


def is_dta_compatible(matrix):
    """Check full rank, unit column sums and non-negativity of `matrix`,
    with its rank from a dense SVD (see `dta_diagnostic`)."""
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
    return dta_diagnostic(matrix, int(np.linalg.matrix_rank(dense)))
