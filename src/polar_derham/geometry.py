"""Polar geometry of the solid torus: maps, Jacobians, pushforwards.

The polar map F collapses the s = 0 face of the parameter box onto a
circle around the hole of the torus; the reduced-space geometry map G
reparametrizes the same solid with a control net that is smooth across
that polar curve.  Physical-space evaluation is always parametric: a
sample (r, s, t) is emitted together with its image, the map is never
inverted.
"""

from dataclasses import dataclass

import numpy as np

from .extraction import control_angles, reduced_basis_values
from .tensor import LEVEL_PATTERNS

__all__ = [
    "SingularityProximityError",
    "check_singularity_floor",
    "SplineMap",
    "build_polar_map",
    "build_geometry_g",
    "pushforward_eval",
    "polar_c1_residuals",
    "RHO_BAR_MAX",
    "S_MIN_FACTOR",
    "check_rho_bar",
]

# The largest supported major-radius offset.  The C1 check reads F's ring-1
# steps only to ulp(max|F|), so its rounding bound grows with rho_bar
# relative to those steps: at 1e12 it reaches 0.1 at (48,48,24), and ten
# times higher it would pass 1, the scale of what it bounds.
RHO_BAR_MAX = 1e12


class SingularityProximityError(ValueError):
    """Raised when a field transform is requested too close to s = 0."""


# ============================== spline maps ==================================

# The value, then the r, s and t partials: 1 picks a direction's derivatives.
_JACOBIAN_CHOICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


class SplineMap:
    """R^3-valued spline over the level-0 tensor-product basis.

    Control points are flat in the layout of :mod:`polar_derham.tensor`
    (first index fastest), one xyz row per basis function.
    """

    def __init__(self, tensor, control_points):
        control_points = np.asarray(control_points, dtype=float)
        n = tensor.level_dim(0)
        if control_points.shape != (n, 3):
            raise ValueError(
                f"control net must have shape ({n}, 3), got {control_points.shape}"
            )
        self.tensor = tensor
        self.control_points = control_points
        self._grid = control_points.reshape(tensor.nt, tensor.ns, tensor.nr, 3)

    def _contract(self, products):
        """(m, k, 3): the local control points weighted by the
        :meth:`TensorComplex.local_products` (keys, weights) of k choices
        that pick values or derivatives (0 or 1) per direction.  All of
        them read the level-0 functions, whose keys index the control net,
        so the first choice's keys address it for every choice."""
        keys, weights = products
        return np.einsum("ckm,cmd->mkd", weights, self.control_points[keys[:, 0]])

    def eval(self, point):
        """Image of one (r, s, t) point, (3,), or of an (m, 3) batch, (m, 3)."""
        factors = self.tensor.local_factors(point)
        xyz = self._contract(self.tensor.local_products(factors, _JACOBIAN_CHOICES[:1]))[:, 0]
        return xyz[0] if factors.single else xyz

    def _value_and_partials(self, products):
        """(xyz, DF) from the products of :data:`_JACOBIAN_CHOICES`, (m, 3) and
        (m, 3, 3): the local control points are gathered once and weighted
        by the value and the three partials in one product."""
        c = self._contract(products)
        return c[:, 0], np.swapaxes(c[:, 1:], 1, 2)

    def jacobian(self, point):
        """(xyz, DF, det DF); DF columns are the r, s, t partials.

        A batch of m points gives shapes (m, 3), (m, 3, 3) and (m,).
        """
        factors = self.tensor.local_factors(point)
        xyz, jac = self._value_and_partials(self.tensor.local_products(factors, _JACOBIAN_CHOICES))
        det = np.linalg.det(jac)
        if factors.single:
            return xyz[0], jac[0], float(det[0])
        return xyz, jac, det


# ============================== polar map F ==================================

@dataclass(frozen=True)
class PolarMapData:
    rho_bar: float
    rhos: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray


class PolarMap(SplineMap):
    """The singular torus parametrization with its control-angle data."""

    def __init__(self, tensor, control_points, data):
        super().__init__(tensor, control_points)
        self.data = data


def check_rho_bar(rho_bar):
    """The major-radius offset as a float; ValueError naming rho_bar unless
    it is finite, exceeds 2 and is at most RHO_BAR_MAX."""
    rho_bar = float(rho_bar)
    if not 2 < rho_bar <= RHO_BAR_MAX:
        raise ValueError(f"rho_bar (major-radius offset) must be finite, exceed 2 and "
                         f"be at most {RHO_BAR_MAX:g}, got {rho_bar}")
    return rho_bar


def build_polar_map(tensor, rho_bar):
    """Control net of the polar map: circles of radius rho_j around the
    ring of major radius rho_bar, collapsing to the polar curve at the
    innermost ring."""
    rho_bar = check_rho_bar(rho_bar)
    nr, ns, nt = tensor.dims
    rhos = np.arange(ns) / (ns - 1)
    thetas = control_angles(nr)
    phis = control_angles(nt)
    rad = rho_bar + rhos[:, None] * np.cos(thetas)
    net = np.empty((nt, ns, nr, 3))
    net[..., 0] = rad * np.cos(phis)[:, None, None]
    net[..., 1] = rad * np.sin(phis)[:, None, None]
    net[..., 2] = rhos[:, None] * np.sin(thetas)
    return PolarMap(
        tensor, net.reshape(-1, 3), PolarMapData(rho_bar, rhos, thetas, phis)
    )


# ============================ geometry map G =================================

class GeometryMapG(SplineMap):
    """Smooth reparametrization over the reduced vertex basis.

    Three center control points per joint sit 120 degrees apart on a
    small circle in the meridian plane; the outer points coincide with
    the polar-map net.
    """

    def __init__(self, tensor, reduced_control_points, extraction):
        self.reduced_control_points = np.asarray(reduced_control_points, float)
        tensor_net = np.empty((tensor.level_dim(0), 3))
        for axis, points in enumerate(self.reduced_control_points.T):
            tensor_net[:, axis] = extraction.to_tensor(0, points)
        super().__init__(tensor, tensor_net)


def build_geometry_g(tensor, extraction, polar_map):
    """Reduced control net of the smooth geometry map.

    Per joint, the three center points are followed by the polar-map net
    of the vertex rings j >= 2 (0-based), in the tensor layout.
    """
    data = polar_map.data
    rho2 = data.rhos[1]
    height = np.sqrt(3.0) / 2 * rho2
    rad = data.rho_bar + np.array([rho2, -rho2 / 2, -rho2 / 2])
    nt = tensor.nt
    pts = np.empty((nt, extraction.counts.nbar0, 3))
    pts[:, :3, 0] = rad * np.cos(data.phis)[:, None]
    pts[:, :3, 1] = rad * np.sin(data.phis)[:, None]
    pts[:, :3, 2] = [0.0, height, -height]
    pts[:, 3:] = polar_map._grid[:, 2:].reshape(nt, -1, 3)
    return GeometryMapG(tensor, pts.reshape(-1, 3), extraction)


# ============================= pushforwards ==================================

# The singularity floor: levels 1-3 refuse points with s below this
# fraction of the s-interval, where det DF vanishes at s = 0.
S_MIN_FACTOR = 1e-8

# Points per batch inside one call; bounds the gather's temporaries, which
# hold all of a level's components at once (a few MB at 512 points).
_CHUNK = 512


def check_singularity_floor(level, s, S):
    """Reject a level > 0 pushforward at s below ``S_MIN_FACTOR * S``."""
    s_min = S_MIN_FACTOR * S
    if level > 0 and s < s_min:
        raise SingularityProximityError(
            f"level-{level} pushforward undefined this close to the polar "
            f"curve: s = {s} < s_min = {s_min}"
        )


def pushforward_eval(polar_map, tensor, extraction, level, coeffs, point):
    """Physical location and pushforward value of a reduced-space field.

    Levels transform as scalar, covector (DF^{-T}), vector density
    (DF / det) and density (1 / det); the latter three refuse points with
    s below ``S_MIN_FACTOR * S``.  Everything is evaluated parametrically.

    `point` is one (r, s, t) point, giving xyz (3,) and a scalar or (3,)
    value, or an (m, 3) array, giving xyz (m, 3) and values (m,) or
    (m, 3).  Every coordinate must be finite.
    """
    if level not in (0, 1, 2, 3):
        raise ValueError(f"level must be 0..3, got {level}")
    coeffs = np.asarray(coeffs, dtype=float)
    expected = extraction.counts.level_dim(level)
    if coeffs.shape != (expected,):
        raise ValueError(
            f"level-{level} field needs {expected} coefficients, got {coeffs.shape}"
        )
    pts = np.asarray(point, dtype=float)
    if pts.ndim == 2 and len(pts) > _CHUNK:
        parts = [
            pushforward_eval(polar_map, tensor, extraction, level, coeffs,
                             pts[i : i + _CHUNK])
            for i in range(0, len(pts), _CHUNK)
        ]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    factors = tensor.local_factors(pts)
    check_singularity_floor(level, factors.points[:, 1].min(initial=np.inf),
                            tensor.spaces[1].interval[1])
    # the level's basis and F's value and partials in one call; level 0's
    # single choice is F's value
    k = len(LEVEL_PATTERNS[level])
    keys, vals = tensor.local_level_basis(level, factors, _JACOBIAN_CHOICES if level else ())
    basis = keys[:, :k], vals[:, :k]
    param = reduced_basis_values(extraction, tensor, level, factors, coeffs=coeffs, products=basis)
    if level == 0:
        xyz = polar_map._contract(basis)[:, 0]
        return (xyz[0], float(param)) if factors.single else (xyz, param)
    xyz, jac = polar_map._value_and_partials((keys[:, k:], np.ascontiguousarray(vals[:, k:])))
    if factors.single:
        xyz, jac = xyz[0], jac[0]
    if level == 1:
        # a covector needs no determinant
        return xyz, np.linalg.solve(np.swapaxes(jac, -1, -2), param[..., None])[..., 0]
    det = np.linalg.det(jac)
    if level == 2:
        return xyz, np.einsum("...ij,...j->...i", jac, param) / np.expand_dims(det, -1)
    value = param / det
    return xyz, (float(value) if factors.single else value)


# ============================ polar-curve C1 =================================

def polar_c1_residuals(extraction, polar_map):
    """The C1 condition of the level-0 reduced basis at the polar curve,
    read off the extraction and F's control net, with no basis evaluation.

    For p_s >= 2, a function ``sum c_ij B_i(r) B_j(s)`` is C1 across the
    polar curve of F when, per joint, its ring-0 coefficients are equal and
    its ring-1 steps ``c_i1 - c_i0`` are ``g . (F_i1 - F_i0)`` for one
    g in R^3 (Toshniwal, Speleers, Hiemstra and Hughes, *Multi-degree
    smooth polar splines*, CMAME 2017).  F's ring-1 steps span the meridian
    plane, so the function's steps must lie in the span of their two
    leading left singular vectors.  Every joint's ring-0 and ring-1 columns
    of E000 are read from the level-0 :meth:`ExtractionSet.column_table`,
    e0's columns in every joint (or an override's own), one (function,
    joint) pair per function that touches them, in O(nr nt).

    Returns ``(ring0_spread, c1_affine_residual, bound, (joint, function))``:
    the largest ring-0 spread and the largest distance of a ring-1 step
    vector from that span, both relative to the largest ring-1 coefficient;
    the rounding bound both must meet, ``eps nr max|F| / sigma_2``, where F
    is read to ulp(max|F|) and sigma_2, the smallest in-plane singular value
    of the steps over the joints, is their in-plane size; and the joint and
    the 0-based reduced function of the worst pair.
    """
    c = extraction.counts
    nr, nt = c.nr, c.nt
    net = polar_map._grid[:, :2]
    u, sv, _ = np.linalg.svd(net[:, 1] - net[:, 0], full_matrices=False)
    plane = u[:, :, :2]
    bound = float(np.finfo(float).eps * nr * np.abs(net).max() / sv[:, 1].min())
    table = extraction.column_table(0)
    cols = (np.arange(nt)[:, None] * table.joint_cols + np.arange(2 * nr)).ravel()
    block = table.entries[cols].tocoo()
    joint, pos = np.divmod(block.row, 2 * nr)
    rows = block.col.astype(np.int64) + joint * table.joint_rows
    keys, pair = np.unique(rows * nt + joint, return_inverse=True)
    coef = np.zeros((keys.size, 2 * nr))
    coef[pair, pos] = block.data
    ring0, ring1 = coef[:, :nr], coef[:, nr:]
    steps, basis = ring1 - ring0, plane[keys % nt]
    off_plane = steps - np.einsum("pia,pa->pi", basis, np.einsum("pia,pi->pa", basis, steps))
    scale = np.abs(ring1).max()
    spread = (ring0.max(axis=1) - ring0.min(axis=1)) / scale
    residual = np.abs(off_plane).max(axis=1) / scale
    worst = int(np.argmax(np.maximum(spread, residual)))
    return (float(spread.max()), float(residual.max()), bound,
            (int(keys[worst] % nt), int(keys[worst] // nt)))
