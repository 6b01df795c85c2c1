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

__all__ = [
    "SingularityProximityError",
    "check_singularity_floor",
    "SplineMap",
    "build_polar_map",
    "build_geometry_g",
    "pushforward_eval",
    "polar_basis_smoothness_probe",
    "SmoothnessProbeReport",
    "RHO_BAR_MAX",
    "S_MIN_FACTOR",
    "PROBE_R_SAMPLES",
    "check_rho_bar",
]

# The largest supported major-radius offset: the C1 probe's absolute
# noise floor must stay above the rounding of values that grow with it.
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

    def _contract(self, factors, choices):
        """(m, k, 3): the local control points weighted by the
        :meth:`TensorComplex.local_products` of each row of `choices`, which
        picks values or derivatives (0 or 1) per direction.  All rows read
        the same functions, so the first row's indices, which count from 0,
        address the control net for every row."""
        cols, weights = self.tensor.local_products(factors, choices)
        return np.einsum("ckm,cmd->mkd", weights, self.control_points[cols[:, 0]])

    def eval(self, point):
        """Image of one (r, s, t) point, (3,), or of an (m, 3) batch, (m, 3)."""
        factors = self.tensor.local_factors(point)
        xyz = self._contract(factors, _JACOBIAN_CHOICES[:1])[:, 0]
        return xyz[0] if factors.single else xyz

    def _value_and_partials(self, factors):
        """(xyz, DF) at the factors' points, (m, 3) and (m, 3, 3): the local
        control points are gathered once and weighted by the value and the
        three partials in one product."""
        c = self._contract(factors, _JACOBIAN_CHOICES)
        return c[:, 0], np.swapaxes(c[:, 1:], 1, 2)

    def jacobian(self, point):
        """(xyz, DF, det DF); DF columns are the r, s, t partials.

        A batch of m points gives shapes (m, 3), (m, 3, 3) and (m,).
        """
        factors = self.tensor.local_factors(point)
        xyz, jac = self._value_and_partials(factors)
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
        tensor_net = extraction.E000.T @ self.reduced_control_points
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
    param = reduced_basis_values(extraction, tensor, level, factors, coeffs=coeffs)
    if level == 0:
        return polar_map.eval(factors), (float(param) if factors.single else param)
    xyz, jac = polar_map._value_and_partials(factors)
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


# =========================== smoothness probes ===============================

@dataclass
class SmoothnessProbeReport:
    """Discrepancy tables of the polar-curve regularity probe.

    ``value_discrepancy`` is the spread of the field over the collapsed
    s = 0 face (well-definedness); ``c1_table`` holds, per epsilon, the
    weighted first-difference estimate of the derivative mismatch across
    the polar curve, which must shrink at least linearly for a field
    whose pushforward is C1 there.
    """

    r_samples: np.ndarray
    value_discrepancy: np.ndarray
    c1_table: list


# Samples of the collapsed s = 0 face.
PROBE_R_SAMPLES = 8


def _probe_engine(value_fn, polar_map, tensor, t, eps_list):
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


def polar_basis_smoothness_probe(polar_map, tensor, extraction, t, eps_list,
                                 space="reduced"):
    """Probe every level-0 basis function at once.

    Returns a report whose discrepancy entries are vectors indexed by
    basis function: `space` "reduced" probes the polar vertex basis,
    "tensor" the raw tensor-product basis, the negative control, which is
    generically multivalued at s = 0.
    """
    if space not in ("reduced", "tensor"):
        raise ValueError(f"unknown space {space!r}")

    def values(points):
        if space == "reduced":
            return reduced_basis_values(extraction, tensor, 0, points)
        cols, vals = tensor.local_level_basis(0, points)
        n, m = tensor.level_dim(0), len(points)
        flat = np.arange(m) * n + cols
        return np.bincount(flat.ravel(), weights=vals.ravel(), minlength=m * n).reshape(m, n)

    return _probe_engine(values, polar_map, tensor, t, eps_list)
