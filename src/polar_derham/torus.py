"""Assembly of the full polar spline complex on the solid torus.

One spec object fixes degrees, reduced dimensions, the major-radius
offset and the parametric interval lengths; building it yields the
univariate spaces, the tensor levels, all extraction and incidence
matrices and the two geometry control nets.
"""

from dataclasses import dataclass

import numpy as np

from .extraction import assemble_3d, ebar_block, reduced_basis_values
from .geometry import (
    build_geometry_g,
    build_polar_map,
    polar_basis_smoothness_probe,
    polar_smoothness_probe,
    pushforward_eval,
)
from .incidence import build_incidence, cohomology_dimensions, verify_commutation
from .tensor import LEVEL_PATTERNS, build_tensor_sequence, check_size_floors

__all__ = [
    "TorusComplexSpec",
    "FieldCoefficients",
    "PolarComplex",
    "build_complex",
]


@dataclass(frozen=True)
class TorusComplexSpec:
    """Parameters defining one polar complex.

    `dims` counts univariate basis functions after periodic reduction in
    the first and third directions.  Uniform open knot vectors with
    interior multiplicity one are used throughout, so distinct-knot
    counts and dims are interchangeable descriptions.
    """

    degrees: tuple
    dims: tuple
    rho_bar: float = 3.0
    lengths: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(p) for p in self.degrees))
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "rho_bar", float(self.rho_bar))
        if len(self.degrees) != 3 or len(self.dims) != 3 or len(self.lengths) != 3:
            raise ValueError("degrees, dims and lengths must be triples")
        if min(self.degrees) < 2:
            raise ValueError(f"degrees >= 2 required, got {self.degrees}")
        check_size_floors(*self.dims)
        if not self.rho_bar > 2:
            raise ValueError(
                f"major-radius offset must exceed 2, got {self.rho_bar}"
            )
        if min(self.lengths) <= 0:
            raise ValueError(f"interval lengths must be positive, got {self.lengths}")

    @property
    def distinct_knots(self):
        """Distinct-knot counts per direction for the uniform open vectors."""
        (pr, ps, pt), (nr, ns, nt) = self.degrees, self.dims
        return nr - pr + 3, ns - ps + 1, nt - pt + 3

    @classmethod
    def from_distinct_knots(cls, degrees, distinct, rho_bar=3.0,
                            lengths=(1.0, 1.0, 1.0)):
        pr, ps, pt = degrees
        dr, ds, dt = distinct
        dims = (dr + pr - 3, ds + ps - 1, dt + pt - 3)
        return cls(degrees=tuple(degrees), dims=dims, rho_bar=rho_bar,
                   lengths=tuple(lengths))


@dataclass
class FieldCoefficients:
    """A coefficient vector tagged with its complex level and space."""

    level: int
    space: str  # "reduced" or "tensor"
    data: np.ndarray

    def __post_init__(self):
        if self.level not in (0, 1, 2, 3):
            raise ValueError(f"level must be 0..3, got {self.level}")
        if self.space not in ("reduced", "tensor"):
            raise ValueError(f"space must be 'reduced' or 'tensor', got {self.space}")
        self.data = np.asarray(self.data, dtype=float)


class PolarComplex:
    """The assembled artifact: spaces, matrices and geometry of one spec."""

    def __init__(self, spec, tensor, extraction, incidence, polar_map, geometry_map):
        self.spec = spec
        self.tensor = tensor
        self.extraction = extraction
        self.incidence = incidence
        self.polar_map = polar_map
        self.geometry_map = geometry_map

    @property
    def counts(self):
        return self.extraction.counts

    def dims_record(self):
        c = self.counts
        return {
            "degrees": list(self.spec.degrees),
            "dims": list(self.spec.dims),
            "distinct_knots": list(self.spec.distinct_knots),
            "rho_bar": self.spec.rho_bar,
            "lengths": list(self.spec.lengths),
            "knots": {
                name: sp.kv.knots.tolist()
                for name, sp in zip("rst", self.tensor.spaces)
            },
            "nbar": [c.nbar0, c.nbar1, c.nbar2],
            "reduced_dims": [c.n0, c.n1, c.n2, c.n3],
            "tensor_dims": [self.tensor.level_dim(level) for level in range(4)],
            "alternating_sum": c.alternating_sum,
        }

    # --------------------------- field algebra ------------------------------

    def _check_field(self, coeffs, level, space):
        if isinstance(coeffs, FieldCoefficients):
            if level is not None and coeffs.level != level:
                raise ValueError(
                    f"expected a level-{level} field, got level {coeffs.level}"
                )
            return coeffs
        return FieldCoefficients(level=level, space=space, data=coeffs)

    def _dim(self, level, space):
        if space == "reduced":
            return self.counts.level_dim(level)
        return self.tensor.level_dim(level)

    def _validated(self, f):
        expected = self._dim(f.level, f.space)
        if f.data.shape != (expected,):
            raise ValueError(
                f"level-{f.level} {f.space} field needs {expected} "
                f"coefficients, got shape {f.data.shape}"
            )
        return f

    def _derivative(self, level, coeffs):
        """The level -> level + 1 operator of the field's own space."""
        f = self._validated(self._check_field(coeffs, level, "reduced"))
        if f.space == "reduced":
            data = getattr(self.incidence, f"D{level}") @ f.data
        else:
            # through the named methods, which perfbench/tracer.py times
            t = self.tensor
            data = (t.apply_grad, t.apply_curl, t.apply_div)[level](f.data)
        return FieldCoefficients(level + 1, f.space, data)

    def grad(self, coeffs):
        return self._derivative(0, coeffs)

    def curl(self, coeffs):
        return self._derivative(1, coeffs)

    def div(self, coeffs):
        return self._derivative(2, coeffs)

    def to_tensor(self, field_coeffs):
        """Re-express a reduced field on the tensor-product levels."""
        f = self._validated(self._check_field(field_coeffs, None, "reduced"))
        if f.space == "tensor":
            return f
        mats = [E for _, E in self.extraction.level_matrices(f.level)]
        data = np.concatenate([np.asarray(E.T @ f.data) for E in mats])
        return FieldCoefficients(f.level, "tensor", data)

    # ------------------------- pointwise evaluation -------------------------

    def reduced_basis_values(self, level, point):
        return reduced_basis_values(self.extraction, self.tensor, level, point)

    def pushforward(self, coeffs, point, level=None, s_min_factor=1e-8):
        f = self._validated(self._check_field(coeffs, level, "reduced"))
        if f.space != "reduced":
            raise ValueError("pushforward evaluation expects a reduced field")
        return pushforward_eval(
            self.polar_map, self.tensor, self.extraction,
            f.level, f.data, point, s_min_factor=s_min_factor,
        )

    def smoothness_probe(self, coeffs, t, eps_list, space="reduced", num_r=8):
        return polar_smoothness_probe(
            self.polar_map, self.tensor, self.extraction,
            coeffs, t, eps_list, space=space, num_r=num_r,
        )

    def basis_smoothness_probe(self, t, eps_list, space="reduced", num_r=8):
        return polar_basis_smoothness_probe(
            self.polar_map, self.tensor, self.extraction,
            t, eps_list, space=space, num_r=num_r,
        )

    # ----------------------------- reporting --------------------------------

    def commutation_residuals(self):
        return verify_commutation(self.tensor, self.extraction, self.incidence)

    def cohomology(self, rank_tol=None, harmonic=True):
        return cohomology_dimensions(self.incidence, rank_tol=rank_tol,
                                     harmonic=harmonic)

    def named_matrices(self):
        """All exportable matrices keyed by their conventional names."""
        e, inc, t = self.extraction, self.incidence, self.tensor
        mats = {name: getattr(e, name) for name in e.names()}
        mats.update({"D0": inc.D0, "D1": inc.D1, "D2": inc.D2})
        # D100, D010, D001: the stencil of each direction on level 0
        mats.update({"D" + "".join(map(str, pat)): t.derivative(axis)
                     for axis, pat in enumerate(LEVEL_PATTERNS[1])})
        mats.update({
            "H0_r": t.spaces[0].h0, "H1_r": t.spaces[0].h1,
            "H0_t": t.spaces[2].h0, "H1_t": t.spaces[2].h1,
        })
        return mats


def build_complex(spec, ebar_perturbation=0.0):
    """Build every part of the polar complex for one spec.

    `ebar_perturbation` shifts one center-block entry and is the negative
    control of the verification suite; the default 0 builds the exact
    construction.
    """
    tensor = build_tensor_sequence(spec.degrees, spec.dims, spec.lengths)
    nr, ns, nt = spec.dims
    ebar = ebar_block(nr)
    if ebar_perturbation:
        ebar = ebar.perturbed(ebar_perturbation)
    extraction = assemble_3d(nr, ns, nt, ebar)
    incidence = build_incidence(nr, ns, nt, ebar)
    polar_map = build_polar_map(tensor, spec.rho_bar)
    geometry_map = build_geometry_g(tensor, extraction, polar_map)
    return PolarComplex(spec, tensor, extraction, incidence, polar_map, geometry_map)
