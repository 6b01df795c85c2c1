"""Assembly of the full polar spline complex on the solid torus.

One spec object fixes degrees, reduced dimensions, the major-radius
offset and the parametric interval lengths; building it yields the
univariate spaces, the tensor levels, all extraction and incidence
matrices and the two geometry control nets.
"""

from dataclasses import dataclass

import numpy as np

from .extraction import ExtractionSet, assemble_3d, ebar_block, reduced_basis_values
from .geometry import (
    GeometryMapG,
    PolarMap,
    build_geometry_g,
    build_polar_map,
    check_rho_bar,
    pushforward_eval,
)
from .incidence import (IncidenceSet, build_incidence, certify, cohomology_dimensions,
                        commutation_residuals, disk_blocks)
from .tensor import (LEVEL_PATTERNS, StructureError, TensorComplex, build_tensor_sequence,
                     check_size_floors, distinct_knot_counts)

__all__ = [
    "MATRIX_NAMES",
    "TorusComplexSpec",
    "FieldCoefficients",
    "PolarComplex",
    "build_complex",
]

_STENCILS = tuple("D" + "".join(map(str, pat)) for pat in LEVEL_PATTERNS[1])

# Every exportable matrix: the extraction, incidence and level-0 stencil
# matrices and the univariate periodic extraction pairs.
MATRIX_NAMES = (*ExtractionSet.names(), "D0", "D1", "D2", *_STENCILS,
                "H0_r", "H1_r", "H0_t", "H1_t")


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
        check_size_floors(self.degrees, self.dims)
        check_rho_bar(self.rho_bar)
        if not (np.isfinite(self.lengths).all() and min(self.lengths) > 0):
            raise ValueError(f"lengths must be finite and positive, got {self.lengths}")

    @property
    def distinct_knots(self):
        """Distinct-knot counts per direction for the uniform open vectors."""
        return distinct_knot_counts(self.degrees, self.dims)


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


@dataclass(eq=False, repr=False)
class PolarComplex:
    """The assembled artifact: spaces, matrices and geometry of one spec."""

    spec: TorusComplexSpec
    tensor: TensorComplex
    extraction: ExtractionSet
    incidence: IncidenceSet
    polar_map: PolarMap
    geometry_map: GeometryMapG

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

    def _check_field(self, f, level):
        """`f` as a FieldCoefficients of the given `level` (any level for
        None) with the coefficient count of its space; a plain array is a
        reduced field."""
        if not isinstance(f, FieldCoefficients):
            if level is None:
                c = self.counts
                raise ValueError(
                    "to_tensor needs a FieldCoefficients: a plain array does not say "
                    "its level, so wrap it as FieldCoefficients(level, 'reduced', data); "
                    f"levels 0..3 take {c.n0}, {c.n1}, {c.n2}, {c.n3} coefficients"
                )
            f = FieldCoefficients(level=level, space="reduced", data=f)
        elif level is not None and f.level != level:
            raise ValueError(f"expected a level-{level} field, got level {f.level}")
        expected = (self.counts if f.space == "reduced" else self.tensor).level_dim(f.level)
        if f.data.shape != (expected,):
            raise ValueError(
                f"level-{f.level} {f.space} field needs {expected} "
                f"coefficients, got shape {f.data.shape}"
            )
        return f

    def _derivative(self, level, coeffs):
        """The level -> level + 1 operator of the field's own space."""
        f = self._check_field(coeffs, level)
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
        f = self._check_field(field_coeffs, None)
        if f.space == "tensor":
            return f
        return FieldCoefficients(f.level, "tensor", self.extraction.to_tensor(f.level, f.data))

    # ------------------------- pointwise evaluation -------------------------

    def reduced_basis_values(self, level, point):
        return reduced_basis_values(self.extraction, self.tensor, level, point)

    def pushforward(self, coeffs, point, level=None):
        f = self._check_field(coeffs, level)
        if f.space != "reduced":
            raise ValueError("pushforward evaluation expects a reduced field")
        return pushforward_eval(
            self.polar_map, self.tensor, self.extraction, f.level, f.data, point,
        )

    # ----------------------------- reporting --------------------------------

    def commutation_residuals(self):
        blocks, violations = certify(self.extraction, self.incidence)
        if violations:
            raise StructureError("; ".join(violations.values()))
        return commutation_residuals(self.counts, blocks)

    def cohomology(self):
        return cohomology_dimensions(self.incidence, disk_blocks(self.incidence))

    def named_matrix(self, name):
        """One exportable matrix by its conventional name (:data:`MATRIX_NAMES`),
        formed on request but for D0 to D2, which the complex keeps."""
        e, t = self.extraction, self.tensor
        if name in e.names():
            return e.matrix(name)
        if name in _STENCILS:
            # D100, D010, D001: the stencil of each direction on level 0
            return t.derivative(_STENCILS.index(name))
        if name in ("H0_r", "H1_r", "H0_t", "H1_t"):
            return getattr(t.spaces[{"r": 0, "t": 2}[name[-1]]], name[:2].lower())
        if name in ("D0", "D1", "D2"):
            return getattr(self.incidence, name)
        raise KeyError(f"unknown matrix name {name!r}")

    def named_matrices(self):
        """All exportable matrices keyed by their conventional names."""
        return {name: self.named_matrix(name) for name in MATRIX_NAMES}


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
    incidence = build_incidence(extraction)
    polar_map = build_polar_map(tensor, spec.rho_bar)
    geometry_map = build_geometry_g(tensor, extraction, polar_map)
    return PolarComplex(spec, tensor, extraction, incidence, polar_map, geometry_map)
