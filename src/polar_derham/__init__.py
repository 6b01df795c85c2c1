"""Discrete de Rham complexes of polar splines on solid toroidal domains."""

from .bsplines import (
    KnotVector,
    SplineSpace,
    difference_matrix,
    make_uniform_open_knots,
    periodic_h0,
    periodic_h1,
)
from .extraction import (
    EbarBlock,
    ExtractionSet,
    PolarCounts,
    assemble_3d,
    ebar_block,
    polar_counts,
    reduced_basis_values,
)
from .geometry import (
    SingularityProximityError,
    SplineMap,
    build_geometry_g,
    build_polar_map,
    pushforward_eval,
)
from .incidence import (
    CohomologyReport,
    IncidenceSet,
    build_incidence,
    cohomology_dimensions,
    divergence_preimage,
)
from .tensor import LEVEL_PATTERNS, TensorComplex, build_tensor_sequence
from .torus import FieldCoefficients, PolarComplex, TorusComplexSpec, build_complex
from .iotools import ComplexConfig, read_triplet, write_bundle, write_triplet
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"
