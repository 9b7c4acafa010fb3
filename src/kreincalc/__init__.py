"""Functional calculus for definitizable normal operators on
finite-dimensional indefinite inner product spaces."""

from .bipoly import BiPoly, RealPoly, ZeroGrid
from .calculus import (
    CalculusContext,
    CalculusFunction,
    CriticalSet,
    Disk,
    Rect,
    RegionUnion,
    function_from_dict,
    region_from_dict,
)
from .embed import EmbeddingBundle, build_bundle, gram_factor
from .errors import (
    BoundaryError,
    ConditioningError,
    ConstructionError,
    DegenerateInputError,
    DomainMismatchError,
    KreinCalcError,
    NotInCommutantError,
    NotInIdealError,
    NotInvertibleError,
    NotNormalError,
    NotPsdError,
    SearchFailedError,
    ShapeMismatchError,
    ValidationError,
)
from .instances import Instance, generate, parse_instance
from .jets import JetShape
from .krein import (
    DefinitizablePair,
    KreinSpace,
    search_definitizing,
    split_normal,
    verify_definitizing,
)
from .spectral import SpectralData, diagonalize, spectral_integral
from .suite import Report, run_suite
from .tol import DEFAULT_TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BoundaryError",
    "CalculusContext",
    "CalculusFunction",
    "ConditioningError",
    "ConstructionError",
    "CriticalSet",
    "DEFAULT_TOL",
    "DefinitizablePair",
    "DegenerateInputError",
    "Disk",
    "DomainMismatchError",
    "EmbeddingBundle",
    "Instance",
    "JetShape",
    "KreinCalcError",
    "KreinSpace",
    "NotInCommutantError",
    "NotInIdealError",
    "NotInvertibleError",
    "NotNormalError",
    "NotPsdError",
    "RealPoly",
    "Rect",
    "RegionUnion",
    "Report",
    "SearchFailedError",
    "ShapeMismatchError",
    "SpectralData",
    "Tolerances",
    "ValidationError",
    "ZeroGrid",
    "build_bundle",
    "diagonalize",
    "function_from_dict",
    "generate",
    "gram_factor",
    "parse_instance",
    "region_from_dict",
    "run_suite",
    "search_definitizing",
    "spectral_integral",
    "split_normal",
    "verify_definitizing",
]
