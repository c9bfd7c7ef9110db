"""Waring decomposition of homogeneous polynomials over the complex numbers."""

from .core import (
    Decomposition,
    DecompositionError,
    HomogeneousPoly,
    PolyParseError,
    parse_poly,
)
from .decompose import (
    DecomposeReport,
    OrbitClass,
    VerifyReport,
    classify_ternary_cubic,
    decompose,
    verify,
)

__all__ = [
    "Decomposition",
    "DecompositionError",
    "DecomposeReport",
    "HomogeneousPoly",
    "OrbitClass",
    "PolyParseError",
    "VerifyReport",
    "classify_ternary_cubic",
    "decompose",
    "parse_poly",
    "verify",
]

__version__ = "0.1.0"
