"""Waring decomposition of homogeneous polynomials over the complex numbers."""

from .binary import binary_decompose, hankel_slice
from .core import (
    Decomposition,
    DecompositionError,
    DualForm,
    HomogeneousPoly,
    PolyParseError,
    apolar,
    parse_poly,
    to_dual,
)
from .decompose import (
    DecomposeReport,
    OrbitClass,
    VerifyReport,
    classify_ternary_cubic,
    decompose,
    verify,
)
from .extension import CommutatorResidual, ExtensionSolution, extend_dual
from .hankel import (
    MonomialBasis,
    build_hankel,
    full_rank_principal_minor,
    kernel_generators,
)
from .spectral import (
    ExtractionError,
    extract_points,
    pencil_support,
    solve_weights,
)

__all__ = [
    "CommutatorResidual",
    "Decomposition",
    "DecompositionError",
    "DecomposeReport",
    "DualForm",
    "ExtensionSolution",
    "ExtractionError",
    "HomogeneousPoly",
    "MonomialBasis",
    "OrbitClass",
    "PolyParseError",
    "VerifyReport",
    "apolar",
    "binary_decompose",
    "build_hankel",
    "classify_ternary_cubic",
    "decompose",
    "extend_dual",
    "extract_points",
    "full_rank_principal_minor",
    "hankel_slice",
    "kernel_generators",
    "parse_poly",
    "pencil_support",
    "solve_weights",
    "to_dual",
    "verify",
]

__version__ = "0.1.0"
