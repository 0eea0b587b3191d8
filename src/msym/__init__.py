"""Exact mod-2 topology of symmetric products of real curves with maximal
real locus: generating-function Betti sums, CW models of the real loci,
GF(2) homology from matrix rank, and equality certification.

This namespace holds the names of the README's examples, the verdict and
method constants, the report type and the errors a caller catches; every
other name is imported from its module (``msym.homology``, ``msym.genfun``,
``msym.realmodels``, ``msym.mcheck``, ``msym.fibration``)."""

from .fibration import SimplexPoint, t_map
from .genfun import RangeError, betti_sum_sym, poincare_sym
from .homology import (
    ChainComplexF2,
    CWFormatError,
    InterfaceMismatch,
    InvalidComplexError,
    betti,
    glue,
)
from .mcheck import (
    BUNDLE_FORMULA,
    CW_MODELS,
    M_VARIETY,
    STRICT_INEQUALITY,
    UNSUPPORTED_RANGE,
    MVarietyReport,
    SmithViolationError,
    VerificationError,
    check,
)
from .realmodels import build_B, build_sym2_circle

__version__ = "0.1.0"

__all__ = [
    "BUNDLE_FORMULA",
    "CW_MODELS",
    "ChainComplexF2",
    "CWFormatError",
    "InterfaceMismatch",
    "InvalidComplexError",
    "MVarietyReport",
    "M_VARIETY",
    "RangeError",
    "STRICT_INEQUALITY",
    "SimplexPoint",
    "SmithViolationError",
    "UNSUPPORTED_RANGE",
    "VerificationError",
    "betti",
    "betti_sum_sym",
    "build_B",
    "build_sym2_circle",
    "check",
    "glue",
    "poincare_sym",
    "t_map",
]
