"""Discrete-time chaos decompositions of Wiener functionals over increment grids."""

from .chaos import ChaosExpansion, GridSpec
from .clark_ocone import (
    ClarkOconeDecomposition,
    ClarkOconeTerm,
    decompose,
    err_norm_refined,
    err_tail,
    error_norm_bound,
    reconstruct,
    verify_bound,
    verify_bounds,
)
from .montecarlo import (
    DigitalPayoff,
    ExponentialPayoff,
    OccupationTimePayoff,
    PathBatch,
    PolynomialPayoff,
    sample_paths,
)

__all__ = [
    "ChaosExpansion",
    "GridSpec",
    "ClarkOconeDecomposition",
    "ClarkOconeTerm",
    "decompose",
    "reconstruct",
    "err_tail",
    "err_norm_refined",
    "error_norm_bound",
    "verify_bound",
    "verify_bounds",
    "PolynomialPayoff",
    "ExponentialPayoff",
    "DigitalPayoff",
    "OccupationTimePayoff",
    "PathBatch",
    "sample_paths",
]

__version__ = "0.1.0"
