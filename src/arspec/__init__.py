"""Spectra of anti-regular and threshold graphs via trigonometric root isolation."""

from .graphs import antiregular_adjacency, sequence_from_string
from .oracle import ConvergenceError, EigenResult, jacobi_eigenvalues
from .solver import (
    FORBIDDEN_HI,
    FORBIDDEN_LO,
    BracketRootError,
    SpectrumResult,
    closure_witness,
    eigenvalue_estimates,
    forbidden_interval_check,
    solve_spectrum,
)
from .threshold import ScanReport, omega_scan, threshold_spectrum

__version__ = "0.1.0"
