"""Weighted nuclear norm minimization: exact solvers and a denoising demo."""

from .denoise import DenoiseConfig, DenoiseStats, denoise, psnr
from .diag import (
    DiagSolution,
    SolverPath,
    brute_force_oracle,
    closed_form,
    pava_solve,
    projgrad_reference,
)
from .exceptions import (
    ConvergenceError,
    InvalidInputError,
    NumericalFailureError,
    WnnmError,
)
from .linalg import SvdFactors, svd
from .pgm import read_pgm, write_pgm
from .solver import WnnmResult, nnm_solve, objective_full, trace_identity_check, wnnm_solve

__all__ = [
    "ConvergenceError",
    "DenoiseConfig",
    "DenoiseStats",
    "DiagSolution",
    "InvalidInputError",
    "NumericalFailureError",
    "SolverPath",
    "SvdFactors",
    "WnnmError",
    "WnnmResult",
    "brute_force_oracle",
    "closed_form",
    "denoise",
    "nnm_solve",
    "objective_full",
    "pava_solve",
    "projgrad_reference",
    "psnr",
    "read_pgm",
    "svd",
    "trace_identity_check",
    "wnnm_solve",
    "write_pgm",
]
