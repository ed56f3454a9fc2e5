"""Weighted nuclear norm minimization: exact solvers and a denoising demo."""

from .denoise import DenoiseConfig, DenoiseStats, denoise, psnr
from .diag import (
    DiagSolution,
    SolverPath,
    brute_force_oracle,
    closed_form,
    pava_solve,
    project_monotone_nonneg,
    projgrad_reference,
)
from .exceptions import (
    ConvergenceError,
    InvalidInputError,
    NumericalFailureError,
    PreconditionError,
    WnnmError,
)
from .linalg import SvdFactors, reconstruct, svd
from .pgm import read_pgm, write_pgm
from .solver import WnnmResult, nnm_solve, objective_full, trace_identity_check, wnnm_solve

__all__ = [
    "ConvergenceError",
    "DenoiseConfig",
    "DenoiseStats",
    "DiagSolution",
    "InvalidInputError",
    "NumericalFailureError",
    "PreconditionError",
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
    "project_monotone_nonneg",
    "projgrad_reference",
    "psnr",
    "read_pgm",
    "reconstruct",
    "svd",
    "trace_identity_check",
    "wnnm_solve",
    "write_pgm",
]
