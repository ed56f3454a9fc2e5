"""Weighted nuclear norm minimization: exact solvers and a denoising demo."""

from .denoise import DenoiseConfig, DenoiseStats, denoise, psnr
from .diag import DiagSolution, SolverPath, closed_form, pava_solve
from .exceptions import InvalidInputError, NumericalFailureError, WnnmError
from .linalg import SvdFactors, svd
from .pgm import read_pgm, write_pgm
from .solver import WnnmResult, nnm_solve, objective_full, wnnm_solve

__all__ = [
    "DenoiseConfig",
    "DenoiseStats",
    "DiagSolution",
    "InvalidInputError",
    "NumericalFailureError",
    "SolverPath",
    "SvdFactors",
    "WnnmError",
    "WnnmResult",
    "closed_form",
    "denoise",
    "nnm_solve",
    "objective_full",
    "pava_solve",
    "psnr",
    "read_pgm",
    "svd",
    "wnnm_solve",
    "write_pgm",
]
