"""Full-matrix weighted nuclear norm minimization.

Solves  min_X ||Y - X||_F^2 + sum_i w_i * sigma_i(X)  by decomposing Y,
solving the diagonal spectrum subproblem, and reconstructing. Uniform
weights reduce to singular value soft-thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diag
from .diag import DiagSolution, SolverPath
from .exceptions import InvalidInputError
from .linalg import SvdFactors, check_array, check_matrix, reconstruct, svd, thin_svd


@dataclass(frozen=True)
class WnnmResult:
    x_star: np.ndarray
    d: DiagSolution


def objective_full(y, x, w) -> float:
    """||y - x||_F^2 plus the weighted nuclear norm of x; an ``x`` whose
    spectrum is beyond the float range raises ``NumericalFailureError``."""
    y = check_matrix(y)
    x = check_matrix(x)
    if y.shape != x.shape:
        raise InvalidInputError(f"shape mismatch: y is {y.shape}, x is {x.shape}")
    sigma_x = thin_svd(x).sigma
    w = diag._check_weights(w, sigma_x.size)
    # An overflow gives inf, which callers report; numpy need not warn too.
    with np.errstate(over="ignore"):
        return float(np.sum((y - x) ** 2) + np.sum(w * sigma_x))


def shrink(factors: SvdFactors, w) -> WnnmResult:
    """Apply the WNNM operator to the matrix whose thin SVD is ``factors``,
    for weights that passed the weights rule, checking nothing again. Their
    order labels the path (closed form when non-descending, else PAVA); both
    run the one kernel, ``diag.spectrum``. ``d.objective`` equals the full
    objective at ``x_star``; ``objective_full`` is the independent check.
    """
    path = SolverPath.CLOSED_FORM if diag.weights_non_descending(w) else SolverPath.PAVA
    sol = diag._solve(factors.sigma, w, path)
    return WnnmResult(x_star=reconstruct(factors, sol.d), d=sol)


def wnnm_solve(y, w) -> WnnmResult:
    """Globally optimal WNNM solution for one weight per singular value:
    the closed form for non-descending weights, PAVA for any other order."""
    factors = svd(y)
    return shrink(factors, diag._check_weights(w, factors.sigma.size))


def nnm_solve(y, lam: float) -> WnnmResult:
    """Uniform-weight special case: soft-threshold the spectrum at lam/2.
    ``lam`` is one number, the weight of every singular value."""
    factors = svd(y)
    return shrink(factors, np.full(factors.sigma.size, check_array(lam, 0, "lambda", nonneg=True)))

