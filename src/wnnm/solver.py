"""Full-matrix weighted nuclear norm minimization.

Solves  min_X ||Y - X||_F^2 + sum_i w_i * sigma_i(X)  by decomposing Y,
solving the diagonal spectrum subproblem, and reconstructing. Uniform
weights reduce to singular value soft-thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diag
from .diag import DiagSolution
from .exceptions import InvalidInputError
from .linalg import SvdFactors, check_array, check_matrix, reconstruct, svd, thin_svd


@dataclass(frozen=True)
class WnnmResult:
    x_star: np.ndarray
    d: DiagSolution


def objective_full(y, x, w) -> float:
    """||y - x||_F^2 plus the weighted nuclear norm of x."""
    y = check_matrix(y)
    x = check_matrix(x)
    if y.shape != x.shape:
        raise InvalidInputError(f"shape mismatch: y is {y.shape}, x is {x.shape}")
    sigma_x = thin_svd(x).sigma
    w = diag._check_weights(w, sigma_x.size)
    return float(np.sum((y - x) ** 2) + np.sum(w * sigma_x))


def shrink(factors: SvdFactors, w) -> WnnmResult:
    """Apply the WNNM operator to the matrix whose thin SVD is ``factors``.

    The weights, which have passed the weights rule, choose the path: the
    closed form when non-descending, PAVA otherwise. ``d.objective``, the
    spectrum objective of ``d.d``, equals the full objective at ``x_star``,
    which shares the input's singular vectors; ``objective_full`` is the
    independent check. The public solver that runs checks the weights again
    only because perfbench counts ``diag.closed_form``/``diag.pava_solve``
    calls; once it no longer does, ``solve(...)`` becomes ``diag._solve(...)``.
    """
    solve = diag.closed_form if diag.weights_non_descending(w) else diag.pava_solve
    sol = solve(factors.sigma, w)
    x_star = reconstruct(factors, sol.d)
    return WnnmResult(x_star=x_star, d=sol)


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


@dataclass(frozen=True)
class TraceIdentityReport:
    lhs: float
    rhs_at_svd: float
    max_probe_gap: float


def trace_identity_check(a, w) -> TraceIdentityReport:
    """Check that tr[diag(w) U^T A V] over orthonormal (U, V) peaks at the
    SVD factors of A, where it equals sum_i sigma_i(A) * w_i.

    Requires non-ascending w. Turning columns i < j of both factors by
    +-45 degrees moves only the (i, j) block of B = U^T A V, and at the peak
    drops the trace by exactly (sigma_i - sigma_j)(w_i - w_j)/2 for either
    sign; taking both keeps an off-diagonal error in B from cancelling a
    diagonal one.
    ``max_probe_gap`` is the largest distance of a drop from its prediction.
    """
    a = check_matrix(a)
    f = thin_svd(a)
    w = diag._check_weights(w, f.sigma.size)
    if not diag.weights_non_descending(w[::-1]):
        raise InvalidInputError("trace identity requires non-ascending weights")

    b = f.u.T @ a @ f.v
    i, j = np.triu_indices(f.sigma.size, 1)
    half_dw = (w[i] - w[j]) / 2.0
    drops = half_dw * (b[i, i] - b[j, j] + np.array([[-1.0], [1.0]]) * (b[i, j] + b[j, i]))
    predicted = half_dw * (f.sigma[i] - f.sigma[j])
    return TraceIdentityReport(
        lhs=float(np.sum(f.sigma * w)),
        rhs_at_svd=float(np.sum(w * np.diag(b))),
        max_probe_gap=float(np.max(np.abs(drops - predicted), initial=0.0)),
    )
