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
    sigma_x, w = diag._check_instance(thin_svd(x).sigma, w)
    return float(np.sum((y - x) ** 2) + np.sum(w * sigma_x))


def shrink(factors: SvdFactors, w) -> WnnmResult:
    """Apply the WNNM operator to the matrix whose thin SVD is ``factors``.

    The weights choose the path: the closed form when they are
    non-descending, PAVA otherwise. ``d.objective`` is the spectrum
    objective of ``d.d``. It equals the full objective at ``x_star``
    because ``x_star`` shares the singular vectors of the input;
    ``objective_full`` is the independent check. The weights are checked
    as a vector here, and against the spectrum by the solver that runs.
    """
    w = check_array(w, 1, "weights")
    solve = diag.closed_form if diag.weights_non_descending(w) else diag.pava_solve
    sol = solve(factors.sigma, w)
    x_star = reconstruct(factors, sol.d)
    return WnnmResult(x_star=x_star, d=sol)


def wnnm_solve(y, w) -> WnnmResult:
    """Globally optimal WNNM solution for one weight per singular value:
    the closed form for non-descending weights, PAVA for any other order."""
    return shrink(svd(y), w)


def nnm_solve(y, lam: float) -> WnnmResult:
    """Uniform-weight special case: soft-threshold the spectrum at lam/2.
    ``lam`` is one number, the weight of every singular value."""
    factors = svd(y)
    return shrink(factors, np.full(factors.sigma.size, check_array(lam, 0, "weights")))


@dataclass(frozen=True)
class TraceIdentityReport:
    lhs: float
    rhs_at_svd: float
    max_random_rhs: float


def random_orthonormal(rng: np.random.Generator, rows: int, cols: int, count: int) -> np.ndarray:
    """Stack of `count` matrices with orthonormal columns, Haar-corrected."""
    g = rng.standard_normal((count, rows, cols))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.einsum("bii->bi", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def trace_identity_check(a, w, trials: int, rng=None) -> TraceIdentityReport:
    """Check that tr[diag(w) U^T A V] over orthonormal (U, V) peaks at the
    SVD factors of A, where it equals sum_i sigma_i(A) * w_i.

    Requires non-ascending w. Random orthonormal pairs probe the bound;
    none may exceed the analytic maximum.
    """
    a = check_matrix(a)
    f = thin_svd(a)
    _, w = diag._check_instance(f.sigma, w)
    if np.any(w[1:] > w[:-1]):
        raise InvalidInputError("trace identity requires non-ascending weights")
    trials = diag._positive_count(trials, "trials")
    rng = np.random.default_rng(rng)

    k = f.sigma.size
    lhs = float(np.sum(f.sigma * w))
    rhs_at_svd = float(np.trace((w[:, None] * f.u.T) @ a @ f.v))

    us = random_orthonormal(rng, a.shape[0], k, trials)
    vs = random_orthonormal(rng, a.shape[1], k, trials)
    # tr[diag(w) U^T A V] batched over the trial axis.
    traces = np.einsum("i,bji,jl,bli->b", w, us, a, vs)
    return TraceIdentityReport(
        lhs=lhs, rhs_at_svd=rhs_at_svd, max_random_rhs=float(traces.max())
    )
