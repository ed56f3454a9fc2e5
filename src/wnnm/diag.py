"""Exact solvers for the diagonal spectrum subproblem.

Minimize  sum_i (d_i - sigma_i)^2 + w_i * d_i   subject to
d_1 >= d_2 >= ... >= d_n >= 0.

Completing the square turns this into Euclidean projection of the targets
t_i = sigma_i - w_i / 2 onto the non-increasing nonnegative cone, which
pool-adjacent-violators plus a final clamp solves exactly. A closed form
covers non-descending weights, and two independent checks (projected
gradient, grid search) validate the fast paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InvalidInputError, PreconditionError

WEIGHT_ORDER_TOL = 1e-12


class SolverPath(enum.Enum):
    CLOSED_FORM = "closed_form"
    PAVA = "pava"
    PROJ_GRAD = "projgrad"
    BRUTE_FORCE = "brute_force"


@dataclass(frozen=True)
class DiagSolution:
    d: np.ndarray
    objective: float
    path: SolverPath


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return x


def weights_non_descending(w: np.ndarray, tol: float = WEIGHT_ORDER_TOL) -> bool:
    return w.size == 0 or bool(np.all(np.diff(w) >= -tol))


def _check_instance(sigma, w) -> tuple[np.ndarray, np.ndarray]:
    """Validate one subproblem instance: a sorted nonnegative spectrum and
    one nonnegative weight per singular value."""
    sigma = _as_vector(sigma, "sigma")
    w = _as_vector(w, "weights")
    if sigma.size != w.size:
        raise InvalidInputError(f"weight vector has length {w.size}, expected {sigma.size}")
    if sigma.size:
        if w.min() < 0.0:
            raise InvalidInputError(f"weights must be nonnegative, got min {w.min()}")
        if sigma.min() < 0.0:
            raise InvalidInputError(f"singular values must be nonnegative, got min {sigma.min()}")
        if np.any(np.diff(sigma) > WEIGHT_ORDER_TOL):
            raise InvalidInputError("singular values must be sorted non-increasing")
    return sigma, w


def _objective(d, sigma, w) -> float:
    return float(np.sum((d - sigma) ** 2 + w * d))


def objective_diag(d, sigma, w) -> float:
    """Evaluate the subproblem objective at a candidate spectrum d."""
    d = _as_vector(d, "d")
    sigma = _as_vector(sigma, "sigma")
    w = _as_vector(w, "weights")
    if not (d.size == sigma.size == w.size):
        raise InvalidInputError(
            f"length mismatch: d={d.size}, sigma={sigma.size}, w={w.size}"
        )
    return _objective(d, sigma, w)


def project_monotone_nonneg(t) -> np.ndarray:
    """Euclidean projection onto {d : d_1 >= ... >= d_n >= 0}.

    Single left-to-right PAVA pass (merge adjacent blocks whenever a later
    block mean exceeds an earlier one, replacing both by their mean), then
    clamp at zero. Block means are kept as running sums to avoid drift.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    if n == 0:
        return np.empty(0)
    sums: list[float] = []
    counts: list[int] = []
    for x in t:
        s, c = float(x), 1
        # Means compared via division so the emitted block values satisfy
        # the chain exactly in floating point.
        while sums and sums[-1] / counts[-1] < s / c:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    out = np.repeat(np.array(sums) / np.array(counts), counts)
    np.maximum(out, 0.0, out=out)
    return out


def _solve(sigma: np.ndarray, w: np.ndarray, path: SolverPath) -> DiagSolution:
    # The one spectrum kernel: both paths act on the targets t = sigma - w/2.
    t = sigma - w / 2.0
    d = np.maximum(t, 0.0) if path is SolverPath.CLOSED_FORM else project_monotone_nonneg(t)
    return DiagSolution(d=d, objective=_objective(d, sigma, w), path=path)


def closed_form(sigma, w) -> DiagSolution:
    """Closed-form optimum for non-descending weights: max(sigma - w/2, 0)."""
    sigma, w = _check_instance(sigma, w)
    if not weights_non_descending(w):
        raise PreconditionError(
            "closed_form requires non-descending weights; use pava_solve for arbitrary order"
        )
    return _solve(sigma, w, SolverPath.CLOSED_FORM)


def pava_solve(sigma, w) -> DiagSolution:
    """Globally optimal spectrum for arbitrary nonnegative weights."""
    sigma, w = _check_instance(sigma, w)
    return _solve(sigma, w, SolverPath.PAVA)


def projgrad_reference(sigma, w, tol: float = 1e-10, max_iter: int = 10000) -> DiagSolution:
    """Projected-gradient reference solver for cross-validating pava_solve.

    Deliberately uses a conservative step size so it genuinely iterates
    (step 1/L would coincide with a single cone projection). Stops when the
    iterate moves less than ``tol`` in max-norm.
    """
    sigma, w = _check_instance(sigma, w)
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")
    step = 0.25
    d = sigma.copy()
    for _ in range(max_iter):
        grad = 2.0 * (d - sigma) + w
        d_next = project_monotone_nonneg(d - step * grad)
        moved = float(np.max(np.abs(d_next - d))) if d.size else 0.0
        d = d_next
        if moved < tol:
            return DiagSolution(
                d=d, objective=_objective(d, sigma, w), path=SolverPath.PROJ_GRAD
            )
    raise ConvergenceError(
        f"projected gradient did not reach tol={tol} in {max_iter} iterations",
        last_iterate=d,
        objective=_objective(d, sigma, w),
        iterations=max_iter,
    )


def brute_force_oracle(sigma, w, grid_step: float) -> DiagSolution:
    """Grid-search oracle: minimize over all chain-feasible spectra on the
    grid {0, h, 2h, ...} up to sigma_1 + 1.

    The minimum over that (combinatorially large) candidate set is computed
    exactly with a dynamic program over grid levels, so the result is
    identical to literal enumeration. Restricted to n <= 4.
    """
    sigma, w = _check_instance(sigma, w)
    n = sigma.size
    if n > 4:
        raise InvalidInputError("brute_force_oracle is limited to n <= 4")
    if grid_step <= 0.0:
        raise InvalidInputError("grid_step must be positive")
    if n == 0:
        return DiagSolution(d=np.empty(0), objective=0.0, path=SolverPath.BRUTE_FORCE)

    top = sigma[0] + 1.0
    grid = np.arange(0.0, top + grid_step / 2.0, grid_step)
    cost = (grid[None, :] - sigma[:, None]) ** 2 + w[:, None] * grid[None, :]

    # best[j] = min cost of rows i..n-1 with d_i = grid[j]; argmins saved
    # per row for backtracking. Prefix-min enforces d_i >= d_{i+1}.
    idx = np.arange(grid.size)
    best = cost[n - 1]
    argmins: dict[int, np.ndarray] = {}
    for i in range(n - 2, -1, -1):
        prefmin = np.minimum.accumulate(best)
        is_new = best < np.concatenate(([np.inf], prefmin[:-1]))
        arg = np.maximum.accumulate(np.where(is_new, idx, 0))
        argmins[i + 1] = arg
        best = cost[i] + prefmin

    j = int(np.argmin(best))
    d = np.empty(n)
    d[0] = grid[j]
    for i in range(1, n):
        j = int(argmins[i][j])
        d[i] = grid[j]
    return DiagSolution(d=d, objective=_objective(d, sigma, w), path=SolverPath.BRUTE_FORCE)
