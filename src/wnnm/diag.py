"""Exact solvers for the diagonal spectrum subproblem.

Minimize  sum_i (d_i - sigma_i)^2 + w_i * d_i   subject to
d_1 >= d_2 >= ... >= d_n >= 0.

Completing the square turns this into Euclidean projection of the targets
t_i = sigma_i - w_i / 2 onto the non-increasing nonnegative cone, which
pool-adjacent-violators (PAVA) plus a final clamp solves exactly. PAVA runs
as vectorized block-merge passes (``np.bincount`` on block ids) under a
budget of 4n visited blocks; only past that budget does a stack loop finish
the blocks that remain. Pooling adjacent violators in any order reaches the
same optimum, so the split costs no exactness. For non-descending weights
the first pass finds no violator and returns the closed form: ``spectrum``
is the one kernel, and the path only labels a result. The independent
checks (projected gradient, grid search) are private routes of ``selftest``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .linalg import check_array


class SolverPath(enum.Enum):
    CLOSED_FORM = "closed_form"
    PAVA = "pava"


@dataclass(frozen=True)
class DiagSolution:
    d: np.ndarray
    objective: float
    path: SolverPath


def weights_non_descending(w: np.ndarray) -> bool:
    # Exact: weights out of order by any amount can make the closed form infeasible.
    return bool(np.all(w[1:] >= w[:-1]))


def _check_weights(w, n: int) -> np.ndarray:
    """The weights rule: one finite nonnegative real for each of ``n`` singular values."""
    w = check_array(w, 1, "weights", nonneg=True)
    if w.size != n:
        raise InvalidInputError(f"weight vector has length {w.size}, expected {n}")
    return w


def _check_instance(sigma, w) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum rule: a sorted nonnegative spectrum, and its weights."""
    sigma = check_array(sigma, 1, "singular values", nonneg=True)
    w = _check_weights(w, sigma.size)
    if (sigma[1:] > sigma[:-1]).any():
        raise InvalidInputError("singular values must be sorted non-increasing")
    return sigma, w


def _objective(d, sigma, w) -> float:
    # An overflow gives inf, which callers report; numpy need not warn too.
    with np.errstate(over="ignore"):
        r = d - sigma
        return float(r @ r + w @ d)


def _pool_blocks(block_sums, block_counts) -> tuple[np.ndarray, np.ndarray]:
    """Stack PAVA over weighted blocks: one left-to-right pass that pools
    the top of the stack into the incoming block while the top's mean is
    the smaller. Returns the sums and counts of the pooled blocks."""
    sums: list[float] = []
    counts: list[float] = []
    for s, c in zip(block_sums.tolist(), block_counts.tolist()):
        # Means compared via division so the emitted block values satisfy
        # the chain exactly in floating point.
        while sums and sums[-1] / counts[-1] < s / c:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    return np.array(sums), np.array(counts)


def project_monotone_nonneg(t) -> np.ndarray:
    """Euclidean projection onto {d : d_1 >= ... >= d_n >= 0}.

    Unchecked: ``t`` must be a finite 1-D vector; ``pava_solve`` is the
    checked entry.

    PAVA on blocks held as (sum, count), starting from one block per
    target; the block means are clamped at zero, then repeated. Two stages:

    1. Vectorized passes. Each pass marks run heads in one reused buffer: a
       block whose mean is above its predecessor's joins that run. A
       cumulative sum of the heads numbers the runs, one ``np.bincount`` on
       the sums and one on the counts merge every run, and one division
       gives the new means. The first pass takes the raw targets and counts
       unweighted. A pass that finds no violator ends the projection; if
       the first does, the clamped targets are the answer.
    2. Once the passes have visited more than 4n blocks in total, the
       surviving blocks go to the stack loop (``_pool_blocks``), which
       finishes them. Spectra converge within the budget, so the loop is a
       backstop for inputs that merge few blocks per pass, such as a long
       decreasing run followed by one huge value.

    Both stages only pool adjacent violators. Blocks that violate are equal
    at the optimum, so pooling them in any order reaches the same unique
    projection (Best & Chakravarti 1990). A pass visits at most n blocks and
    starts only while the budget holds, so the passes visit at most 5n
    blocks and the loop at most n: the worst case stays O(n). Means are
    compared by the same division that produces the output, so the emitted
    chain holds exactly in floating point.
    """
    sums = means = np.asarray(t, dtype=float)
    counts = None  # one block per target until a pass merges
    # One buffer for every pass; head[0] stays False, so the cumulative sum
    # of the run heads numbers the runs from 0.
    head = np.zeros(sums.size, dtype=bool)
    budget = 4 * sums.size
    while budget >= 0:
        m = means.size
        np.greater_equal(means[:-1], means[1:], out=head[1:m])
        if head[1:m].all():
            break
        budget -= m
        ids = np.cumsum(head[:m])
        # Float counts: exact up to 2**53 and divided into the sums without a
        # cast. The first pass counts its runs unweighted.
        counts = np.bincount(ids, weights=counts).astype(float, copy=False)
        sums = np.bincount(ids, weights=sums)
        means = sums / counts
    else:  # past the budget: the stack loop finishes the surviving blocks
        sums, counts = _pool_blocks(sums, counts)
        means = sums / counts
    if counts is None:  # no pass merged
        return np.maximum(means, 0.0)
    return np.repeat(np.maximum(means, 0.0, out=means), counts.astype(np.intp))


def spectrum(sigma, w) -> np.ndarray:
    """The one spectrum kernel, unvalidated: the optimal ``d`` on the
    targets t = sigma - w/2, for one spectrum or a stack along the last axis.

    One spectrum goes to ``project_monotone_nonneg``. For non-descending
    weights the targets are non-increasing (rounding is monotone), so its
    first pass finds no violator and returns max(t, 0), the closed form. A
    stack whose every row is non-increasing takes that exit at once; any
    other stack, NaN targets included, is projected row by row.
    """
    t = sigma - w / 2.0
    if t.ndim == 1:
        return project_monotone_nonneg(t)
    if (t[..., :-1] >= t[..., 1:]).all():
        return np.maximum(t, 0.0)
    return np.apply_along_axis(project_monotone_nonneg, -1, t)


def _solve(sigma: np.ndarray, w: np.ndarray, path: SolverPath) -> DiagSolution:
    d = spectrum(sigma, w)
    return DiagSolution(d=d, objective=_objective(d, sigma, w), path=path)


def closed_form(sigma, w) -> DiagSolution:
    """Closed-form optimum for non-descending weights: max(sigma - w/2, 0)."""
    sigma, w = _check_instance(sigma, w)
    if not weights_non_descending(w):
        raise InvalidInputError(
            "closed_form requires non-descending weights; use pava_solve for arbitrary order"
        )
    return _solve(sigma, w, SolverPath.CLOSED_FORM)


def pava_solve(sigma, w) -> DiagSolution:
    """Globally optimal spectrum for arbitrary nonnegative weights."""
    sigma, w = _check_instance(sigma, w)
    return _solve(sigma, w, SolverPath.PAVA)
