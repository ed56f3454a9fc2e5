"""Seeded verification suites runnable from the CLI.

Each suite cross-checks one analytic claim against an independent route:
PAVA vs the grid oracle, PAVA vs projected gradient, the spectral trace
identity by turned SVD factors (these three are private routes here, at
fixed settings, each checking its input), nnm_solve vs soft-thresholding of
numpy's SVD (these two on matrices up to the scale's "shape"), the KKT
certificate of the spectrum QP at sizes up to n = 20000, and wnnm_solve's
optimum against nearby candidates at the scale's "shape".
Each suite is a function that draws one instance and returns its gap, the
bound on that gap and a detail; the one driver ``_suite`` runs it. A gap
not <= its bound (NaN included) fails the suite with that detail; a pass
reports the worst gap/bound (a negative oracle gap means PAVA beat the
grid). Output is deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import diag, linalg, solver
from .exceptions import InvalidInputError
from .linalg import check_matrix, thin_svd

SCALE_COUNTS = {
    "small": {"oracle": 25, "cross": 25, "trace": 10, "nnm": 20, "kkt": 10, "cand": 20, "shape": (6, 5)},
    "full": {"oracle": 200, "cross": 200, "trace": 100, "nnm": 100, "kkt": 100, "cand": 100,
             "shape": (200, 150)},
}


def random_sigma(rng, n, top=3.0):
    return np.sort(rng.uniform(0.0, top, size=n))[::-1].copy()


def random_matrix(rng, max_rows, max_cols):
    m = int(rng.integers(1, max_rows + 1))
    n = int(rng.integers(1, max_cols + 1))
    return rng.uniform(-1.0, 1.0, size=(m, n))


def _fmt(x) -> str:
    return repr(float(x))


PROJGRAD_STEPS = 100000  # the projected gradient's step budget


def _grid_oracle(sigma, w) -> float:
    """The least objective over every chain-feasible spectrum on the grid
    {0, h, 2h, ...} up to sigma_1 + 1, h = 1e-3, for an instance with n >= 1
    checked as pava_solve checks it. A dynamic program over grid levels gives
    the minimum of literal enumeration: best[j] is the least cost of rows
    i..n-1 with d_i = grid[j], and the prefix minimum keeps d_i >= d_{i+1}."""
    sigma, w = diag._check_instance(sigma, w)
    h = 1e-3
    grid = np.arange(0.0, sigma[0] + 1.0 + h / 2.0, h)
    cost = (grid - sigma[:, None]) ** 2 + w[:, None] * grid
    best = cost[-1]
    for row in cost[-2::-1]:
        best = row + np.minimum.accumulate(best)
    return float(best.min())


def _projgrad(sigma, w) -> float:
    """The objective where projected gradient settles, for an instance with
    n >= 1 checked as pava_solve checks it: step 0.25, short enough that it
    genuinely iterates (step 1/L would be one cone projection), until an
    iterate moves less than 1e-12 in max-norm; inf if none does within
    ``PROJGRAD_STEPS`` steps."""
    sigma, w = diag._check_instance(sigma, w)
    d = sigma
    for _ in range(PROJGRAD_STEPS):
        d_next = diag.project_monotone_nonneg(d - 0.25 * (2.0 * (d - sigma) + w))
        moved = np.max(np.abs(d_next - d))
        d = d_next
        if moved < 1e-12:
            return diag._objective(d, sigma, w)
    return np.inf


def _trace_identity(a, w) -> float:
    """The gap of the trace identity, for a matrix and non-ascending weights
    checked as ``wnnm_solve`` checks them: tr[diag(w) U^T A V] over
    orthonormal (U, V) peaks at the SVD factors, at sum_i sigma_i(A) * w_i.

    Turning columns i < j of both factors by +-45 degrees moves only the
    (i, j) block of B = U^T A V, and at the peak drops the trace by exactly
    (sigma_i - sigma_j)(w_i - w_j)/2 for either sign; taking both keeps an
    off-diagonal error in B from cancelling a diagonal one. The gap is the
    larger of |sum sigma_i w_i - sum w_i B_ii| and each drop's distance from
    its prediction, NaN if either is."""
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
    at_svd = abs(float(np.sum(f.sigma * w)) - float(np.sum(w * np.diag(b))))
    # np.max, unlike Python's max, keeps a NaN in either place.
    return float(np.max([at_svd, np.max(np.abs(drops - predicted), initial=0.0)]))


def oracle_dominance(rng):
    """PAVA objective never exceeds the grid oracle's (n <= 3)."""
    n = int(rng.integers(1, 4))
    sigma = random_sigma(rng, n)
    w = rng.uniform(0.0, 2.0 * (sigma[0] if n else 1.0), size=n)
    got = diag.pava_solve(sigma, w).objective
    ref = _grid_oracle(sigma, w)
    detail = f"sigma={sigma.tolist()} w={w.tolist()} pava={_fmt(got)} oracle={_fmt(ref)}"
    return got - ref, 1e-4, detail


def cross_solver(rng):
    """PAVA agrees with the projected-gradient reference (n <= 10)."""
    n = int(rng.integers(1, 11))
    sigma = random_sigma(rng, n)
    w = rng.uniform(0.0, 3.0, size=n)
    a = diag.pava_solve(sigma, w).objective
    b = _projgrad(sigma, w)
    detail = f"sigma={sigma.tolist()} w={w.tolist()} pava={_fmt(a)} projgrad={_fmt(b)}"
    return abs(a - b), 1e-6, detail


def trace_identity(rng, shape):
    """Trace form peaks at the SVD factors with value sum(sigma_i * w_i),
    and each turned pair of columns drops it by exactly its prediction."""
    a = random_matrix(rng, *shape)
    k = min(a.shape)
    w = random_sigma(rng, k)
    gap = _trace_identity(a, w)
    # U^T A V and the k-term weighted sums round by about k * eps * sigma_1 * max(w).
    bound = 16.0 * k * np.finfo(float).eps * np.linalg.norm(a, 2) * w[0]
    return gap, bound, f"shape={a.shape} gap={_fmt(gap)} bound={_fmt(bound)}"


def nnm_equivalence(rng, shape):
    """nnm_solve matches soft-thresholding of numpy's own SVD at lam/2."""
    y = random_matrix(rng, *shape)
    lam = float(rng.uniform(0.0, 2.0 * np.linalg.norm(y, 2)))
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    ref = (u * np.maximum(s - lam / 2.0, 0.0)) @ vt
    err = float(np.max(np.abs(solver.nnm_solve(y, lam).x_star - ref)))
    return err, 1e-10, f"lam={_fmt(lam)} entrywise gap={_fmt(err)}"


def kkt_violation(sigma, w, d) -> tuple[float, float]:
    """How far a feasible ``d`` is from the KKT conditions of the spectrum
    QP, and the rounding bound that violation must stay within.

    With targets t = sigma - w/2, stationarity fixes the multiplier of
    d_i >= d_{i+1} as lambda_i = lambda_{i-1} + 2 (d_i - t_i), lambda_0 = 0,
    and lambda_n is the multiplier of d_n >= 0. A feasible d is optimal iff
    every lambda is nonnegative and is zero where its constraint is slack.
    The check is O(n), so it certifies sizes the oracle cannot reach.
    """
    t = sigma - w / 2.0
    lam = 2.0 * np.cumsum(d - t)
    slack = np.append(d[:-1] > d[1:], d[-1] > 0.0)
    violation = max(-float(lam.min()), float(np.abs(lam[slack]).max(initial=0.0)))
    # The running sum of n terms rounds by at most ~n * eps * max|t| each way.
    bound = 4.0 * d.size * np.finfo(float).eps * (1.0 + float(np.abs(t).max()))
    return violation, bound


def kkt_certificate(rng):
    """PAVA's spectrum is feasible and meets the KKT conditions (n <= 20000)."""
    n = int(rng.integers(1, 20001))
    sigma = random_sigma(rng, n, top=100.0)
    w = rng.uniform(0.0, float(rng.choice([1.0, 30.0, 300.0])), size=n)
    d = diag.pava_solve(sigma, w).d
    violation, bound = kkt_violation(sigma, w, d)
    if not (np.all(np.diff(d) <= 0.0) and d[-1] >= 0.0):
        violation = np.inf  # infeasible: no certificate applies
    return violation, bound, f"n={n} kkt violation={_fmt(violation)} bound={_fmt(bound)}"


def candidate_dominance(rng, shape):
    """No point x_star + t * sigma_1 * delta, for a random delta of rank
    r <= 3 and unit norm in the leading singular subspace of y, where the
    optimum's spectrum lives, and t log-uniform in [1e-9, 1e-3], has a
    full objective below wnnm_solve's optimum."""
    y = random_matrix(rng, *shape)
    f = linalg.svd(y)
    k = f.sigma.size
    w = rng.uniform(0.0, 2.0 * f.sigma[0], size=k)
    if rng.random() < 0.5:
        w.sort()  # non-descending: the closed form; any other order takes PAVA
    res = solver.wnnm_solve(y, w)
    r = int(rng.integers(1, min(k, 3) + 1))
    c = rng.standard_normal((r, r))
    delta = f.u[:, :r] @ (c / np.linalg.norm(c)) @ f.v[:, :r].T
    t = 10.0 ** rng.uniform(-9.0, -3.0)
    optimum = res.d.objective
    cand = solver.objective_full(y, res.x_star + t * f.sigma[0] * delta, w)
    # Both objectives sum nonnegative terms, each rounding by about k * eps of the total.
    bound = 16.0 * k * np.finfo(float).eps * optimum
    detail = f"shape={y.shape} t={_fmt(t)} optimum={_fmt(optimum)} candidate={_fmt(cand)}"
    return optimum - cand, bound, detail


def _suite(rng, count, draw, *args) -> tuple[bool, str]:
    """Check ``count`` instances of ``draw(rng, *args)``. Returns whether all
    passed, and the first failing instance or the worst gap/bound."""
    worst = -np.inf
    for i in range(count):
        gap, bound, detail = draw(rng, *args)
        if not gap <= bound:
            return False, f"instance {i}: {detail}"
        worst = max(worst, gap / bound)
    return True, f"worst gap/bound {worst:.3g}"


def run_selftest(seed: int, scale: str) -> int:
    """Run all suites; print one pass/fail line each. Returns 0 iff all pass."""
    if seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed}")
    counts = SCALE_COUNTS[scale]
    rng = np.random.default_rng(seed)
    suites = [
        ("oracle-dominance", counts["oracle"], oracle_dominance),
        ("cross-solver", counts["cross"], cross_solver),
        ("trace-identity", counts["trace"], trace_identity, counts["shape"]),
        ("nnm-equivalence", counts["nnm"], nnm_equivalence, counts["shape"]),
        ("kkt-certificate", counts["kkt"], kkt_certificate),
        ("candidate-dominance", counts["cand"], candidate_dominance, counts["shape"]),
    ]
    failures = 0
    for name, count, draw, *args in suites:
        passed, detail = _suite(rng, count, draw, *args)
        failures += not passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    print(f"{len(suites) - failures}/{len(suites)} suites passed")
    return 0 if failures == 0 else 1
