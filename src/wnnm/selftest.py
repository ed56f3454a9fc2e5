"""Seeded verification suites runnable from the CLI.

Each suite cross-checks one analytic claim against an independent route:
PAVA vs grid oracle, PAVA vs projected gradient, nnm_solve vs direct
soft-thresholding of numpy's SVD, the spectral trace identity, and the KKT
certificate of the spectrum QP at sizes up to n = 20000.
Each suite is a function that draws one instance and returns its gap, the
bound on that gap and a detail; the one driver ``_suite`` runs it. A gap
not <= its bound (NaN included) fails the suite with that detail; a pass
reports the worst gap/bound (a negative oracle gap means PAVA beat the
grid). Output is deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import diag, solver
from .exceptions import InvalidInputError

SCALE_COUNTS = {
    "small": {"oracle": 25, "cross": 25, "trace": 10, "nnm": 20, "trace_trials": 100, "kkt": 10},
    "full": {"oracle": 200, "cross": 200, "trace": 100, "nnm": 100, "trace_trials": 1000, "kkt": 100},
}


def random_sigma(rng, n, top=3.0):
    return np.sort(rng.uniform(0.0, top, size=n))[::-1].copy()


def random_matrix(rng, max_rows=6, max_cols=5):
    m = int(rng.integers(1, max_rows + 1))
    n = int(rng.integers(1, max_cols + 1))
    return rng.uniform(-1.0, 1.0, size=(m, n))


def _fmt(x) -> str:
    return repr(float(x))


def oracle_dominance(rng):
    """PAVA objective never exceeds the grid oracle's (n <= 3)."""
    n = int(rng.integers(1, 4))
    sigma = random_sigma(rng, n)
    w = rng.uniform(0.0, 2.0 * (sigma[0] if n else 1.0), size=n)
    got = diag.pava_solve(sigma, w).objective
    ref = diag.brute_force_oracle(sigma, w, grid_step=1e-3).objective
    detail = f"sigma={sigma.tolist()} w={w.tolist()} pava={_fmt(got)} oracle={_fmt(ref)}"
    return got - ref, 1e-4, detail


def cross_solver(rng):
    """PAVA agrees with the projected-gradient reference (n <= 10)."""
    n = int(rng.integers(1, 11))
    sigma = random_sigma(rng, n)
    w = rng.uniform(0.0, 3.0, size=n)
    a = diag.pava_solve(sigma, w).objective
    b = diag.projgrad_reference(sigma, w, tol=1e-12, max_iter=100000).objective
    detail = f"sigma={sigma.tolist()} w={w.tolist()} pava={_fmt(a)} projgrad={_fmt(b)}"
    return abs(a - b), 1e-6, detail


def trace_identity(rng, trials):
    """Trace form peaks at the SVD factors with value sum(sigma_i * w_i)."""
    a = random_matrix(rng)
    k = min(a.shape)
    w = random_sigma(rng, k)
    rep = solver.trace_identity_check(a, w, trials=trials, rng=rng)
    # np.max, unlike Python's max, keeps a NaN in either place.
    gap = np.max([abs(rep.lhs - rep.rhs_at_svd), rep.max_random_rhs - rep.lhs])
    detail = f"lhs={_fmt(rep.lhs)} at_svd={_fmt(rep.rhs_at_svd)} max_random={_fmt(rep.max_random_rhs)}"
    return gap, 1e-8, detail


def nnm_equivalence(rng):
    """nnm_solve matches soft-thresholding of numpy's own SVD at lam/2."""
    y = random_matrix(rng)
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


def _suite(rng, count, draw) -> tuple[bool, str]:
    """Check ``count`` instances of ``draw``. Returns whether all passed,
    and the first failing instance or the worst gap/bound."""
    worst = -np.inf
    for i in range(count):
        gap, bound, detail = draw(rng)
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
        ("trace-identity", counts["trace"], lambda rng: trace_identity(rng, counts["trace_trials"])),
        ("nnm-equivalence", counts["nnm"], nnm_equivalence),
        ("kkt-certificate", counts["kkt"], kkt_certificate),
    ]
    failures = 0
    for name, count, draw in suites:
        passed, detail = _suite(rng, count, draw)
        failures += not passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    print(f"{len(suites) - failures}/{len(suites)} suites passed")
    return 0 if failures == 0 else 1
