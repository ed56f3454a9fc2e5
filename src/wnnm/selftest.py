"""Seeded verification suites runnable from the CLI.

Each suite cross-checks one analytic claim against an independent route:
PAVA vs grid oracle, PAVA vs projected gradient, nnm_solve vs direct
soft-thresholding of numpy's SVD, the spectral trace identity, and the KKT
certificate of the spectrum QP at sizes up to n = 20000.
Each suite returns whether it passed and a detail: the counterexample of a
failure, or how close a passing suite came to its bound, where it has one.
Output is deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import diag, solver

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


def suite_oracle(rng, count):
    """PAVA objective never exceeds the grid oracle's (n <= 3)."""
    for i in range(count):
        n = int(rng.integers(1, 4))
        sigma = random_sigma(rng, n)
        w = rng.uniform(0.0, 2.0 * (sigma[0] if n else 1.0), size=n)
        got = diag.pava_solve(sigma, w).objective
        ref = diag.brute_force_oracle(sigma, w, grid_step=1e-3).objective
        if not got <= ref + 1e-4:
            return False, (
                f"instance {i}: sigma={sigma.tolist()} w={w.tolist()} "
                f"pava={_fmt(got)} oracle={_fmt(ref)}"
            )
    return True, ""


def suite_cross_solver(rng, count):
    """PAVA agrees with the projected-gradient reference (n <= 10)."""
    for i in range(count):
        n = int(rng.integers(1, 11))
        sigma = random_sigma(rng, n)
        w = rng.uniform(0.0, 3.0, size=n)
        a = diag.pava_solve(sigma, w).objective
        b = diag.projgrad_reference(sigma, w, tol=1e-12, max_iter=100000).objective
        if abs(a - b) > 1e-6:
            return False, (
                f"instance {i}: sigma={sigma.tolist()} w={w.tolist()} "
                f"pava={_fmt(a)} projgrad={_fmt(b)}"
            )
    return True, ""


def suite_trace_identity(rng, count, trials):
    """Trace form peaks at the SVD factors with value sum(sigma_i * w_i)."""
    for i in range(count):
        a = random_matrix(rng)
        k = min(a.shape)
        w = np.sort(rng.uniform(0.0, 3.0, size=k))[::-1].copy()
        rep = solver.trace_identity_check(a, w, trials=trials, rng=rng)
        if abs(rep.lhs - rep.rhs_at_svd) > 1e-8 or rep.max_random_rhs > rep.lhs + 1e-8:
            return False, (
                f"instance {i}: lhs={_fmt(rep.lhs)} at_svd={_fmt(rep.rhs_at_svd)} "
                f"max_random={_fmt(rep.max_random_rhs)}"
            )
    return True, ""


def suite_nnm_equivalence(rng, count):
    """nnm_solve matches soft-thresholding of numpy's own SVD at lam/2."""
    for i in range(count):
        y = random_matrix(rng)
        lam = float(rng.uniform(0.0, 2.0 * np.linalg.norm(y, 2)))
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        ref = (u * np.maximum(s - lam / 2.0, 0.0)) @ vt
        err = float(np.max(np.abs(solver.nnm_solve(y, lam).x_star - ref)))
        if err > 1e-10:
            return False, f"instance {i}: lam={_fmt(lam)} entrywise gap={_fmt(err)}"
    return True, ""


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


def suite_kkt_certificate(rng, count):
    """PAVA's spectrum is feasible and meets the KKT conditions (n <= 20000)."""
    worst = 0.0
    for i in range(count):
        n = int(rng.integers(1, 20001))
        sigma = random_sigma(rng, n, top=100.0)
        w = rng.uniform(0.0, float(rng.choice([1.0, 30.0, 300.0])), size=n)
        d = diag.pava_solve(sigma, w).d
        violation, bound = kkt_violation(sigma, w, d)
        if not (np.all(np.diff(d) <= 0.0) and d[-1] >= 0.0 and violation <= bound):
            return False, f"instance {i}: n={n} kkt violation={_fmt(violation)} bound={_fmt(bound)}"
        worst = max(worst, violation / bound)
    return True, f"worst violation/bound {worst:.3g}"


def run_selftest(seed: int, scale: str, out=None) -> int:
    """Run all suites; print one pass/fail line each. Returns 0 iff all pass."""
    import sys

    out = out or sys.stdout
    counts = SCALE_COUNTS[scale]
    rng = np.random.default_rng(seed)
    suites = [
        ("oracle-dominance", lambda: suite_oracle(rng, counts["oracle"])),
        ("cross-solver", lambda: suite_cross_solver(rng, counts["cross"])),
        ("trace-identity", lambda: suite_trace_identity(rng, counts["trace"], counts["trace_trials"])),
        ("nnm-equivalence", lambda: suite_nnm_equivalence(rng, counts["nnm"])),
        ("kkt-certificate", lambda: suite_kkt_certificate(rng, counts["kkt"])),
    ]
    failures = 0
    for name, fn in suites:
        passed, detail = fn()
        failures += not passed
        status = "PASS" if passed else "FAIL"
        print(f"{name}: {status}" + (f" ({detail})" if detail else ""), file=out)
    print(f"{len(suites) - failures}/{len(suites)} suites passed", file=out)
    return 0 if failures == 0 else 1
