"""Seeded verification suites runnable from the CLI.

Each suite cross-checks one analytic claim against an independent route:
PAVA vs grid oracle, PAVA vs projected gradient, nnm_solve vs direct
soft-thresholding of numpy's SVD, and the spectral trace identity.
Output is deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import diag, solver

SCALE_COUNTS = {
    "small": {"oracle": 25, "cross": 25, "trace": 10, "nnm": 20, "trace_trials": 100},
    "full": {"oracle": 200, "cross": 200, "trace": 100, "nnm": 100, "trace_trials": 1000},
}


def random_sigma(rng, n, top=3.0):
    return np.sort(rng.uniform(0.0, top, size=n))[::-1].copy()


def random_matrix(rng, max_rows=6, max_cols=5):
    m = int(rng.integers(1, max_rows + 1))
    n = int(rng.integers(1, max_cols + 1))
    return rng.uniform(-1.0, 1.0, size=(m, n))


def _fmt(x) -> str:
    return repr(float(x))


def suite_oracle(rng, count, inject_bug=False):
    """PAVA objective never exceeds the grid oracle's (n <= 3)."""
    for i in range(count):
        n = int(rng.integers(1, 4))
        sigma = random_sigma(rng, n)
        w = rng.uniform(0.0, 2.0 * (sigma[0] if n else 1.0), size=n)
        got = diag.pava_solve(sigma, w).objective
        ref = diag.brute_force_oracle(sigma, w, grid_step=1e-3).objective
        if inject_bug:
            ref = -ref  # test-only hook so the harness itself can be checked
        if not got <= ref + 1e-4:
            return (
                f"instance {i}: sigma={sigma.tolist()} w={w.tolist()} "
                f"pava={_fmt(got)} oracle={_fmt(ref)}"
            )
    return None


def suite_cross_solver(rng, count):
    """PAVA agrees with the projected-gradient reference (n <= 10)."""
    for i in range(count):
        n = int(rng.integers(1, 11))
        sigma = random_sigma(rng, n)
        w = rng.uniform(0.0, 3.0, size=n)
        a = diag.pava_solve(sigma, w).objective
        b = diag.projgrad_reference(sigma, w, tol=1e-12, max_iter=100000).objective
        if abs(a - b) > 1e-6:
            return (
                f"instance {i}: sigma={sigma.tolist()} w={w.tolist()} "
                f"pava={_fmt(a)} projgrad={_fmt(b)}"
            )
    return None


def suite_trace_identity(rng, count, trials):
    """Trace form peaks at the SVD factors with value sum(sigma_i * w_i)."""
    for i in range(count):
        a = random_matrix(rng)
        k = min(a.shape)
        w = np.sort(rng.uniform(0.0, 3.0, size=k))[::-1].copy()
        rep = solver.trace_identity_check(a, w, trials=trials, rng=rng)
        if abs(rep.lhs - rep.rhs_at_svd) > 1e-8 or rep.max_random_rhs > rep.lhs + 1e-8:
            return (
                f"instance {i}: lhs={_fmt(rep.lhs)} at_svd={_fmt(rep.rhs_at_svd)} "
                f"max_random={_fmt(rep.max_random_rhs)}"
            )
    return None


def suite_nnm_equivalence(rng, count):
    """nnm_solve matches soft-thresholding of numpy's own SVD at lam/2."""
    for i in range(count):
        y = random_matrix(rng)
        lam = float(rng.uniform(0.0, 2.0 * np.linalg.norm(y, 2)))
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        ref = (u * np.maximum(s - lam / 2.0, 0.0)) @ vt
        err = float(np.max(np.abs(solver.nnm_solve(y, lam).x_star - ref)))
        if err > 1e-10:
            return f"instance {i}: lam={_fmt(lam)} entrywise gap={_fmt(err)}"
    return None


def run_selftest(seed: int, scale: str, inject_bug: bool = False, out=None) -> int:
    """Run all suites; print one pass/fail line each. Returns 0 iff all pass."""
    import sys

    out = out or sys.stdout
    if scale == "0":
        print("0 suites", file=out)
        return 0
    counts = SCALE_COUNTS[scale]
    rng = np.random.default_rng(seed)
    suites = [
        ("oracle-dominance", lambda: suite_oracle(rng, counts["oracle"], inject_bug)),
        ("cross-solver", lambda: suite_cross_solver(rng, counts["cross"])),
        ("trace-identity", lambda: suite_trace_identity(rng, counts["trace"], counts["trace_trials"])),
        ("nnm-equivalence", lambda: suite_nnm_equivalence(rng, counts["nnm"])),
    ]
    failures = 0
    for name, fn in suites:
        counterexample = fn()
        if counterexample is None:
            print(f"{name}: PASS", file=out)
        else:
            failures += 1
            print(f"{name}: FAIL ({counterexample})", file=out)
    print(f"{len(suites) - failures}/{len(suites)} suites passed", file=out)
    return 0 if failures == 0 else 1
