"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure). Tolerances are fixed here, not tuned at runtime.
"""

import doctest
import os
import subprocess
import sys

import numpy as np
import pytest

import wnnm
from wnnm import (
    DenoiseConfig,
    closed_form,
    denoise,
    nnm_solve,
    objective_full,
    pava_solve,
    psnr,
    svd,
    trace_identity_check,
    wnnm_solve,
)
from wnnm.linalg import reconstruct
from wnnm.selftest import _grid_oracle, _projgrad


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def sorted_desc(rng, n, top=3.0):
    return np.sort(rng.uniform(0.0, top, size=n))[::-1].copy()


def test_criterion_1_oracle_optimality():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 4))
        sigma = sorted_desc(rng, n)
        w = rng.uniform(0.0, 2.0 * sigma[0], size=n) if sigma[0] > 0 else np.zeros(n)
        fast = pava_solve(sigma, w).objective
        slow = _grid_oracle(sigma, w)
        ok &= fast <= slow + 1e-4
    report("oracle optimality (grid search never beats PAVA, n<=3)", ok)


def test_criterion_2_closed_form_agreement():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 11))
        sigma = sorted_desc(rng, n)
        w = np.sort(rng.uniform(0.0, 3.0, size=n))
        gap = np.max(np.abs(closed_form(sigma, w).d - pava_solve(sigma, w).d))
        ok &= gap <= 1e-10
    report("closed form vs PAVA agreement for non-descending weights", ok)


def test_criterion_3_cross_solver_agreement():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 11))
        sigma = sorted_desc(rng, n)
        w = rng.uniform(0.0, 3.0, size=n)
        a = pava_solve(sigma, w).objective
        b = _projgrad(sigma, w)
        ok &= abs(a - b) <= 1e-6
    report("PAVA vs projected-gradient objective agreement", ok)


def test_criterion_4_nnm_special_case():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        y = rng.uniform(-1.0, 1.0, size=(m, n))
        top = float(np.linalg.norm(y, 2))
        lam = float(rng.uniform(0.0, 2.0 * top)) if top > 0 else 0.0
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        ref = (u * np.maximum(s - lam / 2.0, 0.0)) @ vt
        gap = np.max(np.abs(nnm_solve(y, lam).x_star - ref))
        ok &= gap <= 1e-10
    report("nnm_solve equals soft-thresholding of numpy's SVD at lam/2", ok)


def leading_step(rng, u, s, vt):
    """t * sigma_1 * delta: delta of unit norm and rank <= 3 in the leading
    singular subspace of y (where the optimum's spectrum lives), t
    log-uniform in [1e-9, 1e-3]."""
    r = int(rng.integers(1, min(s.size, 3) + 1))
    c = rng.standard_normal((r, r))
    return 10.0 ** rng.uniform(-9.0, -3.0) * s[0] * (u[:, :r] @ (c / np.linalg.norm(c)) @ vt[:r])


def test_criterion_5_candidate_dominance():
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        y = rng.uniform(-1.0, 1.0, size=(m, n))
        w = rng.uniform(0.0, 2.0, size=min(m, n))
        r = wnnm_solve(y, w)
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        for j in range(500):
            kind = j % 4
            if kind == 0:
                c = r.x_star + rng.normal(0.0, 0.2, size=y.shape)
            elif kind == 1:
                c = y + rng.normal(0.0, 0.2, size=y.shape)
            elif kind == 2:
                k = int(rng.integers(1, min(m, n) + 1))
                c = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
            else:
                c = r.x_star + leading_step(rng, u, s, vt)
            # A step along the spectrum is checked to rounding, relative to the optimum.
            slack = 16 * s.size * np.finfo(float).eps * r.d.objective if kind == 3 else 1e-6
            if not r.d.objective <= objective_full(y, c, w) + slack:
                ok = False
    report("solution dominates 500 random candidates per instance", ok)


def test_criterion_6_trace_identity():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        w = np.sort(rng.uniform(0.0, 3.0, size=min(m, n)))[::-1].copy()
        rep = trace_identity_check(a, w)
        ok &= abs(rep.lhs - rep.rhs_at_svd) <= 1e-8
        ok &= rep.max_probe_gap <= 1e-8
    report("trace form peaks at the SVD factors and each turned pair drops it as predicted", ok)


def test_criterion_7_svd_contract():
    rng = np.random.default_rng(1007)
    ok = True
    for _ in range(500):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        y = rng.uniform(-1.0, 1.0, size=(m, n))
        f = svd(y)
        scale = max(np.linalg.norm(y), 1e-30)
        ok &= np.linalg.norm(reconstruct(f, f.sigma) - y) / scale <= 1e-8
        eye = np.eye(f.sigma.size)
        ok &= np.linalg.norm(f.u.T @ f.u - eye) <= 1e-10
        ok &= np.linalg.norm(f.v.T @ f.v - eye) <= 1e-10
        ok &= bool(np.all(np.diff(f.sigma) <= 0.0) and np.all(f.sigma >= 0.0))
    report("SVD contract: reconstruction, orthonormality, sorted spectrum", ok)


def test_criterion_8_denoise_smoke():
    rng = np.random.default_rng(1008)
    stripe = 107.0 + 80.0 * np.sin(np.arange(64) * 0.35)
    clean = np.outer(np.ones(64), stripe)  # rank 1
    noisy = np.clip(clean + rng.normal(0.0, 20.0, size=clean.shape), 0.0, 255.0)
    out = denoise(noisy, DenoiseConfig(noise_sigma=20.0))
    gain = psnr(out, clean) - psnr(noisy, clean)
    print(f"denoise PSNR gain: {gain:.3f} dB")
    report("denoise demo gains >= 1 dB on the stripe fixture", gain >= 1.0)


def test_criterion_9_selftest_determinism():
    cmd = [sys.executable, "-m", "wnnm", "selftest", "--seed", "42"]
    # The subprocess imports the same wnnm package as this test, installed or not.
    src = os.path.dirname(os.path.dirname(wnnm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run(cmd, capture_output=True, env=env) for _ in range(2)]
    ok = (
        runs[0].returncode == 0
        and runs[0].returncode == runs[1].returncode
        and runs[0].stdout == runs[1].stdout
        and runs[0].stderr == runs[1].stderr
    )
    report("selftest output byte-identical across runs", ok)


def test_criterion_10_readme_example_runs():
    # The README's Library block is a doctest: a renamed field or a changed
    # value fails here.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    result = doctest.testfile(readme, module_relative=False)
    report("README library example runs as printed", result.attempted > 0 and result.failed == 0)
