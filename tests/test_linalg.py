from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnnm import (
    DenoiseConfig,
    InvalidInputError,
    NumericalFailureError,
    denoise,
    nnm_solve,
    objective_full,
    svd,
    wnnm_solve,
)
from wnnm.linalg import check_array, reconstruct, thin_svd


def gram_defect(m) -> float:
    """Frobenius norm of ``m.T @ m - I``; 0 for orthonormal columns."""
    m = np.asarray(m, dtype=float)
    g = m.T @ m
    return float(np.linalg.norm(g - np.eye(g.shape[0])))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_svd_diagonal_matrix():
    f = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(f.sigma, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(f.v), np.eye(2), atol=1e-12)


def test_svd_zero_matrix():
    f = svd(np.zeros((3, 2)))
    np.testing.assert_allclose(f.sigma, [0.0, 0.0])


def test_svd_hand_computed_singular_values():
    # eigenvalues of M^T M are 4 and 1
    f = svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
    np.testing.assert_allclose(f.sigma, [2.0, 1.0], atol=1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        svd(np.array([[1.0, np.nan]]))


def test_spectrum_beyond_float_range_raises():
    # Finite entries whose sigma_1 = 3e308 is not: the package computed the
    # overflow, so it is a numerical failure, not bad input.
    big = np.full((3, 3), 1e308)
    for factor in (lambda: svd(big), lambda: thin_svd(np.stack([np.eye(3), big]))):
        with pytest.raises(NumericalFailureError, match="beyond the float range"):
            factor()


@pytest.mark.parametrize("a, expected", [
    (np.array([[1.5, -2.0]]), [[1.5, -2.0]]),
    (np.array([[3, -4]]), [[3.0, -4.0]]),
    (np.array([[3, 255]], dtype=np.uint8), [[3.0, 255.0]]),
    (np.array([[2**64 - 1]], dtype=np.uint64), [[float(2**64 - 1)]]),
    (np.array([[True, False]]), [[1.0, 0.0]]),
    (np.float32([[0.1]]), [[float(np.float32(0.1))]]),
    ([[1, 2.5]], [[1.0, 2.5]]),
    ([[np.float32(0.1), np.int8(-3)]], [[float(np.float32(0.1)), -3.0]]),
    ([[2**70, 1]], [[float(2**70), 1.0]]),  # an object array of Python ints
    ([[Fraction(1, 3)]], [[1 / 3]]),
])
def test_check_array_takes_real_dtypes(a, expected):
    got = check_array(a, 2, "matrix")
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("a", [[[2**70, "1.5"]], [[2**70, None]], [[2**70, 1j]], [[2**70, 10**400]]])
def test_check_array_rejects_objects_that_are_not_real(a):
    # An object array converts only when every entry is a numbers.Real.
    with pytest.raises(InvalidInputError, match="must be an array of real numbers"):
        check_array(np.array(a, dtype=object), 2, "matrix")


@pytest.mark.parametrize("x", ["1.5", None, 1j, 10**400])
def test_check_array_bad_scalar_message(x):
    with pytest.raises(InvalidInputError, match="^tol must be a real number$"):
        check_array(x, 0, "tol")


def test_check_array_scalars_and_copies():
    assert check_array(np.float32(0.5), 0, "lam") == 0.5
    assert check_array(True, 0, "lam") == 1.0
    a = np.ones((2, 2))
    assert check_array(a, 2, "matrix") is a  # a float64 array is not copied


def test_svd_wide_matrix_thin_factors():
    y = np.arange(6.0).reshape(2, 3)
    f = svd(y)
    assert f.u.shape == (2, 2) and f.v.shape == (3, 2)
    np.testing.assert_allclose(reconstruct(f, f.sigma), y, atol=1e-12)


def test_svd_stack_matches_per_matrix():
    # The denoiser factors a stack of groups with the core; each matrix's
    # factors must be the bits it would get alone.
    rng = np.random.default_rng(8)
    for shape in [(3, 2, 5, 4), (4, 3, 6)]:  # a stack of tall, and of wide matrices
        ys = rng.standard_normal(shape)
        f = thin_svd(ys)
        np.testing.assert_allclose(reconstruct(f, f.sigma), ys, atol=1e-12)
        for idx in np.ndindex(shape[:-2]):
            g = thin_svd(ys[idx])
            np.testing.assert_array_equal(f.u[idx], g.u)
            np.testing.assert_array_equal(f.sigma[idx], g.sigma)
            np.testing.assert_array_equal(f.v[idx], g.v)


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def solver_results():
    rng = np.random.default_rng(21)
    tall, wide = rng.standard_normal((7, 4)), rng.standard_normal((3, 6))
    img = np.clip(rng.normal(128.0, 40.0, (20, 20)), 0.0, 255.0)
    out = []
    for y, w in [(tall, [0.5, 1.0, 1.5, 2.0]), (wide, [1.0, 1.0, 2.0]),
                 (tall, [3.0, 0.1, 2.0, 0.0])]:  # closed form, tall and wide; then PAVA
        r = wnnm_solve(y, w)
        out += [r.x_star, r.d.d, r.d.objective, r.d.path.value]
    r = nnm_solve(wide, 0.8)
    out += [r.x_star, r.d.d, r.d.objective]
    out.append(objective_full(tall, tall[::-1], [2.0, 1.0, 0.5, 0.0]))
    out.append(objective_full(wide, wide[:, ::-1], [1.0, 0.0, 3.0]))
    out.append(denoise(img, DenoiseConfig(noise_sigma=20.0, patch_size=5, search_window=5)))
    return out


def test_results_do_not_depend_on_svd_signs(monkeypatch):
    # U diag(d) V^T is the same for any SVD of Y, and d depends on sigma
    # alone: flipping every other singular pair changes no bit of a result.
    before = solver_results()
    svd_lapack = np.linalg.svd
    calls = []

    def flipped(a, *args, **kwargs):
        u, s, vt = svd_lapack(a, *args, **kwargs)
        u[..., :, 1::2] *= -1.0
        vt[..., 1::2, :] *= -1.0
        calls.append(a.shape)
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", flipped)
    after = solver_results()
    assert len(calls) >= 7
    assert len(after) == len(before)
    for a, b in zip(before, after):
        if isinstance(a, str):
            assert a == b
        else:
            assert_same_bits(a, b)


def test_svd_rejects_stack():
    # The public svd takes one matrix; only the core thin_svd takes a stack.
    for shape in [(3, 4, 2), (2, 1, 3, 3)]:
        with pytest.raises(InvalidInputError, match="2-D"):
            svd(np.ones(shape))


def test_reconstruct_examples():
    # reconstruct is internal and unchecked: it takes a float array shaped like f.sigma.
    f = svd(np.diag([3.0, 1.0]))
    for d in ([3.0, 1.0], [0.0, 0.0], [2.5, 0.5]):
        np.testing.assert_allclose(reconstruct(f, np.array(d)), np.diag(d), atol=1e-12)


def test_gram_defect_values():
    assert gram_defect(np.eye(3)) == 0.0
    assert gram_defect(2.0 * np.eye(2)) == pytest.approx(3.0 * np.sqrt(2.0))
    assert gram_defect(np.array([[1.0], [0.0]])) == 0.0


def test_roundtrip_many_random_shapes():
    rng = np.random.default_rng(123)
    for _ in range(500):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        y = rng.uniform(-1.0, 1.0, size=(m, n))
        f = svd(y)
        scale = max(np.linalg.norm(y), 1e-30)
        assert np.linalg.norm(reconstruct(f, f.sigma) - y) / scale <= 1e-8
        assert gram_defect(f.u) <= 1e-10 and gram_defect(f.v) <= 1e-10
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)


def test_sigma_orthogonally_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.standard_normal((6, 4))
        p = random_orthogonal(rng, 6)
        q = random_orthogonal(rng, 4)
        np.testing.assert_allclose(svd(p @ y @ q.T).sigma, svd(y).sigma, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(m, n, seed):
    y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, n))
    f = svd(y)
    scale = max(np.linalg.norm(y), 1e-30)
    assert np.linalg.norm(reconstruct(f, f.sigma) - y) / scale <= 1e-8
