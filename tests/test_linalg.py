import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnnm import InvalidInputError, reconstruct, svd


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


def test_svd_wide_matrix_thin_factors():
    y = np.arange(6.0).reshape(2, 3)
    f = svd(y)
    assert f.u.shape == (2, 2) and f.v.shape == (3, 2)
    np.testing.assert_allclose(reconstruct(f, f.sigma), y, atol=1e-12)


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(0)
    for shape in [(5, 4), (3, 6)]:  # tall, and wide (factors swapped internally)
        y = rng.standard_normal(shape)
        f = svd(y)
        np.testing.assert_allclose(reconstruct(f, f.sigma), y, atol=1e-12)
        for j in range(f.u.shape[1]):
            col = f.u[:, j]
            assert col[np.abs(col).argmax()] >= 0


def test_svd_stack_matches_per_matrix():
    rng = np.random.default_rng(8)
    for shape in [(3, 2, 5, 4), (4, 3, 6)]:  # a stack of tall, and of wide matrices
        ys = rng.standard_normal(shape)
        f = svd(ys)
        assert f.shape == shape[-2:]
        np.testing.assert_allclose(reconstruct(f, f.sigma), ys, atol=1e-12)
        for idx in np.ndindex(shape[:-2]):
            g = svd(ys[idx])
            np.testing.assert_array_equal(f.u[idx], g.u)
            np.testing.assert_array_equal(f.sigma[idx], g.sigma)
            np.testing.assert_array_equal(f.v[idx], g.v)
            for j in range(g.u.shape[1]):
                col = f.u[idx][:, j]
                assert col[np.abs(col).argmax()] >= 0


def test_svd_stack_rejects_nonfinite():
    ys = np.ones((3, 4, 2))
    ys[2, 1, 0] = np.inf
    with pytest.raises(InvalidInputError):
        svd(ys)


def test_reconstruct_examples():
    f = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(reconstruct(f, [3.0, 1.0]), np.diag([3.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(reconstruct(f, [0.0, 0.0]), np.zeros((2, 2)))
    np.testing.assert_allclose(reconstruct(f, [2.5, 0.5]), np.diag([2.5, 0.5]), atol=1e-12)


def test_reconstruct_length_mismatch():
    f = svd(np.diag([3.0, 1.0]))
    with pytest.raises(InvalidInputError):
        reconstruct(f, [1.0, 2.0, 3.0])


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
