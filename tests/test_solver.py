import dataclasses

import numpy as np
import pytest

import wnnm
from wnnm import (
    InvalidInputError,
    NumericalFailureError,
    SolverPath,
    nnm_solve,
    objective_full,
    wnnm_solve,
)
from wnnm.selftest import _trace_identity

def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def leading_step(rng, u, s, vt):
    """t * sigma_1 * delta: delta of unit norm and rank <= 3 in the leading
    singular subspace of y (where the optimum's spectrum lives), t
    log-uniform in [1e-9, 1e-3]."""
    r = int(rng.integers(1, min(s.size, 3) + 1))
    c = rng.standard_normal((r, r))
    return 10.0 ** rng.uniform(-9.0, -3.0) * s[0] * (u[:, :r] @ (c / np.linalg.norm(c)) @ vt[:r])


class TestObjectiveFull:
    def test_zero_at_exact_fit_zero_weights(self):
        y = np.diag([3.0, 1.0])
        assert objective_full(y, y, [0, 0]) == 0.0

    def test_hand_values(self):
        y = np.diag([3.0, 1.0])
        assert objective_full(y, np.zeros((2, 2)), [1, 1]) == pytest.approx(10.0)
        assert objective_full(y, np.diag([2.5, 0.5]), [1, 1]) == pytest.approx(3.5)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            objective_full(np.eye(2), np.eye(3), [1, 1])

    def test_overflow_is_inf_without_a_warning(self):
        # The suite turns warnings into errors, so numpy's overflow warning fails here.
        assert objective_full(np.full((2, 2), 1e200), np.zeros((2, 2)), [0, 0]) == np.inf

    def test_weight_length_rejected(self):
        with pytest.raises(InvalidInputError):
            objective_full(np.eye(3), np.eye(3), [1, 1])

    def test_spectrum_beyond_float_range_raises(self):
        # x's sigma_1 = 3e308 is not finite; without the check, the weighted
        # sum would warn and return NaN.
        x = np.full((3, 3), 1e308)
        with pytest.raises(NumericalFailureError, match="beyond the float range"):
            objective_full(x, x, [0, 0, 0])


class TestWnnmSolve:
    def test_diagonal_closed_form(self):
        r = wnnm_solve(np.diag([3.0, 1.0]), [1, 1])
        np.testing.assert_allclose(r.x_star, np.diag([2.5, 0.5]), atol=1e-12)
        assert r.d.path is SolverPath.CLOSED_FORM
        assert r.d.objective == pytest.approx(3.5)

    def test_zero_input(self):
        r = wnnm_solve(np.zeros((4, 3)), [1, 1, 1])
        np.testing.assert_array_equal(r.x_star, np.zeros((4, 3)))

    def test_descending_weights_take_pava_path(self):
        r = wnnm_solve(np.diag([3.0, 2.0]), [4, 0])
        np.testing.assert_allclose(r.x_star, np.diag([1.5, 1.5]), atol=1e-12)
        assert r.d.path is SolverPath.PAVA
        # Descending at the 1e-12 scale: the closed form would give the
        # infeasible d = [5e-13, 1e-12].
        r = wnnm_solve(np.diag([1e-12, 1e-12]), [1e-12, 0.0])
        assert r.d.path is SolverPath.PAVA
        np.testing.assert_allclose(r.d.d, [7.5e-13, 7.5e-13], rtol=1e-12)

    def test_infinite_weights_rejected_without_warning(self):
        # Under the suite's filterwarnings = error, a warning from the
        # path choice would escape here instead of the validation error.
        with pytest.raises(InvalidInputError):
            wnnm_solve(np.eye(2), [np.inf, np.inf])

    def test_zero_weights_identity(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((6, 5))
        r = wnnm_solve(y, np.zeros(5))
        np.testing.assert_allclose(r.x_star, y, atol=1e-8)

    def test_weight_length_rejected_not_padded(self):
        with pytest.raises(InvalidInputError):
            wnnm_solve(np.eye(3), [1, 1])

    def test_singular_values_of_solution_match_d(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = rng.uniform(-1, 1, size=(6, 5))
            r = wnnm_solve(y, rng.uniform(0, 2, size=5))
            s = np.linalg.svd(r.x_star, compute_uv=False)
            np.testing.assert_allclose(s, r.d.d, atol=1e-8)

    def test_objective_value_orthogonally_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            y = rng.standard_normal((5, 4))
            w = rng.uniform(0, 2, size=4)
            p = random_orthogonal(rng, 5)
            q = random_orthogonal(rng, 4)
            a = wnnm_solve(y, w).d.objective
            b = wnnm_solve(p @ y @ q.T, w).d.objective
            assert abs(a - b) <= 1e-8

    def test_optimum_dominates_random_candidates(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            y = rng.uniform(-1, 1, size=(m, n))
            w = rng.uniform(0, 2, size=min(m, n))
            r = wnnm_solve(y, w)
            u, s, vt = np.linalg.svd(y, full_matrices=False)
            for _ in range(20):
                kind = rng.integers(4)
                if kind == 0:
                    c = r.x_star + rng.normal(0, 0.1, size=y.shape)
                elif kind == 1:
                    c = y + rng.normal(0, 0.1, size=y.shape)
                elif kind == 2:
                    k = int(rng.integers(1, min(m, n) + 1))
                    c = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
                else:
                    c = r.x_star + leading_step(rng, u, s, vt)
                # A step along the spectrum is checked to rounding, relative to the optimum.
                slack = 16 * s.size * np.finfo(float).eps * r.d.objective if kind == 3 else 1e-6
                assert r.d.objective <= objective_full(y, c, w) + slack


    @pytest.mark.parametrize("shape", [(6, 4), (3, 7), (5, 5)])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_objective_matches_objective_full(self, shape, rank_deficient):
        rng = np.random.default_rng(18)
        k = min(shape)
        for _ in range(20):
            y = rng.uniform(-1, 1, size=shape)
            if rank_deficient:
                y = rng.standard_normal((shape[0], 1)) @ rng.standard_normal((1, shape[1]))
            w_sorted = np.sort(rng.uniform(0.5, 2, size=k))
            w_any = rng.uniform(0.5, 2, size=k)
            for w in (w_sorted, w_any):
                r = wnnm_solve(y, w)
                descends = np.any(np.diff(w) < 0)
                assert r.d.path is (SolverPath.PAVA if descends else SolverPath.CLOSED_FORM)
                full = objective_full(y, r.x_star, w)
                assert abs(r.d.objective - full) <= 1e-12 * abs(full)


class TestNnmSolve:
    def test_soft_threshold_diagonal(self):
        r = nnm_solve(np.diag([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(r.x_star, np.diag([2.5, 0.5]), atol=1e-12)

    def test_zero_lambda_identity(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((4, 4))
        np.testing.assert_allclose(nnm_solve(y, 0.0).x_star, y, atol=1e-8)

    def test_full_shrinkage(self):
        np.testing.assert_allclose(nnm_solve(np.diag([1.0, 1.0]), 4.0).x_star, np.zeros((2, 2)))

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^lambda must be nonnegative, got -1\.0$"):
            nnm_solve(np.eye(2), -1.0)

    @pytest.mark.parametrize("lam", [[1.0, 2.0], [1.0, 2.0, 3.0]], ids=["as-long-as-sigma", "longer"])
    def test_vector_lambda_rejected(self, lam):
        # np.full would broadcast the first into non-uniform weights.
        with pytest.raises(InvalidInputError, match="0-D"):
            nnm_solve(np.eye(2), lam)

    def test_matches_numpy_soft_thresholding(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            y = rng.uniform(-1, 1, size=(int(rng.integers(1, 7)), int(rng.integers(1, 6))))
            lam = float(rng.uniform(0, 2 * np.linalg.norm(y, 2)))
            u, s, vt = np.linalg.svd(y, full_matrices=False)
            ref = (u * np.maximum(s - lam / 2.0, 0.0)) @ vt
            np.testing.assert_allclose(nnm_solve(y, lam).x_star, ref, atol=1e-10)


def probe_bound(a, w):
    """The trace-identity suite's rounding bound, 16 k eps sigma_1 max(w)."""
    return 16.0 * min(a.shape) * np.finfo(float).eps * np.linalg.norm(a, 2) * max(w)


def random_instance(rng, shape):
    a = rng.uniform(-1.0, 1.0, size=shape)
    return a, np.sort(rng.uniform(0.0, 3.0, size=min(shape)))[::-1].copy()


def turn(m, i, j, theta):
    """``m`` with columns i and j turned by ``theta`` radians."""
    m = m.copy()
    c, s = np.cos(theta), np.sin(theta)
    mi, mj = m[:, i].copy(), m[:, j].copy()
    m[:, i], m[:, j] = c * mi + s * mj, c * mj - s * mi
    return m


def patch_factors(monkeypatch, change):
    """Make ``_trace_identity`` see ``change(factors)`` for the SVD."""
    real = wnnm.selftest.thin_svd
    monkeypatch.setattr(wnnm.selftest, "thin_svd", lambda a: change(real(a)))


class TestTraceIdentity:
    def test_diagonal_case(self):
        assert _trace_identity(np.diag([2.0, 1.0]), [3, 1]) <= 1e-12

    def test_zero_matrix(self):
        assert _trace_identity(np.zeros((3, 2)), [1, 0]) == 0.0

    def test_one_column_has_no_pair_to_turn(self):
        # Only the value at the SVD is compared: 2 * 5 against 2 * (u^T a v).
        assert _trace_identity([[3.0], [4.0]], [2.0]) <= 1e-12

    def test_random_factors_never_beat_svd(self):
        # For non-ascending w every predicted drop is >= 0, so no turned
        # pair of the SVD factors of a random matrix beats the peak.
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 3))
        assert _trace_identity(a, [2, 1, 0]) <= 1e-8

    @pytest.mark.parametrize("shape", [(6, 5), (40, 30), (200, 150), (150, 200)])
    def test_true_factors_within_bound(self, shape):
        a, w = random_instance(np.random.default_rng(17), shape)
        assert _trace_identity(a, w) <= 0.1 * probe_bound(a, w)

    @pytest.mark.parametrize("factor", ["u", "v"])
    @pytest.mark.parametrize("shape", [(6, 5), (40, 30), (200, 150), (150, 200)])
    def test_turned_factor_exceeds_bound(self, monkeypatch, shape, factor):
        # Columns 0 and k-1 of one factor off by 1e-6 rad.
        a, w = random_instance(np.random.default_rng(18), shape)
        k = min(shape)
        patch_factors(
            monkeypatch,
            lambda f: dataclasses.replace(f, **{factor: turn(getattr(f, factor), 0, k - 1, 1e-6)}),
        )
        assert _trace_identity(a, w) > probe_bound(a, w)

    def test_probe_matches_turning_the_factors(self, monkeypatch):
        # On factors that are not the SVD's, the gap read from B's 2x2 blocks
        # equals the one from turning each pair of columns in full.
        rng = np.random.default_rng(19)
        a, w = random_instance(rng, (6, 5))
        f = wnnm.svd(a)
        u = turn(f.u, 1, 3, 0.3)
        patch_factors(monkeypatch, lambda _: dataclasses.replace(f, u=u))
        gaps = []
        for i in range(5):
            for j in range(i + 1, 5):
                for theta in (np.pi / 4, -np.pi / 4):
                    ut, vt = turn(u, i, j, theta), turn(f.v, i, j, theta)
                    drop = np.sum(w * np.diag(u.T @ a @ f.v)) - np.sum(w * np.diag(ut.T @ a @ vt))
                    gaps.append(abs(drop - (f.sigma[i] - f.sigma[j]) * (w[i] - w[j]) / 2.0))
        assert max(gaps) > 0.01
        at_svd = abs(np.sum(f.sigma * w) - np.sum(w * np.diag(u.T @ a @ f.v)))
        assert _trace_identity(a, w) == pytest.approx(max(at_svd, *gaps), rel=1e-9)

    def test_ascending_weights_rejected(self):
        with pytest.raises(InvalidInputError):
            _trace_identity(np.eye(2), [1, 2])
        with pytest.raises(InvalidInputError):
            _trace_identity(np.eye(2), [1, 1 + 1e-13])
