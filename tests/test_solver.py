import numpy as np
import pytest

from wnnm import (
    InvalidInputError,
    SolverPath,
    nnm_solve,
    objective_full,
    trace_identity_check,
    wnnm_solve,
)

def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


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

    def test_weight_length_rejected(self):
        with pytest.raises(InvalidInputError):
            objective_full(np.eye(3), np.eye(3), [1, 1])


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
            for _ in range(20):
                kind = rng.integers(3)
                if kind == 0:
                    c = r.x_star + rng.normal(0, 0.1, size=y.shape)
                elif kind == 1:
                    c = y + rng.normal(0, 0.1, size=y.shape)
                else:
                    k = int(rng.integers(1, min(m, n) + 1))
                    c = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
                assert r.d.objective <= objective_full(y, c, w) + 1e-6


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


class TestTraceIdentity:
    def test_diagonal_case(self):
        rep = trace_identity_check(np.diag([2.0, 1.0]), [3, 1], trials=10, rng=0)
        assert rep.lhs == pytest.approx(7.0)
        assert rep.rhs_at_svd == pytest.approx(7.0)

    def test_zero_matrix(self):
        rep = trace_identity_check(np.zeros((3, 2)), [1, 0], trials=10, rng=0)
        assert rep.lhs == 0.0 and rep.rhs_at_svd == 0.0
        assert abs(rep.max_random_rhs) <= 1e-12

    def test_random_factors_never_beat_svd(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 3))
        rep = trace_identity_check(a, [2, 1, 0], trials=1000, rng=rng)
        assert abs(rep.lhs - rep.rhs_at_svd) <= 1e-8
        assert rep.max_random_rhs <= rep.lhs + 1e-8

    def test_ascending_weights_rejected(self):
        with pytest.raises(InvalidInputError):
            trace_identity_check(np.eye(2), [1, 2], trials=1)
        with pytest.raises(InvalidInputError):
            trace_identity_check(np.eye(2), [1, 1 + 1e-13], trials=1)

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            trace_identity_check(np.eye(2), [1, 1], trials=0)
        with pytest.raises(InvalidInputError, match="trials must be an integer >= 1"):
            trace_identity_check(np.eye(2), [1, 1], trials=1.5)
