import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnnm import (
    ConvergenceError,
    InvalidInputError,
    SolverPath,
    brute_force_oracle,
    closed_form,
    pava_solve,
    projgrad_reference,
)
from wnnm import diag
from wnnm.diag import project_monotone_nonneg
from wnnm.selftest import kkt_violation


def random_instance(rng, n_max=10):
    n = int(rng.integers(1, n_max + 1))
    sigma = np.sort(rng.uniform(0.0, 3.0, size=n))[::-1].copy()
    w = rng.uniform(0.0, 3.0, size=n)
    return sigma, w


def feasible(d):
    return np.all(np.diff(d) <= 0.0) and np.all(d >= 0.0)


class TestClosedForm:
    def test_hand_values(self):
        np.testing.assert_allclose(closed_form([3, 2, 1], [1, 1, 1]).d, [2.5, 1.5, 0.5])
        np.testing.assert_allclose(closed_form([1, 0.5], [2, 3]).d, [0.0, 0.0])
        np.testing.assert_allclose(closed_form([5, 1], [0, 4]).d, [5.0, 0.0])

    def test_rejects_descending_weights(self):
        with pytest.raises(InvalidInputError, match="pava_solve"):
            closed_form([3, 2], [2, 1])
        # Out of order by far less than 1e-12: max(sigma - w/2, 0) would ascend.
        with pytest.raises(InvalidInputError, match="pava_solve"):
            closed_form([1, 1], [1, 1 - 1e-13])

    def test_path_tag(self):
        assert closed_form([1], [1]).path is SolverPath.CLOSED_FORM

    def test_unsorted_spectrum_rejected(self):
        with pytest.raises(InvalidInputError, match="sorted non-increasing"):
            closed_form([1.0, 2.0], [0, 0])


class TestPava:
    def test_no_violation_just_clamps(self):
        sol = pava_solve([3, 1], [1, 3])
        np.testing.assert_allclose(sol.d, [2.5, 0.0])

    def test_pooling(self):
        sol = pava_solve([3, 2], [4, 0])
        np.testing.assert_allclose(sol.d, [1.5, 1.5])

    def test_zero_spectrum(self):
        np.testing.assert_allclose(pava_solve([0, 0], [5, 1]).d, [0.0, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError, match=r"weights must be nonnegative, got min -0\.1$"):
            pava_solve([1.0], [-0.1])

    def test_negative_spectrum_rejected(self):
        with pytest.raises(InvalidInputError, match=r"singular values must be nonnegative, got min -1\.0$"):
            pava_solve([1.0, -1.0], [0, 0])

    def test_empty_instance(self):
        sol = pava_solve([], [])
        assert sol.d.size == 0 and sol.objective == 0.0

    def test_all_zero_weights_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sigma, _ = random_instance(rng)
            np.testing.assert_array_equal(pava_solve(sigma, np.zeros_like(sigma)).d, sigma)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            sigma, w = random_instance(rng)
            assert feasible(pava_solve(sigma, w).d)

    def test_objective_matches_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sigma, w = random_instance(rng)
            sol = pava_solve(sigma, w)
            assert abs(sol.objective - np.sum((sol.d - sigma) ** 2 + w * sol.d)) <= 1e-12

    def test_agrees_with_closed_form_when_applicable(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            sigma = np.sort(rng.uniform(0, 3, n))[::-1].copy()
            w = np.sort(rng.uniform(0, 3, n))
            np.testing.assert_allclose(pava_solve(sigma, w).d, closed_form(sigma, w).d, atol=1e-10)

    def test_dominates_random_feasible_candidates(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sigma, w = random_instance(rng)
            best = pava_solve(sigma, w).objective
            cand = np.sort(rng.uniform(0, sigma[0] + 1, size=(1000, sigma.size)), axis=1)[:, ::-1]
            vals = np.sum((cand - sigma) ** 2 + w * cand, axis=1)
            assert best <= vals.min() + 1e-9

    def test_weight_shift_never_increases_solution(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            sigma, w = random_instance(rng)
            c = float(rng.uniform(0.01, 2.0))
            assert np.all(pava_solve(sigma, w + c).d <= pava_solve(sigma, w).d + 1e-10)


class TestProjGrad:
    def test_agrees_with_pava(self):
        for sigma, w in [([3, 2], [4, 0]), ([3, 1], [1, 3])]:
            a = projgrad_reference(sigma, w, tol=1e-12, max_iter=100000)
            b = pava_solve(sigma, w)
            np.testing.assert_allclose(a.d, b.d, atol=1e-6)
            assert a.path is SolverPath.PROJ_GRAD

    def test_unconstrained_minimum_already_feasible(self):
        np.testing.assert_allclose(projgrad_reference([1], [0], tol=1e-12).d, [1.0], atol=1e-10)

    def test_exhaustion_raises_with_last_iterate(self):
        with pytest.raises(ConvergenceError) as exc_info:
            projgrad_reference([3, 2], [4, 0], tol=1e-15, max_iter=2)
        err = exc_info.value
        assert err.last_iterate.shape == (2,)
        assert err.iterations == 2
        assert np.isfinite(err.objective)

    def test_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            projgrad_reference([1], [1], tol=0.0)
        with pytest.raises(InvalidInputError):
            projgrad_reference([1], [1], max_iter=0)
        for tol in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="tol contains NaN or Inf"):
                projgrad_reference([1], [1], tol=tol)
        with pytest.raises(InvalidInputError, match="max_iter must be an integer >= 1"):
            projgrad_reference([1], [1], max_iter=2.5)

    def test_random_cross_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sigma, w = random_instance(rng)
            a = pava_solve(sigma, w).objective
            b = projgrad_reference(sigma, w, tol=1e-12, max_iter=100000).objective
            assert abs(a - b) <= 1e-6


class TestOracle:
    def test_hand_values(self):
        np.testing.assert_allclose(brute_force_oracle([3, 2], [4, 0], 0.01).d, [1.5, 1.5])
        np.testing.assert_allclose(brute_force_oracle([0], [1], 0.01).d, [0.0])
        np.testing.assert_allclose(brute_force_oracle([3, 1], [1, 3], 0.01).d, [2.5, 0.0])

    def test_empty_instance(self):
        sol = brute_force_oracle([], [], 0.5)
        assert sol.d.size == 0 and sol.objective == 0.0 and sol.path is SolverPath.BRUTE_FORCE

    def test_refuses_large_instances(self):
        with pytest.raises(InvalidInputError):
            brute_force_oracle([5, 4, 3, 2, 1], [1, 1, 1, 1, 1], 0.1)

    @pytest.mark.parametrize("grid_step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_grid_step(self, grid_step):
        message = "must be positive" if np.isfinite(grid_step) else "contains NaN or Inf"
        with pytest.raises(InvalidInputError, match=f"grid_step {message}"):
            brute_force_oracle([3, 2], [4, 0], grid_step)

    @pytest.mark.parametrize("grid_step", [1e-300, 1e-9])
    def test_grid_too_fine(self, grid_step, monkeypatch):
        # Without the cap, 1e-300 makes numpy raise ValueError and 1e-9
        # asks for billions of points; a failing arange proves no grid is
        # allocated either way.
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "arange", no_grid)
        with pytest.raises(InvalidInputError, match="grid points"):
            brute_force_oracle([3, 2], [4, 0], grid_step)

    def test_result_is_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sigma, w = random_instance(rng, n_max=4)
            assert feasible(brute_force_oracle(sigma, w, 0.05).d)

    def test_pava_never_beaten_by_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sigma, w = random_instance(rng, n_max=3)
            fast = pava_solve(sigma, w).objective
            slow = brute_force_oracle(sigma, w, 1e-3).objective
            assert fast <= slow + 1e-4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8), st.data())
def test_pava_feasible_and_dominant_property(raw_sigma, data):
    sigma = np.sort(np.array(raw_sigma))[::-1].copy()
    w = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=sigma.size, max_size=sigma.size)))
    sol = pava_solve(sigma, w)
    assert feasible(sol.d)
    # projecting the optimum back onto the cone changes nothing
    resolved = pava_solve(np.maximum.accumulate(sol.d[::-1])[::-1], np.zeros_like(w))
    np.testing.assert_allclose(resolved.d, sol.d, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20000), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 30.0, 300.0]))
def test_pava_kkt_certificate_property(n, seed, spread):
    """The KKT conditions of the spectrum QP certify pava_solve at sizes the
    grid oracle and projected gradient cannot reach."""
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.uniform(0.0, 100.0, n))[::-1].copy()
    w = rng.uniform(0.0, spread, n)  # arbitrary order: PAVA pools and clamps
    d = pava_solve(sigma, w).d
    violation, bound = kkt_violation(sigma, w, d)
    assert feasible(d)
    assert violation <= bound


def naive_pava(t):
    """Reference projection: per-element stack PAVA, then clamp at zero."""
    sums, counts = [], []
    for x in np.asarray(t, dtype=float).tolist():
        s, c = x, 1
        while sums and sums[-1] / counts[-1] < s / c:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    out = np.repeat(np.array(sums) / np.array(counts), counts)
    return np.maximum(out, 0.0)


def assert_matches_naive(t):
    d = project_monotone_nonneg(t)
    ref = naive_pava(t)
    assert d.shape == ref.shape
    assert np.all(np.diff(d) <= 0.0) and np.all(d >= 0.0)
    scale = 1.0 + (np.abs(t).max() if t.size else 0.0)
    assert np.abs(d - ref).max(initial=0.0) <= 1e-12 * scale


def family_targets(family, n, rng, scale):
    """Targets of one adversarial family for the projection."""
    if family == "non-increasing":
        return np.sort(rng.uniform(-scale, scale, n))[::-1].copy()
    if family == "increasing":  # strictly: the whole vector pools into one block
        return np.cumsum(rng.uniform(0.01, 1.0, n)) * scale
    if family == "cascade":  # [n-1, ..., 1, huge]: one merge per pass, so the budget hands off
        return np.append(np.arange(n - 1, 0, -1.0), 1e9)[:n] * scale
    if family == "sawtooth":
        period = int(rng.integers(2, 50))
        return (np.arange(n) % period) * scale
    if family == "equal-means":  # small integers: many exact ties between blocks
        return np.repeat(rng.integers(0, 4, n), rng.integers(1, 6, n))[:n] * scale
    if family == "noise":
        return rng.standard_normal(n) * scale
    sigma, w = spectrum_instance(n, rng, scale)
    return sigma - w / 2.0


def spectrum_instance(n, rng, scale):
    """The spectrum-20k recipe: sorted sigma, sorted weights plus noise."""
    sigma = np.sort(rng.uniform(0.0, 100.0, n))[::-1]
    w = np.abs(np.sort(rng.uniform(0.0, 20.0, n)) + scale * rng.standard_normal(n))
    return sigma, w


FAMILIES = ["non-increasing", "increasing", "cascade", "sawtooth", "equal-means", "noise",
            "spectrum"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 20000), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 40.0, 1e6]))
def test_projection_matches_naive_pava_property(family, n, seed, scale):
    assert_matches_naive(family_targets(family, n, np.random.default_rng(seed), scale))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e12, 1e12), max_size=2))
def test_projection_matches_naive_pava_tiny(values):
    assert_matches_naive(np.array(values, dtype=float))


@pytest.mark.parametrize("family", FAMILIES)
def test_projection_matches_naive_pava_at_20k(family):
    assert_matches_naive(family_targets(family, 20000, np.random.default_rng(11), 1.0))


class CountingNumpy:
    """numpy as ``diag`` sees it, counting the blocks each merge pass compares."""

    def __init__(self):
        self.visited = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def greater_equal(self, a, b, out):
        self.visited += a.size + 1
        return np.greater_equal(a, b, out=out)


@pytest.mark.parametrize("family, scale, loops", [
    ("spectrum", 0.08, False), ("spectrum", 1.0, False), ("spectrum", 40.0, False),
    ("cascade", 1.0, True),
])
def test_passes_hand_off_to_the_loop_only_past_the_budget(monkeypatch, family, scale, loops):
    """Spectra converge in a few passes and never reach the stack loop; the
    cascade merges one block per pass and reaches it. Either way the passes
    visit at most 5n blocks, so the projection stays O(n)."""
    n = 20000
    loop_calls = []
    pool_blocks = diag._pool_blocks

    def spy(sums, counts):
        loop_calls.append(sums.size)
        return pool_blocks(sums, counts)

    counting = CountingNumpy()
    monkeypatch.setattr(diag, "_pool_blocks", spy)
    monkeypatch.setattr(diag, "np", counting)
    assert_matches_naive(family_targets(family, n, np.random.default_rng(11), scale))
    assert bool(loop_calls) == loops
    assert counting.visited <= 5 * n


def test_sorted_targets_take_one_pass(monkeypatch):
    """Targets that are already non-increasing cost one comparison pass of n
    blocks and come back clamped, with no merge."""
    n = 20000
    t = family_targets("non-increasing", n, np.random.default_rng(11), 1.0)
    counting = CountingNumpy()
    monkeypatch.setattr(diag, "np", counting)
    d = project_monotone_nonneg(t)
    assert counting.visited == n
    np.testing.assert_array_equal(d, np.maximum(t, 0.0))


@pytest.mark.parametrize("scale", [0.08, 1.0, 40.0])
def test_objective_matches_recomputation_at_20k(scale):
    """The objective's two dot products agree with the elementwise sum."""
    sigma, w = spectrum_instance(20000, np.random.default_rng(11), scale)
    sol = pava_solve(sigma, w)
    direct = np.sum((sol.d - sigma) ** 2 + w * sol.d)
    assert abs(sol.objective - direct) <= 1e-12 * (1.0 + abs(direct))
