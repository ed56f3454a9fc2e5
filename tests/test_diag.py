import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnnm import InvalidInputError, SolverPath, closed_form, pava_solve
from wnnm import diag
from wnnm.diag import project_monotone_nonneg
from wnnm.selftest import _grid_oracle, _projgrad, kkt_violation


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


# Sorted spectra with non-descending weights, each of length 4: ties, all-equal
# weights, zeros, the smallest subnormal, values near the float limit, and
# infinite weights at the end (the denoiser's padded positions), whose
# targets are -inf and whose d is exactly 0.
ORDERED_EDGES = [
    ([3.0, 3.0, 2.0, 2.0], [1.0, 1.0, 1.0, 2.0]),
    ([5.0, 4.0, 3.0, 1.0], [2.0, 2.0, 2.0, 2.0]),
    ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
    ([2.0, 1.0, 0.0, 0.0], [0.0, 2.0, 2.0, 7.0]),
    ([5e-324, 5e-324, 5e-324, 0.0], [0.0, 5e-324, 1e-323, 1e-323]),
    ([1.7e308, 1e308, 1e308, 5e-324], [0.0, 1e308, 1.7e308, 1.7e308]),
    ([1e308, 1.0, 5e-324, 0.0], [5e-324, 5e-324, 1.0, 1e308]),
    ([3.0, 2.0, 1e-15, 0.0], [1.0, 1.0, np.inf, np.inf]),
    ([1.7e308, 1e308, 1.0, 5e-324], [0.0, 1e308, 1e308, np.inf]),
    ([0.0, 0.0, 0.0, 0.0], [np.inf, np.inf, np.inf, np.inf]),
]


def ordered_stack(rng, rows):
    """``ORDERED_EDGES`` then ``rows`` random sorted spectra with non-descending weights."""
    sigma = np.sort(rng.uniform(0.0, 3.0, (rows, 4)), axis=1)[:, ::-1]
    w = np.sort(rng.choice([0.0, 0.5, 1.0, 2.5], (rows, 4)) * rng.uniform(0.5, 2.0, (rows, 1)), axis=1)
    edges = np.array(ORDERED_EDGES)
    return np.vstack([edges[:, 0], sigma]), np.vstack([edges[:, 1], w])


def bits(a):
    return np.asarray(a).view(np.uint64)


class TestSpectrumKernel:
    """``diag.spectrum`` serves both paths: for non-descending weights the
    projection's first pass returns the closed form, bit for bit."""

    def test_closed_form_bits_one_spectrum(self):
        sigma, w = ordered_stack(np.random.default_rng(21), 50)
        for s, v in zip(sigma, w):
            np.testing.assert_array_equal(bits(diag.spectrum(s, v)), bits(np.maximum(s - v / 2, 0)))

    def test_closed_form_bits_stack(self):
        sigma, w = ordered_stack(np.random.default_rng(22), 50)
        d = diag.spectrum(sigma, w)
        assert d.shape == sigma.shape
        np.testing.assert_array_equal(bits(d), bits(np.maximum(sigma - w / 2, 0)))

    def test_stack_with_an_unordered_row_is_projected_by_row(self):
        sigma, w = ordered_stack(np.random.default_rng(23), 20)
        i = len(ORDERED_EDGES)
        w[i + 3] = [2.0, 0.0, 1.5, 0.0]  # t = sigma - w/2 ascends
        # t = [0.5, 1.9, -inf, -inf]: the finite part ascends, and the
        # infinite weights still give exact zeros.
        sigma[i + 5], w[i + 5] = [2.0, 1.9, 1.0, 0.5], [3.0, 0.0, np.inf, np.inf]
        d = diag.spectrum(sigma, w)
        for s, v, row in zip(sigma, w, d):
            k = np.count_nonzero(np.isfinite(v))  # pava_solve takes finite weights only
            np.testing.assert_array_equal(bits(row[:k]), bits(pava_solve(s[:k], v[:k]).d))
            np.testing.assert_array_equal(bits(row[k:]), bits(np.zeros(row.size - k)))
        np.testing.assert_array_equal(d[i + 5], [1.2, 1.2, 0.0, 0.0])
        assert np.all(np.diff(d, axis=1) <= 0.0)


class TestProjGrad:
    def test_agrees_with_pava(self):
        for sigma, w in [([3.0, 2.0], [4.0, 0.0]), ([3.0, 1.0], [1.0, 3.0])]:
            sigma, w = np.array(sigma), np.array(w)
            assert abs(_projgrad(sigma, w) - pava_solve(sigma, w).objective) <= 1e-10

    def test_unconstrained_minimum_already_feasible(self):
        assert _projgrad(np.array([1.0]), np.array([0.0])) == 0.0

    def test_random_cross_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sigma, w = random_instance(rng)
            assert abs(pava_solve(sigma, w).objective - _projgrad(sigma, w)) <= 1e-6


class TestOracle:
    def test_hand_values(self):
        for sigma, w, objective in [([3, 2], [4, 0], 8.5), ([3, 1], [1, 3], 3.75), ([0], [1], 0.0)]:
            got = _grid_oracle(np.array(sigma, dtype=float), np.array(w, dtype=float))
            assert abs(got - objective) <= 1e-9

    def test_result_is_feasible(self):
        # The grid's minimum is the objective of a feasible spectrum, so it
        # never falls below the optimum over all feasible spectra.
        rng = np.random.default_rng(8)
        for _ in range(50):
            sigma, w = random_instance(rng, n_max=4)
            assert _grid_oracle(sigma, w) >= pava_solve(sigma, w).objective - 1e-12

    def test_pava_never_beaten_by_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sigma, w = random_instance(rng, n_max=3)
            assert pava_solve(sigma, w).objective <= _grid_oracle(sigma, w) + 1e-4


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
