import dataclasses
import importlib
import itertools
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import wnnm
from wnnm import (
    DenoiseConfig, DenoiseStats, InvalidInputError, NumericalFailureError, denoise, psnr, svd, write_pgm
)
from wnnm.cli import main
from wnnm.denoise import EPSILON, extract_group, group_weights

# The module, not the function that the package exports under its name.
denoise_module = importlib.import_module("wnnm.denoise")


def cfg(**kw):
    base = dict(noise_sigma=20.0, patch_size=3, group_size=4, search_window=5, stride=1)
    base.update(kw)
    return DenoiseConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        c = DenoiseConfig(noise_sigma=10.0)
        assert c.patch_size == 7 and c.group_size == 16 and c.stride == 3

    @pytest.mark.parametrize(
        "kw",
        [
            {"noise_sigma": 0.0},
            {"noise_sigma": 10.0, "patch_size": 4},
            {"noise_sigma": 10.0, "group_size": 0},
            {"noise_sigma": 10.0, "stride": 0},
            {"noise_sigma": float("nan")},
            {"noise_sigma": float("inf")},
            {"noise_sigma": 10.0, "weight_constant": float("nan")},
            {"noise_sigma": 10.0, "weight_constant": float("inf")},
            {"noise_sigma": 10.0, "patch_size": 3.0},
            {"noise_sigma": 10.0, "group_size": 4.5},
            {"noise_sigma": 10.0, "search_window": 2.5},
            {"noise_sigma": 10.0, "stride": 1.5},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(InvalidInputError):
            DenoiseConfig(**kw)

    def test_reals_stored_as_floats(self):
        # As an int, 10**300 reached numpy past the C long range and overflowed.
        c = DenoiseConfig(noise_sigma=10**300, patch_size=3, weight_constant=3)
        assert (c.noise_sigma, c.weight_constant) == (1e300, 3.0)
        assert type(c.noise_sigma) is type(c.weight_constant) is float
        assert np.all(denoise(np.full((8, 8), 100.0), c) == 0.0)

    @pytest.mark.parametrize(
        "name, value",
        [("stride", 0), ("search_window", -1), ("patch_size", 0), ("noise_sigma", float("nan"))],
    )
    def test_frozen_fields_and_replace_validates(self, name, value):
        # Assigning a field would bypass the checks; replace runs them again.
        c = DenoiseConfig(noise_sigma=10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, value)
        with pytest.raises(InvalidInputError):
            dataclasses.replace(c, **{name: value})
        assert dataclasses.replace(c, stride=1).stride == 1


def patch_table(img, p):
    """Every p x p patch of ``img``, flattened, indexed by its top-left corner."""
    h, w = img.shape
    return sliding_window_view(img, (p, p)).reshape(h - p + 1, w - p + 1, p * p)


def peak_in_patch_tables():
    """Traced peak of a default 128^2 ``denoise``, in patch tables."""
    img = np.random.default_rng(9).uniform(0, 255, size=(128, 128))
    tracemalloc.start()
    try:
        denoise(img, DenoiseConfig(noise_sigma=20.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / patch_table(img, 7).nbytes


def group_matrix(table, members):
    return table.reshape(-1, table.shape[2])[members].T


def sq_norms(table):
    return np.einsum("ijk,ijk->ij", table, table)


def match_one(table, anchor, c):
    """The members of the one group anchored at ``anchor``."""
    members = extract_group(table, sq_norms(table), anchor[0], [anchor[1]], c)[0]
    return members[members >= 0]


class TestExtractGroup:
    def test_constant_image_all_columns_identical(self):
        table = patch_table(np.full((10, 10), 42.0), 3)
        members = match_one(table, (2, 2), cfg())
        m = group_matrix(table, members)
        assert m.shape == (9, 4)
        assert np.all(m == 42.0)
        assert members[0] == 2 * 8 + 2

    def test_group_size_one_is_anchor_patch(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(8, 8))
        table = patch_table(img, 3)
        members = match_one(table, (1, 2), cfg(group_size=1))
        np.testing.assert_array_equal(group_matrix(table, members)[:, 0], img[1:4, 2:5].ravel())
        assert members.tolist() == [1 * 6 + 2]

    def test_exact_duplicate_chosen_before_others(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(6, 12))
        img[1:4, 8:11] = img[1:4, 1:4]  # plant one exact duplicate
        members = match_one(patch_table(img, 3), (1, 1), cfg(group_size=2, search_window=10))
        assert members.tolist() == [1 * 10 + 1, 1 * 10 + 8]


def matcher_images():
    rng = np.random.default_rng(11)
    return {
        "offset-1e6": 1e6 + rng.uniform(0.0, 1.0, (14, 15)),
        "offset-1e9": 1e9 + rng.uniform(0.0, 1e-3, (15, 13)),
        # Period 3 x 4 on integers: every patch has many exact duplicates.
        "periodic": 10.0 * np.add.outer(np.arange(14) % 3, 2 * (np.arange(16) % 4)),
        "constant": np.full((12, 13), 7.0),
        "binary": rng.integers(0, 2, (13, 14)).astype(float),
    }


class TestMatcherAgainstNaive:
    """Every anchor's members equal the naive exact-distance stable sort.

    The Gram distances of the offset images are off by more than the gaps
    between exact distances, so ranking by them alone reorders members. The
    window test depends on which columns are anchors, so every column, the
    two ends and the middle, and the stride-3 grid each take a turn."""

    # (patch, group, window): the last two hold groups larger than the window.
    CONFIGS = [(3, 4, 3), (1, 6, 2), (5, 8, 20), (3, 16, 1), (1, 12, 1)]

    @pytest.mark.parametrize("name", sorted(matcher_images()))
    def test_members_match_naive_sort(self, name):
        self.check(name)

    @pytest.mark.parametrize("name", sorted(matcher_images()))
    def test_small_blocks_match_naive_sort(self, name, monkeypatch):
        # These images fit one product block and one partition; here each
        # candidate is a block of its own and two anchors share a partition.
        monkeypatch.setattr(denoise_module, "GEMM_BLOCK", 1)
        monkeypatch.setattr(denoise_module, "PARTITION_ROWS", 2)
        self.check(name)

    def check(self, name):
        img = matcher_images()[name]
        for p, k, sw in self.CONFIGS:
            c = cfg(patch_size=p, group_size=k, search_window=sw)
            table = patch_table(img, p)
            rows, cols = table.shape[:2]
            anchor_sets = [
                np.arange(cols),
                np.array([0, cols // 2, cols - 1]),
                np.unique(np.append(np.arange(0, cols, 3), cols - 1)),
            ]
            for r in range(rows):
                expected = {
                    q: [i * cols + j for i, j in naive_group(img, (r, q), c)] for q in range(cols)
                }
                for anchors in anchor_sets:
                    members = extract_group(table, sq_norms(table), r, anchors, c)
                    for row, q in zip(members, anchors):
                        got = row[row >= 0].tolist()
                        assert got == expected[q], (name, p, k, sw, r, q, anchors.size)


class TestGroupWeights:
    def test_zero_matrix_uniform_huge(self):
        c = cfg()
        w = group_weights(np.zeros(4), 4, c)  # spectrum of a 9x4 zero group
        expected = c.weight_constant * 2.0 * c.noise_sigma**2 / EPSILON
        np.testing.assert_allclose(w, expected)

    def test_hand_evaluated_formula(self):
        c = DenoiseConfig(noise_sigma=1.0, weight_constant=1.0)
        w = group_weights(np.array([10.0, 0.0]), 4, c)  # sigma = [10, 0], k = 4
        assert w[0] == pytest.approx(2.0 / np.sqrt(96.0), rel=1e-12)
        assert w[1] == pytest.approx(2.0 / 1e-16)
        assert w[0] <= w[1]

    def test_always_non_descending(self):
        rng = np.random.default_rng(2)
        c = cfg()
        for _ in range(50):
            w = group_weights(svd(rng.uniform(0, 255, size=(9, 6))).sigma, 6, c)
            assert np.all(np.diff(w) >= 0)


def naive_group(img, anchor, c):
    """Top-left corners of the group at ``anchor``, matched on the 2-D image:
    exact squared distance to every patch in the search window, a stable
    sort, and the anchor first."""
    p, sw = c.patch_size, c.search_window
    h, w = img.shape
    r, q = anchor
    cands = [
        (i, j)
        for i in range(max(0, r - sw), min(h - p, r + sw) + 1)
        for j in range(max(0, q - sw), min(w - p, q + sw) + 1)
    ]
    patch = img[r : r + p, q : q + p]
    dist = [((img[i : i + p, j : j + p] - patch) ** 2).sum() for i, j in cands]
    others = [cands[k] for k in np.argsort(dist, kind="stable") if cands[k] != (r, q)]
    return [(r, q)] + others[: c.group_size - 1]


def reference_denoise(img, c):
    """The denoiser written directly on the 2-D image with numpy only.

    Per anchor: the group from ``naive_group``, numpy SVD, closed-form shrinkage with
    the inverse-estimated-singular-value weights, and each member patch
    added back with a slice. Returns (output, group count).
    """
    p = c.patch_size
    h, w = img.shape

    def grid(last):
        g = list(range(0, last + 1, c.stride))
        return g if g[-1] == last else g + [last]

    acc, cnt = np.zeros_like(img), np.zeros_like(img)
    groups = 0
    for r in grid(h - p):
        for q in grid(w - p):
            members = naive_group(img, (r, q), c)
            y = np.column_stack([img[i : i + p, j : j + p].ravel() for i, j in members])
            u, s, vt = np.linalg.svd(y, full_matrices=False)
            k = len(members)
            s_clean = np.sqrt(np.maximum(s**2 - k * c.noise_sigma**2, 0.0))
            wts = c.weight_constant * np.sqrt(k) * c.noise_sigma**2 / (s_clean + EPSILON)
            x = (u * np.maximum(s - wts / 2.0, 0.0)) @ vt
            for col, (i, j) in enumerate(members):
                acc[i : i + p, j : j + p] += x[:, col].reshape(p, p)
                cnt[i : i + p, j : j + p] += 1.0
            groups += 1
    out = img.copy()
    covered = cnt > 0
    out[covered] = acc[covered] / cnt[covered]
    return np.clip(out, 0.0, 255.0), groups


# (seed, height, width, integer image, sigma, patch, group, window, stride)
REFERENCE_CASES = [
    (0, 12, 12, False, 20.0, 3, 4, 5, 1),
    (1, 9, 17, False, 15.0, 3, 6, 4, 2),
    (2, 17, 9, False, 30.0, 5, 8, 3, 3),
    (3, 10, 14, True, 25.0, 3, 5, 6, 1),
    (4, 8, 11, False, 10.0, 1, 3, 2, 1),
    (5, 7, 13, True, 40.0, 1, 5, 3, 3),
    (6, 13, 6, False, 5.0, 1, 1, 1, 4),
    (7, 11, 11, False, 20.0, 3, 16, 1, 1),
    (8, 14, 10, False, 12.0, 5, 20, 1, 2),
    (9, 6, 15, True, 35.0, 3, 12, 1, 3),
    (10, 16, 16, False, 20.0, 7, 16, 5, 3),
    (11, 12, 19, False, 8.0, 5, 9, 4, 4),
    (12, 7, 7, True, 20.0, 7, 4, 3, 1),
    (13, 15, 8, False, 50.0, 3, 2, 7, 2),
    (14, 10, 13, False, 1.0, 3, 7, 2, 1),
    (15, 5, 20, False, 20.0, 5, 10, 8, 1),
    (16, 18, 12, True, 15.0, 3, 19, 11, 4),
    (17, 9, 9, False, 25.0, 1, 9, 1, 2),
    (18, 13, 17, False, 30.0, 5, 25, 2, 3),
    (19, 8, 14, True, 20.0, 3, 1, 3, 2),
]


def reference_case(case):
    """The image and config of one ``REFERENCE_CASES`` entry."""
    seed, h, w, integer, sigma, p, k, sw, stride = case
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w)) if integer else rng.uniform(0, 255, size=(h, w))
    c = DenoiseConfig(noise_sigma=sigma, patch_size=p, group_size=k, search_window=sw, stride=stride)
    return img, c


class TestAgainstReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_naive_reference(self, case):
        img, c = reference_case(case)
        stats = DenoiseStats()
        out = denoise(img, c, stats=stats)
        ref, groups = reference_denoise(img.astype(float), c)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)
        assert stats.groups == groups


class TestDenoise:
    def test_tiny_noise_sigma_is_identity(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(10, 245, size=(16, 16))
        out = denoise(img, cfg(noise_sigma=1e-9))
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_identity_with_singleton_groups_stride_one(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(10, 245, size=(12, 12))
        out = denoise(img, cfg(noise_sigma=1e-9, group_size=1, stride=1))
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_reduces_variance_on_noisy_constant_image(self):
        rng = np.random.default_rng(5)
        clean = np.full((24, 24), 128.0)
        noisy = clean + rng.normal(0, 20, clean.shape)
        out = denoise(noisy, cfg())
        assert out.var() < noisy.var()

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 255, size=(16, 16))
        np.testing.assert_array_equal(denoise(img, cfg()), denoise(img, cfg()))

    def test_stats_collected(self):
        stats = DenoiseStats()
        denoise(np.full((8, 8), 50.0), cfg(), stats=stats)
        assert stats.groups == 36
        assert 0 <= stats.mean_rank <= 4

    def test_one_svd_per_group(self, monkeypatch):
        # Each anchor row makes exactly one stacked SVD call over all of its
        # groups. The second config's border windows hold fewer patches than
        # a group, so its rows mix group sizes.
        real_svd = np.linalg.svd
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 255, size=(12, 12))
        for c in (cfg(), cfg(group_size=6, search_window=1)):
            batches = []

            def counting_svd(a, *args, **kwargs):
                batches.append(int(np.prod(np.shape(a)[:-2])))
                return real_svd(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", counting_svd)
            stats = DenoiseStats()
            denoise(img, c, stats=stats)
            extent = 12 - c.patch_size + 1  # anchors per axis at stride 1
            assert stats.groups == extent * extent
            assert batches == [extent] * extent

    def test_padding_adds_no_rank(self):
        # At a noise level far below rounding, every singular value of a
        # random group survives, so each group's rank is min(p*p, k). For
        # 49 x 40 stacks, LAPACK returns the padding's zero singular values
        # at rounding level rather than exactly zero.
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 255, size=(20, 22))
        c = cfg(noise_sigma=1e-20, patch_size=7, group_size=40, search_window=3)
        stats = DenoiseStats()
        denoise(img, c, stats=stats)
        table = patch_table(img, 7)
        rows, cols = table.shape[:2]
        members = [extract_group(table, sq_norms(table), r, np.arange(cols), c) for r in range(rows)]
        sizes = np.concatenate([np.count_nonzero(m >= 0, axis=1) for m in members])
        assert stats.ranks == np.minimum(49, sizes).tolist()

    def test_rounding_level_values_are_not_rank(self):
        # Every group of alternating columns repeats one patch, so its rank
        # is 1; at a noise level far below rounding, the second singular
        # value LAPACK returns at rounding level survives shrinkage.
        img = np.tile(np.where(np.arange(20) % 2, 200.0, 50.0), (20, 1))
        c = cfg(noise_sigma=1e-20, patch_size=3, group_size=8, search_window=3, stride=1)
        stats = DenoiseStats()
        denoise(img, c, stats=stats)
        assert stats.groups == 324
        assert stats.ranks == [1] * 324

    def test_peak_memory_holds_one_patch_table(self):
        # The patch table is the one whole-image per-patch array; a second
        # one (per-patch sums, say) would double the peak.
        assert peak_in_patch_tables() < 2.5

    def test_huge_finite_entries_warn_nothing(self, monkeypatch):
        # The Gram expansion and the squared spectrum overflow; under the
        # suite's filterwarnings = error, a numpy warning would escape. Two
        # workers: a thread starts with numpy's default error state.
        monkeypatch.setattr(denoise_module, "WORKERS", 2)
        img = np.random.default_rng(10).uniform(1, 2, (16, 16)) * 1e200
        for c in (DenoiseConfig(noise_sigma=20.0), cfg()):
            np.testing.assert_array_equal(denoise(img, c), np.full((16, 16), 255.0))

    def test_patch_too_large(self):
        with pytest.raises(InvalidInputError):
            denoise(np.zeros((4, 4)), DenoiseConfig(noise_sigma=5.0, patch_size=7))


class TestRowPool:
    """Rows run on ``WORKERS`` threads at once and are summed in row order."""

    @staticmethod
    def run(monkeypatch, workers, img, c):
        monkeypatch.setattr(denoise_module, "WORKERS", workers)
        stats = DenoiseStats()
        return denoise(img, c, stats=stats), stats.ranks

    def test_output_does_not_depend_on_workers(self, monkeypatch):
        # Equal, not close: the sums are added in row order. A short switch
        # interval makes the threads interleave often.
        noisy = np.clip(128.0 + np.random.default_rng(12).normal(0.0, 20.0, (64, 64)), 0.0, 255.0)
        cases = [reference_case(case) for case in REFERENCE_CASES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for img, c in cases + [(noisy, DenoiseConfig(noise_sigma=20.0))]:
                out, ranks = self.run(monkeypatch, 1, img, c)
                for workers in (2, 3):
                    other, other_ranks = self.run(monkeypatch, workers, img, c)
                    np.testing.assert_array_equal(other, out)
                    assert other_ranks == ranks
        finally:
            sys.setswitchinterval(interval)

    def test_rows_run_on_threads(self, monkeypatch):
        # Thread objects, not idents: an exited thread's ident can be reused.
        real, threads = denoise_module.thin_svd, set()

        def recording_svd(y):
            threads.add(threading.current_thread())
            return real(y)

        monkeypatch.setattr(denoise_module, "thin_svd", recording_svd)
        self.run(monkeypatch, 3, np.zeros((16, 16)), cfg())
        assert len(threads) >= 3  # the caller and two threads of a batch

    def test_peak_memory_at_most_workers(self, monkeypatch):
        # Each row in flight holds its own distances, so the peak grows with
        # the rows in flight; at the most the module allows, whatever this
        # machine's CPUs, it stays within the one-patch-table bound.
        assert 1 <= denoise_module.WORKERS <= denoise_module.MAX_WORKERS
        monkeypatch.setattr(denoise_module, "WORKERS", denoise_module.MAX_WORKERS)
        assert peak_in_patch_tables() < 2.5

    @pytest.fixture
    def second_svd_fails(self, monkeypatch):
        # The second row to reach its SVD fails, on whichever thread runs it.
        real, calls = denoise_module.thin_svd, itertools.count()

        def failing_svd(y):
            if next(calls) == 1:
                raise NumericalFailureError("SVD did not converge")
            return real(y)

        monkeypatch.setattr(denoise_module, "thin_svd", failing_svd)
        monkeypatch.setattr(denoise_module, "WORKERS", 2)
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def test_worker_error_raised_after_join(self, second_svd_fails):
        with pytest.raises(NumericalFailureError, match="SVD did not converge"):
            denoise(np.zeros((16, 16)), cfg())

    def test_worker_error_exits_3_with_one_line(self, second_svd_fails, tmp_path, capsys):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((16, 16), 100.0))
        code = main(["denoise", "--in", str(src), "--out", str(dst), "--sigma", "10", "--patch", "3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not dst.exists()
        assert captured.err == "numerical error: SVD did not converge\n"

    def test_threads_joined_after_success(self, monkeypatch):
        before = threading.active_count()
        self.run(monkeypatch, 3, np.zeros((16, 16)), cfg())
        assert threading.active_count() == before


class TestPsnr:
    def test_identical_images_inf(self):
        img = np.ones((4, 4))
        assert psnr(img, img) == np.inf

    def test_max_difference_zero_db(self):
        assert psnr(np.zeros((4, 4)), np.full((4, 4), 255.0)) == pytest.approx(0.0)

    def test_unit_difference(self):
        a, b = np.zeros((4, 4)), np.ones((4, 4))
        assert psnr(a, b) == pytest.approx(10 * np.log10(255.0**2), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_demo_script_runs(tmp_path):
    """``scripts/denoise_demo.py`` writes its three PGMs and reports a gain."""
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "denoise_demo.py")
    # The subprocess imports the same wnnm package as this test, installed or not.
    src = os.path.dirname(os.path.dirname(wnnm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    prefix = tmp_path / "demo"
    run = subprocess.run([sys.executable, script, "--size", "24", "--prefix", str(prefix)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    for name in ("clean", "noisy", "denoised"):
        assert (tmp_path / f"demo_{name}.pgm").stat().st_size > 0
    noisy, denoised = (float(re.search(rf"PSNR {label}: *([-\d.]+) dB", run.stdout).group(1))
                       for label in ("noisy", "denoised"))
    assert denoised > noisy
