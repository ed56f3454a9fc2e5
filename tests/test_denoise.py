import numpy as np
import pytest

from wnnm import (
    DenoiseConfig,
    DenoiseStats,
    InvalidInputError,
    denoise,
    extract_group,
    group_weights,
    psnr,
)


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
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(InvalidInputError):
            DenoiseConfig(**kw)


class TestExtractGroup:
    def test_constant_image_all_columns_identical(self):
        img = np.full((10, 10), 42.0)
        g = extract_group(img, (2, 2), cfg())
        assert g.matrix.shape == (9, 4)
        assert np.all(g.matrix == 42.0)
        assert (0, 0) in g.member_offsets

    def test_group_size_one_is_anchor_patch(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(8, 8))
        g = extract_group(img, (1, 2), cfg(group_size=1))
        np.testing.assert_array_equal(g.matrix[:, 0], img[1:4, 2:5].ravel())
        assert g.member_offsets == [(0, 0)]

    def test_exact_duplicate_chosen_before_others(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(6, 12))
        img[1:4, 8:11] = img[1:4, 1:4]  # plant one exact duplicate
        g = extract_group(img, (1, 1), cfg(group_size=2, search_window=10))
        assert g.member_offsets == [(0, 0), (0, 7)]

    def test_anchor_out_of_bounds(self):
        with pytest.raises(InvalidInputError):
            extract_group(np.zeros((5, 5)), (4, 0), cfg())


class TestGroupWeights:
    def test_zero_matrix_uniform_huge(self):
        c = cfg()
        w = group_weights(np.zeros((9, 4)), c)
        expected = c.weight_constant * 2.0 * c.noise_sigma**2 / c.epsilon
        np.testing.assert_allclose(w, expected)

    def test_hand_evaluated_formula(self):
        c = DenoiseConfig(noise_sigma=1.0, weight_constant=1.0, epsilon=1e-16)
        m = np.zeros((2, 4))
        m[0, 0] = 10.0  # sigma = [10, 0], k = 4
        w = group_weights(m, c)
        assert w[0] == pytest.approx(2.0 / np.sqrt(96.0), rel=1e-12)
        assert w[1] == pytest.approx(2.0 / 1e-16)
        assert w[0] <= w[1]

    def test_always_non_descending(self):
        rng = np.random.default_rng(2)
        c = cfg()
        for _ in range(50):
            w = group_weights(rng.uniform(0, 255, size=(9, 6)), c)
            assert np.all(np.diff(w) >= 0)


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
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        stats = DenoiseStats()
        rng = np.random.default_rng(7)
        denoise(rng.uniform(0, 255, size=(12, 12)), cfg(), stats=stats)
        assert stats.groups > 0 and len(calls) == stats.groups

    def test_patch_too_large(self):
        with pytest.raises(InvalidInputError):
            denoise(np.zeros((4, 4)), DenoiseConfig(noise_sigma=5.0, patch_size=7))


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
