import numpy as np
import pytest

from longisurv import diffgraph as dg
from longisurv.encoders import (AUG_MAX_SHIFT, AUG_NOISE_SIGMA, temporal_encode,
                                encode_images,
                                conv_encoder_param_shapes, augment_images,
                                pixel_stats, standardize)
from longisurv.errors import ConfigError, DataError
from longisurv.model import init_params
from tests.conftest import tiny_config


class TestTemporalEncode:
    def test_time_zero(self):
        np.testing.assert_allclose(temporal_encode(0.0, 4), [0, 1, 0, 1])

    def test_six_months_d4(self):
        row = temporal_encode(6.0, 4)
        expected = [np.sin(6), np.cos(6), np.sin(0.06), np.cos(0.06)]
        np.testing.assert_allclose(row, expected, rtol=1e-12)
        np.testing.assert_allclose(row, [-0.2794, 0.9602, 0.05996, 0.99820],
                                   atol=5e-5)

    def test_lowest_frequency_periodicity(self):
        v0 = 17.0
        a = temporal_encode(v0, 4)
        b = temporal_encode(v0 + 2 * np.pi * 10000, 4)
        np.testing.assert_allclose(a[2:], b[2:], atol=1e-9)

    def test_entries_bounded(self):
        rows = temporal_encode(np.arange(0, 170, 3.5), 64)
        assert np.all(np.abs(rows) <= 1.0)

    def test_grid_times_distinct(self):
        for step, d in [(6, 4), (6, 64), (12, 64)]:
            months = np.arange(0, 169, step, dtype=float)
            rows = temporal_encode(months, d)
            for i in range(len(months)):
                for j in range(i + 1, len(months)):
                    assert not np.allclose(rows[i], rows[j], atol=1e-9)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            temporal_encode(6.0, 5)

    def test_negative_time_rejected(self):
        with pytest.raises(DataError):
            temporal_encode(-1.0, 4)


class TestGapEncoding:
    def test_zero_gap(self):
        np.testing.assert_allclose(temporal_encode(0.0, 6), [0, 1, 0, 1, 0, 1])

    def test_twelve_month_gap(self):
        row = temporal_encode(12.0, 4)
        np.testing.assert_allclose(
            row, [np.sin(12), np.cos(12), np.sin(0.12), np.cos(0.12)], rtol=1e-12)

    def test_gaps_distinguishable(self):
        assert not np.allclose(temporal_encode(6.0, 4), temporal_encode(12.0, 4))

    def test_negative_gap_is_data_error(self):
        with pytest.raises(DataError):
            temporal_encode(-6.0, 4)


class TestImageEncoder:
    def _embed(self, images, cfg, params):
        leaves = {k: dg.param(v, k) for k, v in params.items()}
        return encode_images(dg.constant(images), leaves).value

    def test_eval_mode_is_pure(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        imgs = rng.uniform(0, 1, (3, 1, 16, 16))
        a = self._embed(imgs, cfg, params)
        b = self._embed(imgs, cfg, params)
        np.testing.assert_array_equal(a, b)

    def test_identical_images_identical_embeddings(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        one = rng.uniform(0, 1, (1, 1, 16, 16))
        out = self._embed(np.concatenate([one, one]), cfg, params)
        np.testing.assert_array_equal(out[0], out[1])

    def test_zero_images_map_to_same_vector(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=1)
        out = self._embed(np.zeros((2, 1, 16, 16)), cfg, params)
        np.testing.assert_array_equal(out[0], out[1])

    def test_param_shapes_cover_resolution(self):
        shapes = conv_encoder_param_shapes(1, 32, 64, (8, 16, 32))
        assert shapes["enc.fc.w"] == (32 * 16, 64)
        with pytest.raises(ConfigError):
            conv_encoder_param_shapes(1, 20, 64, (8, 16, 32))


def augment_images_per_image(images, rng):
    """Reference augmentation: one image at a time, a roll then a noise draw each."""
    out = images.copy()
    n = out.shape[0]
    noise_on = rng.random(n) < 0.5
    shift_on = rng.random(n) < 0.5
    shifts = rng.integers(-AUG_MAX_SHIFT, AUG_MAX_SHIFT + 1, size=(n, 2))
    for k in range(n):
        if shift_on[k]:
            dy, dx = int(shifts[k, 0]), int(shifts[k, 1])
            out[k] = np.roll(out[k], (dy, dx), axis=(-2, -1))
        if noise_on[k]:
            out[k] = out[k] + rng.normal(0.0, AUG_NOISE_SIGMA, size=out[k].shape)
    return np.clip(out, 0.0, 1.0)


class TestPixelPipeline:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("shape, dtype", [
        ((96, 1, 32, 32), np.float32), ((24, 3, 16, 16), np.float32),
        ((9, 2, 8, 12), np.float64), ((1, 1, 8, 8), np.float32),
    ], ids=["desk", "three_channels", "float64_nonsquare", "one_image"])
    def test_augment_equals_per_image_loop(self, seed, shape, dtype):
        imgs = np.random.default_rng(100 + seed).uniform(0, 1, shape).astype(dtype)
        imgs[1::3] = 0.0                        # padded slots, as prepare_batch leaves them
        a = augment_images(imgs, np.random.default_rng(seed))
        b = augment_images_per_image(imgs, np.random.default_rng(seed))
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    def test_augment_stays_in_range_and_shape(self, rng):
        imgs = rng.uniform(0, 1, (10, 1, 16, 16)).astype(np.float32)
        out = augment_images(imgs, np.random.default_rng(5))
        assert out.shape == imgs.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_augment_deterministic_given_seed(self, rng):
        imgs = rng.uniform(0, 1, (6, 1, 16, 16))
        a = augment_images(imgs, np.random.default_rng(42))
        b = augment_images(imgs, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_standardize_round_trip(self, rng):
        imgs = rng.uniform(0, 1, (20, 1, 8, 8))
        mean, std = pixel_stats(imgs)
        z = standardize(imgs, mean, std)
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-6
