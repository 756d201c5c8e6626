import json

import numpy as np
import pytest

from longisurv import model
from longisurv.errors import ConfigError, DataError
from longisurv.model import (ModelConfig, SequenceBatch, ForwardPass, init_params, param_shapes,
                             forward_sequences, forward_single_images,
                             extract_attention, save_checkpoint, load_checkpoint,
                             KIND_BASELINE)
from tests.conftest import tiny_config, random_batch


class TestForwardContracts:
    def test_hazards_strictly_inside_unit_interval(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 5, 1])
        fp = forward_sequences(params, cfg, batch)
        hz = fp.hazards[batch.valid]
        assert np.all(hz > 0.0) and np.all(hz < 1.0)

    def test_attention_rows_sum_to_one_over_valid_keys(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [4, 2, 6])
        fp = forward_sequences(params, cfg, batch)
        for a in fp.attention:
            for i, j_i in enumerate(batch.lengths):
                rows = a[i, :, :j_i, :]
                np.testing.assert_allclose(rows[:, :, :j_i].sum(-1), 1.0, atol=1e-6)
                # causal: strictly-future keys carry exactly zero weight
                for q in range(j_i):
                    np.testing.assert_array_equal(rows[:, q, q + 1:], 0.0)

    def test_single_visit_sequence_masks_rest(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [1], l_pad=4)
        fp = forward_sequences(params, cfg, batch)
        assert np.all((fp.hazards[0, 0] > 0) & (fp.hazards[0, 0] < 1))
        # outputs end at the longest sequence, not at the padded length
        assert fp.hazards.shape == (1, 1, cfg.j_max)
        assert fp.step_ahead.shape == (1, 1, cfg.embed_dim)
        for a in fp.attention:
            assert a.shape == (1, cfg.n_heads, 1, 1)
        np.testing.assert_array_equal(fp.valid, [[True]])

    def test_causal_invariance_to_future_perturbation(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [5, 5])
        fp = forward_sequences(params, cfg, batch, train=False, seed=0)
        tampered = SequenceBatch(images=batch.images.copy(),
                                 visit_months=batch.visit_months,
                                 valid=batch.valid, outcomes=batch.outcomes)
        tampered.images[:, 2] = rng.uniform(0, 1, tampered.images[:, 2].shape)
        fp2 = forward_sequences(params, cfg, tampered, train=False, seed=0)
        np.testing.assert_array_equal(fp.hazards[:, :2], fp2.hazards[:, :2])
        assert not np.array_equal(fp.hazards[:, 2], fp2.hazards[:, 2])

    def test_padding_invariance_bit_exact(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 2])
        fp = forward_sequences(params, cfg, batch)
        padded = random_batch(rng, cfg, [3, 2], l_pad=7)
        padded.images[:, :3] = batch.images
        padded.visit_months[:, :3] = batch.visit_months
        fp2 = forward_sequences(params, cfg, padded)
        np.testing.assert_array_equal(fp.hazards, fp2.hazards[:, :3])
        np.testing.assert_array_equal(fp.step_ahead, fp2.step_ahead[:, :3])

    def test_train_mode_deterministic_given_seed(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [4, 3])
        a = forward_sequences(params, cfg, batch, train=True, seed=5)
        b = forward_sequences(params, cfg, batch, train=True, seed=5)
        np.testing.assert_array_equal(a.hazards, b.hazards)
        c = forward_sequences(params, cfg, batch, train=True, seed=6)
        assert not np.array_equal(a.hazards, c.hazards)

    def test_non_prefix_mask_rejected(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 3])
        batch.valid[0] = [True, False, True]
        with pytest.raises(DataError):
            forward_sequences(params, cfg, batch)

    def test_non_increasing_months_rejected(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 3])
        batch.visit_months[0] = [0, 12, 12]
        with pytest.raises(DataError):
            forward_sequences(params, cfg, batch)


class TestBaseline:
    def test_identical_images_identical_curves(self, rng):
        cfg = tiny_config(kind=KIND_BASELINE)
        params = init_params(cfg, seed=2)
        img = rng.uniform(0, 1, (1, 1, 16, 16))
        fp = forward_single_images(params, cfg, np.concatenate([img, img]))
        np.testing.assert_array_equal(fp.hazards[0], fp.hazards[1])
        assert fp.hazards.shape == (2, cfg.j_max)

    def test_baseline_params_have_no_sequence_machinery(self):
        cfg = tiny_config(kind=KIND_BASELINE)
        params = init_params(cfg, seed=0)
        assert not any(k.startswith("tr") for k in params)
        assert "head.step.w" not in params

    def test_kind_mismatch_rejected(self, rng, small_model):
        cfg, params = small_model
        with pytest.raises(ConfigError):
            forward_single_images(params, cfg, rng.uniform(0, 1, (2, 1, 16, 16)))


class TestAttentionExtraction:
    def test_single_visit_scores_one(self, rng, small_model):
        cfg, params = small_model
        fp = forward_sequences(params, cfg, random_batch(rng, cfg, [1, 4]))
        np.testing.assert_array_equal(extract_attention(fp, 0), [1.0])

    def test_scores_normalized_max_one(self, rng, small_model):
        cfg, params = small_model
        fp = forward_sequences(params, cfg, random_batch(rng, cfg, [6, 5, 3]))
        for i in range(3):
            scores = extract_attention(fp, i)
            assert scores.max() == 1.0
            assert np.all(scores > 0.0) and np.all(scores <= 1.0)

    def test_no_valid_visit_is_data_error(self):
        fp = ForwardPass(hazards=None, step_ahead=None,
                         attention=[np.zeros((1, 2, 3, 3))],
                         valid=np.zeros((1, 3), dtype=bool))
        with pytest.raises(DataError):
            extract_attention(fp, 0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, small_model):
        cfg, params = small_model
        record = {"model": cfg.to_dict(), "seed": 3,
                  "pixel_mean": [0.31], "pixel_std": [0.22]}
        save_checkpoint(str(tmp_path / "ck"), params, record)
        loaded, rec = load_checkpoint(str(tmp_path / "ck"))
        assert rec == record
        assert list(loaded) == list(params)
        for k in params:
            assert loaded[k].dtype == params[k].dtype
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_float32_round_trip(self, tmp_path):
        cfg = tiny_config(dtype="float32")
        params = init_params(cfg, seed=9)
        save_checkpoint(str(tmp_path / "ck"), params, {
            "model": cfg.to_dict(), "pixel_mean": [0.31], "pixel_std": [0.22]})
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        for k in params:
            assert loaded[k].dtype == np.float32
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_reload_forward_identical(self, tmp_path, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 4])
        save_checkpoint(str(tmp_path / "ck"), params, {
            "model": cfg.to_dict(), "pixel_mean": [0.31], "pixel_std": [0.22]})
        loaded, rec = load_checkpoint(str(tmp_path / "ck"))
        cfg2 = ModelConfig.from_dict(rec["model"])
        a = forward_sequences(params, cfg, batch)
        b = forward_sequences(loaded, cfg2, batch)
        np.testing.assert_array_equal(a.hazards, b.hazards)

    @pytest.mark.parametrize("dtype, tag", [("float64", "<f8"), ("float32", "<f4")])
    def test_blob_is_init_params_order_little_endian(self, tmp_path, dtype, tag):
        cfg = tiny_config(dtype=dtype)
        params = init_params(cfg, seed=4)
        record = {"model": cfg.to_dict(), "pixel_mean": [0.31], "pixel_std": [0.22]}
        save_checkpoint(str(tmp_path / "ck"), params, record)
        blob = (tmp_path / "ck" / "params.bin").read_bytes()
        assert blob == b"".join(p.astype(tag).tobytes() for p in params.values())
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["config.json",
                                                                      "params.bin"]

        reversed_params = dict(reversed(list(params.items())))
        save_checkpoint(str(tmp_path / "rev"), reversed_params, record)
        assert (tmp_path / "rev" / "params.bin").read_bytes() == blob
        loaded, _ = load_checkpoint(str(tmp_path / "rev"))
        assert list(loaded) == list(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_record_without_layout_is_data_error(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        save_checkpoint(str(tmp_path / "ck"), params, {
            "model": cfg.to_dict(), "pixel_mean": [0.31], "pixel_std": [0.22]})
        path = tmp_path / "ck" / "config.json"
        record = json.loads(path.read_text())
        assert record.pop("layout") == {k: list(p.shape) for k, p in params.items()}
        path.write_text(json.dumps(record))
        with pytest.raises(DataError, match="config.json"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_checkpoint_io_draws_nothing(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        monkeypatch.setattr(model, "stream", lambda *a: pytest.fail("a seeded draw"))
        save_checkpoint(str(tmp_path / "ck"), params, {
            "model": cfg.to_dict(), "pixel_mean": [0.31], "pixel_std": [0.22]})
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        assert list(loaded) == list(params)

    def test_missing_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(str(tmp_path / "nope"))


class TestEncoderDepth:
    @pytest.mark.parametrize("widths", [(4, 8), (4, 4, 8, 8)], ids=["two_blocks", "four_blocks"])
    @pytest.mark.parametrize("kind", ["longitudinal", "baseline"])
    def test_any_block_count_builds_and_runs(self, rng, kind, widths):
        cfg = tiny_config(kind=kind, conv_widths=widths)        # 16-pixel images
        params = init_params(cfg, seed=2)
        assert params["enc.fc.w"].shape == (widths[-1] * (16 >> len(widths)) ** 2, 16)
        batch = random_batch(rng, cfg, [3, 1])
        if kind == "longitudinal":
            hz = forward_sequences(params, cfg, batch).hazards
        else:
            hz = forward_single_images(params, cfg, batch.images[:, 0]).hazards
        assert hz.shape[0] == 2 and hz.shape[-1] == cfg.j_max
        assert np.all((hz > 0.0) & (hz < 1.0))


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="cox")

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=30, n_heads=4)

    @pytest.mark.parametrize("over, named", [
        ({"embed_dim": 0}, "embed_dim"), ({"n_layers": -1}, "n_layers"),
        ({"ff_mult": 0}, "ff_mult"), ({"j_max": 0}, "j_max"), ({"step_months": 0}, "step_months"),
        ({"image_size": 0}, "image_size"), ({"image_channels": 0}, "image_channels"),
        ({"conv_widths": (0, 4, 4)}, "conv_widths"), ({"dropout": 1.0}, "dropout"),
        ({"dropout": -0.1}, "dropout")])
    def test_unbuildable_values_named(self, over, named):
        with pytest.raises(ConfigError, match=named):
            ModelConfig(**over)


class TestInitialization:
    def test_every_parameter_gets_a_gradient(self, rng, small_model):
        # a parameter whose gradient is identically zero (such as an
        # attention key bias, which the softmax cancels) is dead weight
        from longisurv import diffgraph as dg
        from longisurv.losses import LossConfig, sequence_loss
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 2])
        fp = forward_sequences(params, cfg, batch)
        total, _ = sequence_loss(fp, batch.outcomes, LossConfig())
        dg.backward(total)
        for name, leaf in fp.leaves.items():
            assert leaf.adjoint is not None and np.abs(leaf.adjoint).max() > 1e-12, name

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("widths", [(8,), (4, 8), (2, 4, 4, 8)],
                             ids=["one_block", "two_blocks", "four_blocks"])
    @pytest.mark.parametrize("kind", ["longitudinal", "baseline"])
    def test_param_shapes_are_the_initialized_layout(self, kind, widths, n_layers):
        cfg = tiny_config(kind=kind, conv_widths=widths, n_layers=n_layers)
        params = init_params(cfg, seed=1)
        assert list(param_shapes(cfg).items()) == [(k, v.shape) for k, v in params.items()]

    def test_survival_head_starts_with_one_shared_column(self):
        for kind in ("longitudinal", "baseline"):
            cfg = tiny_config(kind=kind)
            w = init_params(cfg, seed=3)["head.surv.w"]
            assert w.shape == (cfg.embed_dim, cfg.j_max)
            np.testing.assert_array_equal(w, np.repeat(w[:, :1], cfg.j_max, axis=1))
            assert np.abs(w).max() > 0.0
