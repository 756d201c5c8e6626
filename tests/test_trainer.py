import weakref

import numpy as np
import pytest

from longisurv import trainer as tr
from longisurv.metrics import ModelScorer, OracleScorer, build_risk_cells
from longisurv.errors import NumericalError
from longisurv.model import ModelConfig
from longisurv.synthcohort import CohortConfig, generate_cohort, split_patients
from longisurv.trainer import (TrainConfig, TrainingSchedule, AdamState,
                               adam_step, baseline_batch_size, train,
                               write_history)


def smoke_cohort(n_patients=40, seed=13):
    cfg = CohortConfig(n_patients=n_patients, seed=seed, target_censoring=0.6,
                       hazard_intercept=-10.0)
    eyes = generate_cohort(cfg)
    return split_patients(eyes, seed=seed), cfg


def smoke_model(**over):
    base = dict(kind="longitudinal", embed_dim=8, n_layers=1, n_heads=2,
                dropout=0.25, j_max=27, step_months=6, image_size=32,
                conv_widths=(2, 4, 4))
    base.update(over)
    return ModelConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        adam_step(params, {"w": np.zeros(2)}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        params = {"w": np.zeros(3)}
        g = np.array([0.5, -3.0, 10.0])
        adam_step(params, {"w": g}, AdamState(), lr=1e-3)
        np.testing.assert_allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-4)

    def test_non_finite_gradient_names_tensor(self):
        params = {"enc.w": np.ones(2)}
        with pytest.raises(NumericalError, match="enc.w"):
            adam_step(params, {"enc.w": np.array([1.0, np.inf])}, AdamState(), 0.1)

    def test_quadratic_descent(self):
        params = {"x": np.array([3.0, -4.0, 5.0])}
        state = AdamState()
        losses = []
        for _ in range(100):
            losses.append(float((params["x"] ** 2).sum()))
            adam_step(params, {"x": 2 * params["x"]}, state, lr=0.05)
        assert all(b < a for a, b in zip(losses[5:], losses[6:]))
        assert losses[-1] < losses[0]


class TestSchedule:
    def test_spec_scenario_stop_and_restore(self):
        cfg = TrainConfig(patience=10)
        sched = TrainingSchedule(cfg)
        metrics = [0.5, 0.6] + [0.55] * 15
        stopped_at = None
        for epoch, m in enumerate(metrics, start=1):
            sched.update(epoch, m)
            if sched.should_stop:
                stopped_at = epoch
                break
        assert stopped_at == 12
        assert sched.best_epoch == 2

    def test_plateau_halving_epochs(self):
        cfg = TrainConfig(patience=10, lr=1e-4)
        sched = TrainingSchedule(cfg)
        lrs = []
        for epoch, m in enumerate([0.5, 0.6] + [0.55] * 10, start=1):
            lrs.append(sched.lr)        # lr in effect during this epoch
            sched.update(epoch, m)
            if sched.should_stop:
                break
        # stagnant from epoch 3; halvings land after epochs 5, 8 and 11
        assert lrs == [1e-4] * 5 + [5e-5] * 3 + [2.5e-5] * 3 + [1.25e-5]

    def test_improvement_mid_plateau_restarts_halving_count(self):
        sched = TrainingSchedule(TrainConfig(patience=10, lr=1e-4))
        lrs = []
        for epoch, m in enumerate([0.5, 0.4, 0.4, 0.6] + [0.5] * 4, start=1):
            lrs.append(sched.lr)
            sched.update(epoch, m)
        # two stagnant epochs, a new best at epoch 4, then stagnant from epoch 5:
        # the only halving lands after epoch 7
        assert lrs == [1e-4] * 7 + [5e-5]

    def test_ties_are_not_improvements(self):
        sched = TrainingSchedule(TrainConfig(patience=2))
        assert sched.update(1, 0.7)
        assert not sched.update(2, 0.7)
        assert not sched.update(3, 0.7)
        assert sched.should_stop

    def test_nan_metric_is_not_improvement(self):
        sched = TrainingSchedule(TrainConfig())
        assert not sched.update(1, float("nan"))


class TestParity:
    def test_baseline_sees_same_images_per_minibatch(self):
        cfg = TrainConfig(batch_size_sequences=32)
        assert baseline_batch_size(cfg, 14) == 448


@pytest.fixture(scope="module")
def splits():
    return smoke_cohort()


class TestTrainLoop:
    def test_smoke_run_and_history(self, splits):
        (train_eyes, val_eyes, _), _ = splits
        res = train(train_eyes, val_eyes, smoke_model(),
                    TrainConfig(max_epochs=3, seed=1))
        assert len(res.history) == 3
        assert not res.diverged
        finite = [h["val_metric"] for h in res.history
                  if np.isfinite(h["val_metric"])]
        assert res.best_metric == max(finite)
        assert res.record["best_epoch"] == res.best_epoch
        assert set(res.history[0]) == {"epoch", "train_loss", "val_metric", "lr", "surv",
                                       "pred"}

    @pytest.mark.parametrize("kind", ["longitudinal", "baseline"])
    def test_history_splits_the_loss_into_its_parts(self, splits, monkeypatch, kind):
        (train_eyes, val_eyes, _), _ = splits
        steps = []
        loss_fn = "sequence_loss" if kind == "longitudinal" else "baseline_loss"
        real = getattr(tr, loss_fn)

        def recording(*args, **kwargs):
            node, parts = real(*args, **kwargs)
            steps.append(parts)
            return node, parts

        monkeypatch.setattr(tr, loss_fn, recording)
        res = train(train_eyes, val_eyes, smoke_model(kind=kind),
                    TrainConfig(max_epochs=2, seed=1))
        per_epoch = len(steps) // 2
        for h, epoch_steps in zip(res.history, (steps[:per_epoch], steps[per_epoch:])):
            assert h["surv"] == float(np.mean([p["surv"] for p in epoch_steps]))
            assert h["pred"] == float(np.mean([p["pred"] for p in epoch_steps]))
            assert h["surv"] + h["pred"] == pytest.approx(h["train_loss"], rel=1e-5)
            assert (h["pred"] > 0) == (kind == "longitudinal")

    @pytest.mark.parametrize("kind", ["longitudinal", "baseline"])
    def test_best_val_metric_is_the_kept_params_score(self, splits, caplog, kind):
        (train_eyes, val_eyes, _), cfg = splits
        with caplog.at_level("INFO", logger=tr.log.name):
            res = train(train_eyes, val_eyes, smoke_model(kind=kind),
                        TrainConfig(max_epochs=3, seed=1))
        cells = build_risk_cells(ModelScorer(res.params, res.record), val_eyes, cfg.grid)
        with_pair = [c.concordance() for c in cells.values() if c.n_pairs]
        assert res.history[res.best_epoch - 1]["val_metric"] == float(np.mean(with_pair))
        # the cells without a pair are counted once per run, not once per epoch
        n_empty = len(cells) - len(with_pair)
        skips = [r.getMessage() for r in caplog.records if "comparable pair" in r.getMessage()]
        assert skips == ([f"validation metric skips {n_empty} grid cells without a "
                          "comparable pair"] if n_empty else [])

    def test_lr_sequence_nonincreasing(self, splits, monkeypatch):
        (train_eyes, val_eyes, _), _ = splits
        monkeypatch.setattr(tr, "PLATEAU_PATIENCE", 1)
        res = train(train_eyes, val_eyes, smoke_model(),
                    TrainConfig(max_epochs=6, seed=3))
        lrs = [h["lr"] for h in res.history]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_same_seed_identical_runs(self, splits):
        (train_eyes, val_eyes, _), _ = splits
        cfg = TrainConfig(max_epochs=2, seed=7)
        a = train(train_eyes, val_eyes, smoke_model(), cfg)
        b = train(train_eyes, val_eyes, smoke_model(), cfg)
        assert a.history == b.history
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_baseline_kind_trains(self, splits):
        (train_eyes, val_eyes, _), _ = splits
        res = train(train_eyes, val_eyes, smoke_model(kind="baseline"),
                    TrainConfig(max_epochs=2, seed=2))
        assert len(res.history) == 2
        assert not any(k.startswith("tr") for k in res.params)

    def test_baseline_rows_start_at_their_last_visit(self, splits, monkeypatch):
        (train_eyes, val_eyes, _), _ = splits
        seen = []
        real = tr.baseline_loss

        def recording(fp, outcomes, cfg, visit_steps=None):
            seen.extend(zip([o.event_step for o in outcomes], visit_steps))
            return real(fp, outcomes, cfg, visit_steps)

        monkeypatch.setattr(tr, "baseline_loss", recording)
        train(train_eyes, val_eyes, smoke_model(kind="baseline"),
              TrainConfig(max_epochs=1, seed=4))
        expected = sorted((e.outcome.event_step, e.visit_months[-1] // 6)
                          for e in train_eyes)
        assert sorted(seen) == expected
        assert all(v < tau for tau, v in seen)

    @pytest.mark.parametrize("kind, forward", [("longitudinal", "forward_sequences"),
                                               ("baseline", "forward_single_images")])
    def test_no_graph_outlives_its_step(self, splits, monkeypatch, kind, forward):
        # the hazards array is the value of a graph node the loss reaches, so
        # it dies only with the step's graph
        (train_eyes, val_eyes, _), _ = splits
        refs, alive = [], []
        real_forward, real_scorer = getattr(tr, forward), tr.ModelScorer

        def recording_forward(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            fp = real_forward(*args, **kwargs)
            refs.extend((weakref.ref(fp), weakref.ref(fp.hazards)))
            return fp

        def recording_scorer(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return real_scorer(*args)

        monkeypatch.setattr(tr, forward, recording_forward)
        monkeypatch.setattr(tr, "ModelScorer", recording_scorer)
        train(train_eyes, val_eyes, smoke_model(kind=kind),
              TrainConfig(max_epochs=2, seed=6, batch_size_sequences=1))
        assert len(alive) > 6 and alive == [0] * len(alive)

    def test_divergence_aborts_with_best_params(self, splits, monkeypatch):
        (train_eyes, val_eyes, _), _ = splits
        from longisurv import diffgraph as dg

        calls = {"n": 0}
        real = tr.sequence_loss

        def exploding(fp, outcomes, cfg, frozen_targets=None):
            calls["n"] += 1
            if calls["n"] >= 2:
                return dg.constant(np.array(np.inf)), {"surv": np.inf, "pred": 0.0}
            return real(fp, outcomes, cfg, frozen_targets)

        monkeypatch.setattr(tr, "sequence_loss", exploding)
        res = train(train_eyes, val_eyes, smoke_model(),
                    TrainConfig(max_epochs=3, seed=5))
        assert res.diverged
        assert res.params is not None

    @pytest.mark.parametrize("exit_path, stopped", [("last_epoch", 4), ("early_stop", 3),
                                                    ("divergence", 3)])
    def test_stopped_epoch_on_each_exit_path(self, splits, monkeypatch, exit_path, stopped):
        # the oracle scores validation, so the metric never improves after epoch 1
        (train_eyes, val_eyes, _), _ = splits
        from longisurv import diffgraph as dg

        validations = []
        real = tr.sequence_loss

        def scorer(params, record):
            validations.append(params)
            return OracleScorer()

        def loss(*args, **kwargs):
            if exit_path == "divergence" and len(validations) == 2:
                return dg.constant(np.array(np.nan)), {"surv": np.nan, "pred": 0.0}
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "ModelScorer", scorer)
        monkeypatch.setattr(tr, "sequence_loss", loss)
        patience = 2 if exit_path == "early_stop" else 10
        res = train(train_eyes, val_eyes, smoke_model(),
                    TrainConfig(max_epochs=4, patience=patience, seed=5))
        assert res.stopped_epoch == stopped
        assert res.diverged == (exit_path == "divergence")
        assert len(res.history) == len(validations) == stopped - res.diverged
        assert res.best_epoch == 1


def test_history_writer_deterministic(tmp_path):
    rows = [{"epoch": 1, "train_loss": 0.5, "val_metric": 0.71, "lr": 1e-4, "surv": 0.3,
             "pred": 0.2},
            {"epoch": 2, "train_loss": 0.41, "val_metric": 0.74, "lr": 1e-4, "surv": 0.25,
             "pred": 0.16},
            {"epoch": 3, "train_loss": 0.4, "val_metric": float("nan"), "lr": 1, "surv": 0.4,
             "pred": 0.0}]
    write_history(str(tmp_path / "a.tsv"), rows)
    write_history(str(tmp_path / "b.tsv"), rows)
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    lines = (tmp_path / "a.tsv").read_text().splitlines()
    assert lines[0] == "epoch\ttrain_loss\tval_metric\tlr\tsurv\tpred"
    # the writer formats a NaN as nan; an int lr from a --config stays an int
    assert (tmp_path / "a.tsv").read_text() == (
        "epoch\ttrain_loss\tval_metric\tlr\tsurv\tpred\n1\t0.5\t0.71\t0.0001\t0.3\t0.2\n"
        "2\t0.41\t0.74\t0.0001\t0.25\t0.16\n3\t0.4\tnan\t1\t0.4\t0.0\n")
