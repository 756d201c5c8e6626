import dataclasses

import numpy as np
import pytest

from longisurv import diffgraph as dg
from longisurv.errors import ConfigError, DataError
from longisurv.losses import (LossConfig, survival_loss,
                              step_ahead_loss, step_ahead_loss_node, shifted_targets,
                              survival_loss_rows, sequence_loss, baseline_loss)
from longisurv.model import forward_sequences, forward_single_images, init_params
from longisurv.survival import EventOutcome
from tests.conftest import tiny_config, random_batch


class TestSurvivalLossScalar:
    def test_censored_hand_value(self):
        # S(1) = 0.9, censored, beta 0.15 -> 0.85 * (-ln 0.9)
        loss = survival_loss(np.array([0.1, 0.2]), EventOutcome(1, True), beta=0.15)
        assert loss == pytest.approx(0.85 * -np.log(0.9), abs=1e-12)

    def test_uncensored_zeroes_main_term(self):
        h = np.array([0.3, 0.4, 0.2])
        out = EventOutcome(2, False)
        s = np.cumprod(1 - h)
        expected_unc = -(np.log(s[0]) + np.log(h[1]))
        assert survival_loss(h, out, beta=0.15) == pytest.approx(
            0.15 * expected_unc, abs=1e-12)

    def test_perfect_uncensored_prediction_is_near_zero(self):
        h = np.array([1 - 1e-12, 0.5])
        loss = survival_loss(h, EventOutcome(1, False), beta=0.15)
        assert abs(loss) < 1e-10

    def test_out_of_grid_event(self):
        with pytest.raises(DataError):
            survival_loss(np.array([0.1]), EventOutcome(2, False))

    def test_nonnegative_and_to_zero_for_perfect(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = rng.uniform(0.01, 0.99, size=8)
            tau = int(rng.integers(1, 9))
            c = bool(rng.random() < 0.5)
            assert survival_loss(h, EventOutcome(tau, c)) >= 0.0
        # indicator-perfect: hazard ~0 before tau, ~1 at tau
        h = np.full(8, 1e-9)
        h[4] = 1 - 1e-9
        assert survival_loss(h, EventOutcome(5, False)) < 1e-6

    def test_conditioned_hand_values(self):
        h = np.array([0.3, 0.4, 0.2, 0.5])
        # censored at step 3, seen alive at step 1: -ln[(1 - 0.4)(1 - 0.2)]
        assert survival_loss(h, EventOutcome(3, True), beta=0.15, start_step=1) == \
            pytest.approx(0.85 * -np.log(0.6 * 0.8), abs=1e-12)
        # event at step 4, seen alive at step 2: -[ln(1 - 0.2) + ln 0.5]
        assert survival_loss(h, EventOutcome(4, False), beta=0.15, start_step=2) == \
            pytest.approx(0.15 * -(np.log(0.8) + np.log(0.5)), abs=1e-12)
        # event in the step right after the visit: only -ln h(tau) remains
        assert survival_loss(h, EventOutcome(2, False), beta=0.15, start_step=1) == \
            pytest.approx(0.15 * -np.log(0.4), abs=1e-12)

    def test_conditioning_ignores_hazards_before_the_visit(self):
        h = np.array([0.3, 0.4, 0.2, 0.5])
        changed = h.copy()
        changed[:2] = [0.9, 0.01]
        for out in (EventOutcome(4, True), EventOutcome(4, False)):
            assert survival_loss(changed, out, start_step=2) == \
                survival_loss(h, out, start_step=2)
            assert survival_loss(changed, out) != survival_loss(h, out)

    def test_visit_at_or_after_outcome_keeps_the_outcome_term(self):
        h = np.array([0.1, 0.2, 0.3])
        # conditioned through step tau - 1 = 1 whatever the later visit step
        for start in (1, 2, 5):
            assert survival_loss(h, EventOutcome(2, True), beta=0.15, start_step=start) == \
                pytest.approx(0.85 * -np.log(0.8), abs=1e-12)
            assert survival_loss(h, EventOutcome(2, False), beta=0.15, start_step=start) == \
                pytest.approx(0.15 * -np.log(0.2), abs=1e-12)
        with pytest.raises(DataError):
            survival_loss(h, EventOutcome(2, True), start_step=-1)


class TestStepAheadScalar:
    def test_exact_prediction(self):
        x = np.ones((2, 3, 4))
        assert step_ahead_loss(x, x, np.ones((2, 3), dtype=bool)) == 0.0

    def test_single_visit_skipped(self):
        x = np.ones((1, 1, 4))
        assert step_ahead_loss(x, x * 2, np.zeros((1, 1), dtype=bool)) == 0.0

    def test_constant_half_offset(self):
        # prediction (0.5, ..., 0.5) in 6 dimensions has unit vector
        # (1/sqrt 6, ...); an all-zero target is shorter than the floor and
        # maps to zero, so the error is the unit vector's squared length, 1
        pred = np.full((1, 1, 6), 0.5)
        assert step_ahead_loss(pred, np.zeros_like(pred),
                               np.ones((1, 1), dtype=bool)) == pytest.approx(
                                   1.0, rel=1e-12)

    def test_hand_value_compares_unit_vectors(self):
        # pair 1: (3, 4)/5 = (0.6, 0.8) against (4, 3)/5 = (0.8, 0.6),
        #         squared distance 0.2^2 + 0.2^2 = 0.08
        # pair 2: (1, 0) against (0, 2)/2 = (0, 1), squared distance 2
        # the third pair is invalid and ignored
        pred = np.array([[[3.0, 4.0], [1.0, 0.0], [9.0, 9.0]]])
        targets = np.array([[[4.0, 3.0], [0.0, 2.0], [0.0, 0.0]]])
        pair_valid = np.array([[True, True, False]])
        assert step_ahead_loss(pred, targets, pair_valid) == pytest.approx(
            (0.08 + 2.0) / 2, rel=1e-12)

    @pytest.mark.parametrize("k", [1e-3, 0.37, 8.0, 1e4])
    def test_invariant_to_common_rescaling(self, rng, small_model, k):
        # the term is scale-free: multiplying predictions and targets by the
        # same k > 0 leaves it unchanged, in the reference and the graph node
        pred = rng.normal(size=(3, 4, 5))
        targets = rng.normal(size=(3, 4, 5))
        pair_valid = rng.random((3, 4)) < 0.6
        pair_valid[0, 0] = True
        ref = step_ahead_loss(pred, targets, pair_valid)
        assert step_ahead_loss(k * pred, k * targets, pair_valid) == pytest.approx(
            ref, rel=1e-12, abs=0.0)

        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 2, 4])
        fp = forward_sequences(params, cfg, batch)
        frozen = shifted_targets(fp)
        node = step_ahead_loss_node(fp, frozen)
        scaled = dataclasses.replace(fp, node_step=dg.scale(fp.node_step, k))
        node_k = step_ahead_loss_node(scaled, k * frozen)
        assert fp.node_step.value.dtype == np.float64
        assert float(node_k.value) == pytest.approx(float(node.value),
                                                    rel=1e-12, abs=0.0)


class TestLossConfig:
    def test_beta_default(self):
        assert LossConfig().beta == 0.15

    def test_beta_bounds(self):
        with pytest.raises(ConfigError):
            LossConfig(beta=1.5)


class TestGraphAgainstScalarReference:
    def test_survival_rows_match_reference(self, rng):
        n, j = 6, 9
        h = rng.uniform(0.05, 0.9, size=(n, j))
        steps = rng.integers(1, j + 1, size=n)
        cens = rng.random(n) < 0.5
        node = survival_loss_rows(dg.param(h, "h"), steps, cens, LossConfig())
        expected = np.mean([survival_loss(h[i], EventOutcome(int(steps[i]), bool(cens[i])))
                            for i in range(n)])
        assert float(node.value) == pytest.approx(expected, rel=1e-12)

    def test_conditioned_rows_match_reference(self, rng):
        n, j = 6, 9
        h = rng.uniform(0.05, 0.9, size=(n, j))
        steps = rng.integers(2, j + 1, size=n)
        cens = rng.random(n) < 0.5
        start = rng.integers(0, j + 1, size=n)      # some at or after their step
        node = survival_loss_rows(dg.param(h, "h"), steps, cens, LossConfig(), start)
        expected = np.mean([survival_loss(h[i], EventOutcome(int(steps[i]), bool(cens[i])),
                                          start_step=int(start[i])) for i in range(n)])
        assert float(node.value) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(DataError):
            survival_loss_rows(dg.param(h, "h"), steps, cens, LossConfig(), -start - 1)

    def test_sequence_loss_matches_hand_computation(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [3, 2])
        fp = forward_sequences(params, cfg, batch)
        total, parts = sequence_loss(fp, batch.outcomes, LossConfig())

        # independent recomputation outside the graph; visit k sits at grid
        # step k, so its row is conditioned on survival through step k
        surv_terms = []
        for i, j_i in enumerate(batch.lengths):
            for k in range(j_i):
                surv_terms.append(survival_loss(fp.hazards[i, k], batch.outcomes[i],
                                                start_step=k))
        pair_valid = np.zeros((2, 3), dtype=bool)
        pair_valid[0, :2] = True
        pair_valid[1, :1] = True
        eimg = fp.node_eimg.value
        targets = np.zeros_like(eimg)
        targets[:, :-1] = eimg[:, 1:]
        # scale-free step-ahead term: squared distance between the unit
        # prediction and the unit target, averaged over valid pairs
        p_v, y_v = fp.step_ahead[:, :3][pair_valid], targets[pair_valid]
        p_unit = p_v / np.linalg.norm(p_v, axis=1, keepdims=True)
        y_unit = y_v / np.linalg.norm(y_v, axis=1, keepdims=True)
        pred = np.mean(np.sum((p_unit - y_unit) ** 2, axis=1))
        assert step_ahead_loss(fp.step_ahead[:, :3], targets, pair_valid) == \
            pytest.approx(pred, rel=1e-12)
        assert float(total.value) == pytest.approx(np.mean(surv_terms) + pred, rel=1e-10)

    def test_pred_zero_when_single_visits(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [1, 1])
        fp = forward_sequences(params, cfg, batch)
        total, parts = sequence_loss(fp, batch.outcomes, LossConfig())
        assert parts["pred"] == 0.0
        assert float(total.value) == pytest.approx(parts["surv"], rel=1e-12)

    def test_baseline_loss_matches_reference(self, rng):
        cfg = tiny_config(kind="baseline")
        params = init_params(cfg, seed=4)
        imgs = rng.uniform(0, 1, (3, 1, 16, 16))
        outs = [EventOutcome(2, True), EventOutcome(5, False), EventOutcome(9, True)]
        fp = forward_single_images(params, cfg, imgs)
        node, _ = baseline_loss(fp, outs, LossConfig())
        expected = np.mean([survival_loss(fp.hazards[i], outs[i]) for i in range(3)])
        assert float(node.value) == pytest.approx(expected, rel=1e-12)
        # each image's row is conditioned on survival to its visit
        visits = np.array([1, 4, 0])
        node, _ = baseline_loss(fp, outs, LossConfig(), visits)
        expected = np.mean([survival_loss(fp.hazards[i], outs[i], start_step=int(visits[i]))
                            for i in range(3)])
        assert float(node.value) == pytest.approx(expected, rel=1e-12)


class TestGradientSignal:
    def test_beta_zero_removes_uncensored_signal(self, rng, small_model):
        cfg, params = small_model
        batch = random_batch(rng, cfg, [2, 3])
        batch.outcomes = [EventOutcome(3, False), EventOutcome(5, False)]
        fp = forward_sequences(params, cfg, batch)
        flat_idx = np.flatnonzero(fp.valid.reshape(-1))
        rows = dg.gather_rows(
            dg.reshape(fp.node_hazards, (-1, cfg.j_max)), flat_idx)
        eye_of_row = flat_idx // fp.valid.shape[1]
        steps = np.array([batch.outcomes[i].event_step for i in eye_of_row])
        cens = np.array([batch.outcomes[i].censored for i in eye_of_row])
        node = survival_loss_rows(rows, steps, cens, LossConfig(beta=0.0))
        dg.backward(node)
        for name, leaf in fp.leaves.items():
            if leaf.adjoint is not None:
                np.testing.assert_array_equal(
                    leaf.adjoint, 0.0,
                    err_msg=f"{name} got gradient from uncensored rows at beta=0")

    def test_full_sequence_loss_gradient_matches_finite_differences(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=11)
        batch = random_batch(rng, cfg, [2, 3])
        # the step-ahead target is gradient-stopped, so the differentiable
        # objective holds it fixed at the evaluation point
        base = forward_sequences(params, cfg, batch, train=False)
        frozen = shifted_targets(base)

        def f(p):
            fp = forward_sequences(p, cfg, batch, train=False)
            total, _ = sequence_loss(fp, batch.outcomes, LossConfig(),
                                     frozen_targets=frozen)
            return total, fp.leaves

        err = dg.grad_check(f, params, seed=1, n_coords=40)
        assert err < 1e-4, f"max relative error {err:.2e}"

    def test_baseline_loss_gradient_matches_finite_differences(self, rng):
        cfg = tiny_config(kind="baseline")
        params = init_params(cfg, seed=12)
        imgs = rng.uniform(0, 1, (3, 1, 16, 16))
        outs = [EventOutcome(1, False), EventOutcome(4, True), EventOutcome(9, False)]

        def f(p):
            fp = forward_single_images(p, cfg, imgs, train=False)
            node, _ = baseline_loss(fp, outs, LossConfig())
            return node, fp.leaves

        err = dg.grad_check(f, params, seed=2, n_coords=30)
        assert err < 1e-4, f"max relative error {err:.2e}"
