"""Composite training objective.

The survival part mixes a censoring cross-entropy term with extra weight on
uncensored cases. Each hazard row predicts from one visit, at grid step v,
and the eye is known to have survived to that visit, so the row's
likelihood is conditioned on survival through step v:

    L_surv = (1 - beta) * (-c * log S(tau | v))
             + beta * (-(1 - c) * [log S(tau - 1 | v) + log h(tau)])

    S(j | v) = prod_{v < i <= j} (1 - h(i)),   S(v | v) := 1,

with log arguments clamped at 1e-12. The simulator puts every visit
strictly before the eye's outcome step; a row whose visit is not (v >= tau)
is conditioned through step tau - 1 only and keeps just the outcome step's
term. Without the conditioning a row from a late visit would also have to
explain the eye's survival through the steps before that visit, which it
already knows; each of those terms pushes the row's hazards down, and most
for the eyes at highest risk, so late rows learn to under-rank the very
eyes a late prediction must find. This is the dynamic-prediction
likelihood of Dynamic-DeepHit (Lee et al., 2019), and both model kinds use
it: the baseline's row is its eye's last visit. With v = 0 it is the plain
likelihood from the first step.

The auxiliary part is a scale-free step-ahead error. Each position predicts
the next visit's image embedding; the target is that embedding,
gradient-stopped. Prediction and target are each scaled to unit length, and
the squared error between the two unit vectors is averaged over the valid
(position, next position) pairs:

    L_pred = mean_pairs || p / |p| - y / |y| ||^2  =  mean_pairs (2 - 2 cos(p, y))

The targets come from the same encoder that is being trained, so a plain
MSE has no fixed scale: the encoder can grow or shrink its embeddings, the
term grows or shrinks with them, and the prediction chases a target that
its own updates move. Normalized targets, as in BYOL (Grill et al., 2020)
and SimSiam (Chen & He, 2021), remove that freedom: the term lies in
[0, 4] whatever the embedding scale, so it cannot swamp the survival term.
A vector shorter than UNIT_FLOOR is divided by the floor instead,
which only defines the degenerate all-zero case (it maps to zero).

Scalar reference implementations live alongside the graph builders so tests
can hand-compute every value outside the graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from .config import JsonConfig
from .errors import ConfigError, DataError
from .model import ForwardPass
from .survival import EventOutcome

# Smallest vector length the step-ahead term divides by.
UNIT_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig(JsonConfig):
    beta: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")


def survival_loss(hazard: np.ndarray, outcome: EventOutcome,
                  beta: float = 0.15, start_step: int = 0) -> float:
    """Scalar survival loss for one hazard curve, conditioned on survival
    through ``start_step`` (reference implementation)."""
    h = np.asarray(hazard, dtype=float)
    tau = outcome.event_step
    if not 1 <= tau <= len(h):
        raise DataError(f"event step {tau} outside grid of {len(h)} steps")
    if start_step < 0:
        raise DataError(f"negative start step {start_step}")
    v = min(start_step, tau - 1)
    clamp = dg.LOG_CLAMP
    s = np.cumprod(1.0 - h[v:])              # s[k] = S(v + k + 1 | v)
    s_tau = max(float(s[tau - v - 1]), clamp)
    s_prev = 1.0 if tau == v + 1 else max(float(s[tau - v - 2]), clamp)
    c = 1.0 if outcome.censored else 0.0
    l_ce = -c * np.log(s_tau)
    l_unc = -(1.0 - c) * (np.log(s_prev) + np.log(max(float(h[tau - 1]), clamp)))
    return float((1.0 - beta) * l_ce + beta * l_unc)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    return v / np.maximum(norm, UNIT_FLOOR)


def step_ahead_loss(predicted: np.ndarray, targets: np.ndarray,
                    pair_valid: np.ndarray) -> float:
    """Scalar normalized step-ahead error over valid pairs; 0 when no pair exists."""
    pair_valid = np.asarray(pair_valid, dtype=bool)
    if not pair_valid.any():
        return 0.0
    diff = (_unit(np.asarray(predicted)) - _unit(np.asarray(targets)))[pair_valid]
    return float(np.mean(np.sum(diff * diff, axis=-1)))


def survival_loss_rows(hz: dg.Node, event_steps: np.ndarray, censored: np.ndarray,
                       cfg: LossConfig, start_steps: np.ndarray | None = None) -> dg.Node:
    """Mean survival loss over a (N, j_max) node of hazard rows.

    ``start_steps`` holds each row's visit step v (default 0); the row's
    likelihood is conditioned on survival through min(v, tau - 1).
    """
    n, j_max = hz.value.shape
    event_steps = np.asarray(event_steps)
    if np.any((event_steps < 1) | (event_steps > j_max)):
        raise DataError("event step outside grid")
    start = np.zeros(n, dtype=int) if start_steps is None else np.asarray(start_steps)
    if np.any(start < 0):
        raise DataError("negative start step")
    start = np.minimum(start, event_steps - 1)
    dt = hz.value.dtype
    steps = np.arange(1, j_max + 1)[None, :]
    tau = event_steps[:, None]
    cens = np.asarray(censored, dtype=bool)[:, None]
    after = steps > start[:, None]
    # log S(tau | v) and log S(tau - 1 | v) sum log(1 - h) over these steps
    sel_ce = (after & (steps <= tau) & cens).astype(dt)
    sel_s_unc = (after & (steps < tau) & ~cens).astype(dt)
    sel_h_unc = ((steps == tau) & ~cens).astype(dt)
    log_1mh = dg.log(1.0 - hz)
    l_ce = -dg.sum_all(log_1mh * dg.constant(sel_ce))
    l_unc = -(dg.sum_all(log_1mh * dg.constant(sel_s_unc))
              + dg.sum_all(dg.log(hz) * dg.constant(sel_h_unc)))
    return dg.scale(l_ce, (1.0 - cfg.beta) / n) + dg.scale(l_unc, cfg.beta / n)


def shifted_targets(fp: ForwardPass) -> np.ndarray:
    """Next-visit embedding targets aligned to each position (last row zero)."""
    targets = np.zeros_like(fp.node_eimg.value)
    targets[:, :-1] = fp.node_eimg.value[:, 1:]
    return targets


def step_ahead_loss_node(fp: ForwardPass,
                         frozen_targets: np.ndarray | None = None) -> dg.Node:
    """Graph normalized step-ahead error over valid pairs; a constant 0 without a pair.

    The target side is gradient-stopped. ``frozen_targets`` pins the targets
    to values from a reference forward pass, which is what a central
    finite-difference probe of this objective must differentiate against.
    """
    b, lt = fp.valid.shape
    pair = np.zeros((b, lt), dtype=bool)
    if lt > 1:
        pair[:, :-1] = fp.valid[:, :-1] & fp.valid[:, 1:]
    n_pairs = int(pair.sum())
    if n_pairs == 0:
        return dg.constant(np.zeros((), dtype=fp.node_step.value.dtype))
    targets = shifted_targets(fp) if frozen_targets is None else frozen_targets
    mask = pair[:, :, None].astype(fp.node_step.value.dtype)
    diff = dg.l2_normalize(fp.node_step, UNIT_FLOOR) - dg.constant(_unit(targets))
    sq = diff * diff * dg.constant(mask)
    return dg.scale(dg.sum_all(sq), 1.0 / n_pairs)


def sequence_loss(fp: ForwardPass, outcomes: list, cfg: LossConfig,
                  frozen_targets: np.ndarray | None = None) -> tuple[dg.Node, dict]:
    """Total longitudinal objective: survival + step-ahead, each batch-averaged."""
    b, lt = fp.valid.shape
    j_max = fp.node_hazards.value.shape[-1]
    flat_idx = np.flatnonzero(fp.valid.reshape(-1))
    rows = dg.gather_rows(dg.reshape(fp.node_hazards, (b * lt, j_max)), flat_idx)
    eye_of_row = flat_idx // lt
    steps = np.array([outcomes[i].event_step for i in eye_of_row])
    cens = np.array([outcomes[i].censored for i in eye_of_row])
    l_surv = survival_loss_rows(rows, steps, cens, cfg,
                                fp.visit_steps.reshape(-1)[flat_idx])
    l_pred = step_ahead_loss_node(fp, frozen_targets)
    return l_surv + l_pred, {"surv": float(l_surv.value), "pred": float(l_pred.value)}


def baseline_loss(fp: ForwardPass, outcomes: list, cfg: LossConfig,
                  visit_steps: np.ndarray | None = None) -> tuple[dg.Node, dict]:
    """Baseline objective: survival loss only, one hazard row per eye.

    ``visit_steps`` gives the grid step of each row's image (default 0).
    """
    steps = np.array([o.event_step for o in outcomes])
    cens = np.array([o.censored for o in outcomes])
    l_surv = survival_loss_rows(fp.node_hazards, steps, cens, cfg, visit_steps)
    return l_surv, {"surv": float(l_surv.value), "pred": 0.0}
