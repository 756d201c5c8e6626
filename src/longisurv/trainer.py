"""Optimization loop for both model kinds.

Each epoch shuffles the training eyes (epoch index XOR run seed), walks
minibatches of 32 sequences (the baseline sees 32 * l single images per
minibatch so both kinds consume the same number of image slots), applies
the composite loss, and takes Adam steps. The validation metric is the
mean concordance over the cells of the fixed grid ``metrics.DEFAULT_T_YEARS``
x ``DEFAULT_DT_YEARS`` with a comparable pair; the best epoch's weights are
kept, the learning rate is multiplied by ``PLATEAU_FACTOR`` after
``PLATEAU_PATIENCE`` stagnant epochs, and training stops after ``patience``
epochs without a gain of ``IMPROVEMENT_EPSILON``. A step's graph, adjoints
included, is freed after its Adam step, before the next forward.
"""
from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .config import JsonConfig
from .encoders import model_images, pixel_stats, prepare_batch
from .errors import ConfigError, DataError, NumericalError, write_table
from .losses import LossConfig, sequence_loss, baseline_loss
from .metrics import ModelScorer, build_risk_cells
from .model import (ModelConfig, KIND_LONGITUDINAL, forward_sequences,
                    forward_single_images, init_params)
from . import diffgraph as dg
from .survival import TimeGrid
from .synthcohort import EyeRecord, stream

log = logging.getLogger(__name__)

PLATEAU_PATIENCE, PLATEAU_FACTOR, IMPROVEMENT_EPSILON = 3, 0.5, 1e-6


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    max_epochs: int = 50
    patience: int = 10
    lr: float = 1e-4
    batch_size_sequences: int = 32
    seed: int = 0

    def __post_init__(self):
        if min(self.max_epochs, self.patience, self.batch_size_sequences) < 1:
            raise ConfigError("max_epochs, patience and batch_size_sequences must be positive")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be finite and positive, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """In-place adaptive-moment update with bias correction."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite adjoint for tensor {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        p -= (lr / b1t) * m / (np.sqrt(v / b2t) + ADAM_EPS)


@dataclass
class TrainResult:
    params: dict
    record: dict
    history: list
    best_epoch: int
    best_metric: float
    stopped_epoch: int
    diverged: bool = False


class TrainingSchedule:
    """Best-epoch tracking, plateau-based halving, and early stopping.

    An epoch improves when its metric exceeds the best by at least
    ``IMPROVEMENT_EPSILON`` (ties are non-improvements). The learning rate is
    multiplied by ``PLATEAU_FACTOR`` after every ``PLATEAU_PATIENCE``-th
    consecutive stagnant epoch; training stops after ``cfg.patience`` epochs
    without a new best.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lr = cfg.lr
        self.best_metric = -np.inf
        self.best_epoch = 0
        self.epochs_since_best = 0

    def update(self, epoch: int, metric: float) -> bool:
        """Record one epoch's validation metric; True if it is a new best."""
        improved = (np.isfinite(metric)
                    and metric - self.best_metric >= IMPROVEMENT_EPSILON)
        if improved:
            self.best_metric = metric
            self.best_epoch = epoch
            self.epochs_since_best = 0
        else:
            self.epochs_since_best += 1
            if self.epochs_since_best % PLATEAU_PATIENCE == 0:
                self.lr *= PLATEAU_FACTOR
                log.info("plateau: halving learning rate to %.2e", self.lr)
        return improved

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best >= self.cfg.patience


def _derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])
               .generate_state(1)[0])


def baseline_batch_size(train_cfg: TrainConfig, l_max: int) -> int:
    """Images per baseline minibatch: matches the sequence model's image slots."""
    return train_cfg.batch_size_sequences * l_max


def train(train_eyes: list[EyeRecord], val_eyes: list[EyeRecord],
          model_cfg: ModelConfig, train_cfg: TrainConfig,
          loss_cfg: LossConfig | None = None,
          warm_start: dict | None = None) -> TrainResult:
    """Full training run; returns the best-validation-epoch weights.

    ``warm_start`` replaces the seeded initialization with weights loaded
    from a checkpoint of the same architecture. A validation split with no
    comparable pair in any grid cell is a ``DataError`` before the first step.
    """
    loss_cfg = loss_cfg or LossConfig()
    grid = TimeGrid(model_cfg.step_months, model_cfg.j_max)
    # fail before epoch 1: which cells have a comparable pair is decided by
    # the validation eyes' outcomes alone, not by the model's risks
    val_cells = build_risk_cells(None, val_eyes, grid).values()
    n_empty = sum(not cell.n_pairs for cell in val_cells)
    if n_empty == len(val_cells):
        raise DataError(f"the validation split ({len(val_eyes)} eyes) has no comparable "
                        "pair in any cell of the validation grid")
    if n_empty:
        log.info("validation metric skips %d grid cells without a comparable pair", n_empty)
    l_max = max(e.n_visits for e in train_eyes + val_eyes)
    dt = model_cfg.np_dtype

    all_train_images = np.concatenate([e.images for e in train_eyes])
    px_mean, px_std = pixel_stats(all_train_images)
    del all_train_images
    record = {
        "model": model_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "loss": loss_cfg.to_dict(),
        "pixel_mean": px_mean,
        "pixel_std": px_std,
    }

    if warm_start is not None:
        params = {k: np.array(v, copy=True) for k, v in warm_start.items()}
    else:
        params = init_params(model_cfg, seed=train_cfg.seed)
    state = AdamState()
    schedule = TrainingSchedule(train_cfg)
    is_sequence = model_cfg.kind == KIND_LONGITUDINAL
    batch_eyes = (train_cfg.batch_size_sequences if is_sequence
                  else baseline_batch_size(train_cfg, l_max))

    best_params = copy.deepcopy(params)
    history = []
    diverged = False

    for epoch in range(1, train_cfg.max_epochs + 1):
        t_start = time.time()
        order = stream(train_cfg.seed ^ epoch).permutation(len(train_eyes))
        epoch_losses = []
        for bi, start in enumerate(range(0, len(order), batch_eyes)):
            part = [train_eyes[i] for i in order[start:start + batch_eyes]]
            aug_rng = stream(train_cfg.seed, epoch, bi, 0)
            fwd_seed = _derive_seed(train_cfg.seed, epoch, bi, 1)
            if is_sequence:
                batch = prepare_batch(part, l_max, px_mean, px_std, dt, aug_rng)
                fp = forward_sequences(params, model_cfg, batch, train=True,
                                       seed=fwd_seed)
                loss_node, parts = sequence_loss(fp, batch.outcomes, loss_cfg)
            else:
                imgs = model_images(np.stack([e.images[-1] for e in part]),
                                    px_mean, px_std, dt, aug_rng)
                fp = forward_single_images(params, model_cfg, imgs, train=True,
                                           seed=fwd_seed)
                loss_node, parts = baseline_loss(
                    fp, [e.outcome for e in part], loss_cfg,
                    np.array([e.visit_months[-1] // model_cfg.step_months for e in part]))
            loss_value = float(loss_node.value)
            if not np.isfinite(loss_value):
                log.error("non-finite loss at epoch %d batch %d; aborting with "
                          "best checkpoint from epoch %d", epoch, bi,
                          schedule.best_epoch)
                diverged = True
                break
            adam_step(params, dg.gradients(loss_node, fp.leaves), state, schedule.lr)
            del fp, loss_node   # the step's graph dies here, not at the next forward
            epoch_losses.append((loss_value, parts["surv"], parts["pred"]))
        if diverged:
            break

        scorer = ModelScorer(params, record)
        cells = build_risk_cells(scorer, val_eyes, grid).values()
        val_metric = float(np.mean([c.concordance() for c in cells if c.n_pairs]))
        train_loss, surv, pred = (float(np.mean(v)) for v in zip(*epoch_losses))
        lr_used = schedule.lr
        if schedule.update(epoch, val_metric):
            best_params = copy.deepcopy(params)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_metric": val_metric,
                        "lr": lr_used, "surv": surv, "pred": pred})
        log.info("epoch %d: loss %.4f val %.4f lr %.2e (%.1fs)",
                 epoch, train_loss, val_metric, lr_used, time.time() - t_start)
        if schedule.should_stop:
            log.info("early stop at epoch %d; best epoch %d (%.4f)",
                     epoch, schedule.best_epoch, schedule.best_metric)
            break

    record["best_epoch"] = schedule.best_epoch
    record["best_metric"] = (float(schedule.best_metric)
                             if np.isfinite(schedule.best_metric) else None)
    return TrainResult(params=best_params, record=record, history=history,
                       best_epoch=schedule.best_epoch,
                       best_metric=float(schedule.best_metric),
                       stopped_epoch=epoch, diverged=diverged)


HISTORY_HEADER = ("epoch", "train_loss", "val_metric", "lr", "surv", "pred")


def write_history(path: str, history: list) -> None:
    write_table(path, HISTORY_HEADER, ([row[k] for k in HISTORY_HEADER] for row in history))
