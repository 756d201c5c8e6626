"""The benchmark's workloads, all on the desk cohort (1,000 patients, 2,000 eyes).

Each workload has a ``setup()`` that builds its inputs from the seed and a
``run_unit()`` that does one fixed unit of work and returns a ``Unit``:
how many operations it attempted and how many failed, a digest of its
outputs (equal across units of one invocation when the program is
deterministic), and the concordance it produced.

All calls into ``longisurv`` go through module attributes, so a tracer
that wraps the modules' functions sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from longisurv import (cli, diffgraph, encoders, losses, model, survival,
                       synthcohort, trainer)

DESK_PATIENTS = 1000
GRAD_TOLERANCE = 1e-4      # as in the acceptance suite's gradient check
GRAD_STEPS = (1e-4, 1e-5, 1e-6)
# The key bias shifts every attention score of a query by the same amount,
# which softmax cancels: its gradient is exactly zero, and a relative error
# on it measures only rounding noise.
ZERO_GRAD_SUFFIX = ".attn.k.b"


@dataclass
class Unit:
    attempted: int
    failed: int
    digest: str
    c_index: float


def _digest_params(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def _digest_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _desk_cohort(seed: int):
    cfg = synthcohort.CohortConfig(n_patients=DESK_PATIENTS, seed=seed)
    eyes = synthcohort.generate_cohort(cfg)
    return cfg, eyes, synthcohort.split_patients(eyes, seed=seed)


def _desk_model(kind: str, cfg) -> model.ModelConfig:
    return model.ModelConfig(kind=kind, dtype="float32", j_max=cfg.j_max,
                             step_months=cfg.step_months, image_size=cfg.image_size,
                             image_channels=cfg.image_channels)


class TrainWorkload:
    """``trainer.train`` for a fixed number of epochs, early stopping out of reach."""

    def __init__(self, kind: str, lr: float, epochs: int, unit_s: float, seed: int):
        self.kind, self.lr, self.epochs, self.seed = kind, lr, epochs, seed
        self.unit_s = unit_s

    def setup(self) -> None:
        self.train_eyes = self.val_eyes = None      # one cohort in memory at a time
        cfg, eyes, (self.train_eyes, self.val_eyes, _) = _desk_cohort(self.seed)
        self.model_cfg = _desk_model(self.kind, cfg)
        self.train_cfg = trainer.TrainConfig(
            max_epochs=self.epochs, patience=self.epochs + 1, lr=self.lr,
            seed=self.seed)
        if self.kind == model.KIND_LONGITUDINAL:
            batch = self.train_cfg.batch_size_sequences
        else:
            l_max = max(e.n_visits for e in self.train_eyes + self.val_eyes)
            batch = trainer.baseline_batch_size(self.train_cfg, l_max)
        self.steps_per_epoch = math.ceil(len(self.train_eyes) / batch)

    def run_unit(self, index: int) -> Unit:
        result = trainer.train(self.train_eyes, self.val_eyes, self.model_cfg,
                               self.train_cfg)
        steps = self.steps_per_epoch * self.epochs
        c = result.best_metric
        ok = (not result.diverged and len(result.history) == self.epochs
              and 0.0 < c < 1.0)
        return Unit(steps, 0 if ok else 1, _digest_params(result.params), c)


class CompareWorkload:
    """``compare``, ``attention`` and ``plot --report`` through ``cli.main``.

    Set-up writes the dataset and seeded untrained checkpoints of both kinds
    (pixel statistics from the train split); scoring and bootstrap cost do
    not depend on the weight values. The commands evaluate the test split,
    the CLI default: ``--split all`` takes about 45 s per unit on 2 cores,
    more than one run can spend.
    """

    SPLIT = "test"
    BOOTSTRAP = 1000
    unit_s = 8.5

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        # every set-up writes the same paths: the first creates the files,
        # later ones overwrite them
        cfg, eyes, (train_eyes, _, _) = _desk_cohort(self.seed)
        self.dataset = os.path.join(self.workdir, "dataset")
        synthcohort.save_dataset(self.dataset, eyes, cfg)
        px_mean, px_std = encoders.pixel_stats(
            np.concatenate([e.images for e in train_eyes]))
        self.ckpts = {}
        for kind in (model.KIND_LONGITUDINAL, model.KIND_BASELINE):
            mcfg = _desk_model(kind, cfg)
            record = {"model": mcfg.to_dict(), "pixel_mean": px_mean,
                      "pixel_std": px_std,
                      "l_max": max(e.n_visits for e in eyes), "seed": self.seed}
            self.ckpts[kind] = os.path.join(self.workdir, f"ckpt_{kind}")
            model.save_checkpoint(self.ckpts[kind],
                                  model.init_params(mcfg, seed=self.seed), record)

    def run_unit(self, index: int) -> Unit:
        out = os.path.join(self.workdir, f"unit{index}")
        cmp_dir, att_dir = os.path.join(out, "compare"), os.path.join(out, "attention")
        figure = os.path.join(out, "concordance.svg")
        seed = str(self.seed)
        commands = (
            ["compare", "--ckpt-a", self.ckpts[model.KIND_LONGITUDINAL],
             "--ckpt-b", self.ckpts[model.KIND_BASELINE], "--dataset", self.dataset,
             "--split", self.SPLIT, "--bootstrap", str(self.BOOTSTRAP),
             "--seed", seed, "--out", cmp_dir],
            ["attention", "--ckpt", self.ckpts[model.KIND_LONGITUDINAL],
             "--dataset", self.dataset, "--split", self.SPLIT, "--seed", seed,
             "--out", att_dir],
            ["plot", "--report", os.path.join(cmp_dir, "compare.tsv"),
             "--samples", os.path.join(cmp_dir, "samples.tsv"),
             "--seed", seed, "--out", figure],
        )
        failed = 0
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                failed += cli.main(argv) != 0
        outputs = [os.path.join(cmp_dir, "compare.tsv"),
                   os.path.join(cmp_dir, "samples.tsv"),
                   os.path.join(att_dir, "attention.tsv"),
                   os.path.join(att_dir, "attention_summary.tsv"), figure]
        if failed or not all(os.path.isfile(p) for p in outputs):
            return Unit(len(commands), max(failed, 1), "", float("nan"))
        boots, c_values, bad_rows = self._read_compare(outputs[0])
        return Unit(len(commands) + boots, bad_rows, _digest_files(outputs),
                    float(np.mean(c_values)))

    @staticmethod
    def _read_compare(path: str):
        """(cell, source) bootstraps run, checkpoint A's estimates, bad rows."""
        with open(path) as fh:
            header, *lines = fh.read().splitlines()
        cols = header.split("\t")
        boots, c_values, bad = 0, [], 0
        for line in lines:
            row = dict(zip(cols, line.split("\t")))
            if row["ci_lo"] == "NA":
                continue
            boots += 1
            est, lo, hi = float(row["estimate"]), float(row["ci_lo"]), float(row["ci_hi"])
            bad += not (0.0 <= lo <= hi <= 1.0 and 0.0 <= est <= 1.0)
            if row["model"] == model.KIND_LONGITUDINAL:
                c_values.append(est)
        return boots, c_values, bad


def make(name: str, seed: int, workdir: str):
    """The named workload; ``unit_s`` is its unit's nominal wall time on 2 cores."""
    if name == "train-seq":
        return TrainWorkload(model.KIND_LONGITUDINAL, 5e-4, 1, 14.0, seed)
    if name == "train-single":
        return TrainWorkload(model.KIND_BASELINE, 1e-3, 2, 4.5, seed)
    if name == "compare":
        return CompareWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# gradient check: a tiny float64 model of each kind, dropout off
# ---------------------------------------------------------------------------

def _tiny_config(kind: str):
    return model.ModelConfig(kind=kind, embed_dim=16, n_layers=2, n_heads=2,
                             dropout=0.0, j_max=9, step_months=6, image_size=16,
                             image_channels=1, conv_widths=(4, 8, 8),
                             dtype="float64")


def _generic_point(params: dict, rng) -> dict:
    """Seeded init plus small noise.

    Biases start at zero, so a conv output over an all-zero receptive field
    sits exactly on the ReLU kink, where central differences average the two
    one-sided slopes; the noise moves every such input off the kink.
    """
    return {k: v + rng.normal(0.0, 0.01, v.shape) for k, v in params.items()}


def _grad_error(loss_fn, params: dict, seed: int) -> float:
    """``diffgraph.grad_check`` over the tensors whose gradient is not zero.

    A ReLU input within one step of its kink spoils the central difference
    at large steps, and rounding noise swamps a gradient near 1e-9 at small
    ones, so the smallest error over the steps counts; a wrong adjoint fails
    at every step.
    """
    fixed = {k: v for k, v in params.items() if k.endswith(ZERO_GRAD_SUFFIX)}
    free = {k: v for k, v in params.items() if k not in fixed}
    return min(diffgraph.grad_check(lambda p: loss_fn({**fixed, **p}), free,
                                    seed=seed, n_coords=20, step=h)
               for h in GRAD_STEPS)


def grad_check_errors(seed: int) -> dict:
    """Max relative gradient error per model kind on seeded tiny inputs."""
    rng = np.random.default_rng(seed)
    lengths = [1, 2, 4]
    b, l = len(lengths), max(lengths)
    images = np.zeros((b, l, 1, 16, 16))
    months = np.zeros((b, l))
    valid = np.zeros((b, l), dtype=bool)
    outcomes = []
    for i, j_i in enumerate(lengths):
        images[i, :j_i] = rng.uniform(0, 1, (j_i, 1, 16, 16))
        months[i, :j_i] = np.cumsum(rng.integers(1, 4, size=j_i)) * 6
        valid[i, :j_i] = True
        outcomes.append(survival.EventOutcome(int(rng.integers(1, 10)), bool(i % 2)))
    batch = model.SequenceBatch(images=images, visit_months=months, valid=valid,
                                outcomes=outcomes)
    loss_cfg = losses.LossConfig()

    seq_cfg = _tiny_config(model.KIND_LONGITUDINAL)
    seq_params = _generic_point(model.init_params(seq_cfg, seed=seed), rng)
    frozen = losses.shifted_targets(model.forward_sequences(seq_params, seq_cfg, batch))

    def seq_loss(p):
        fp = model.forward_sequences(p, seq_cfg, batch)
        return losses.sequence_loss(fp, outcomes, loss_cfg, frozen_targets=frozen)[0], fp.leaves

    single_cfg = _tiny_config(model.KIND_BASELINE)
    last = images[np.arange(b), np.array(lengths) - 1]

    def single_loss(p):
        fp = model.forward_single_images(p, single_cfg, last)
        return losses.baseline_loss(fp, outcomes, loss_cfg)[0], fp.leaves

    single_params = _generic_point(model.init_params(single_cfg, seed=seed), rng)
    return {model.KIND_LONGITUDINAL: _grad_error(seq_loss, seq_params, seed),
            model.KIND_BASELINE: _grad_error(single_loss, single_params, seed)}
