"""Discrete-time survival analysis from longitudinal image sequences.

A self-contained research stack: a minimal reverse-mode autodiff engine, a
causal-attention sequence model over per-visit images with sinusoidal
visit-time encodings, a censoring-aware composite loss, a synthetic
disease-progression simulator with known ground-truth hazards, and
time-dependent concordance/Brier evaluation with an eye-level bootstrap
and Welch/Bonferroni comparison protocol. See the `longisurv` CLI for the
end-to-end workflow.
"""

from .survival import TimeGrid, EventOutcome, hazard_to_survival
from .model import ModelConfig, save_checkpoint, load_checkpoint
from .losses import LossConfig
from .synthcohort import CohortConfig, generate_cohort, split_patients
from .trainer import TrainConfig, train
from .metrics import (window_risks, concordance_td, brier_td, bootstrap_ci, welch_one_sided,
                      bonferroni)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "EventOutcome", "hazard_to_survival", "window_risks",
    "ModelConfig", "save_checkpoint", "load_checkpoint", "LossConfig",
    "CohortConfig", "generate_cohort", "split_patients", "TrainConfig",
    "train", "concordance_td", "brier_td", "bootstrap_ci", "welch_one_sided",
    "bonferroni", "__version__",
]
