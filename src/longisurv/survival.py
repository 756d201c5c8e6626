"""Discrete-time survival mathematics.

Hazard-to-survival conversion and the time-grid bookkeeping the rest of
the package builds on (``metrics.window_risks`` turns curves into window
risks). A curve is a float array of length ``j_max`` on its last axis,
leading axes stacking curves, indexed by discrete step (index 0 holds
step 1).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeGrid:
    """Discrete follow-up grid: steps of ``step_months`` up to ``j_max`` steps."""

    step_months: int
    j_max: int

    def __post_init__(self):
        if self.step_months <= 0 or self.j_max < 1:
            raise ConfigError(
                f"invalid time grid: step_months={self.step_months}, j_max={self.j_max}"
            )

    def time_to_step(self, t_years: float) -> int:
        """Convert years since enrollment to the nearest grid step (round half up)."""
        exact = 12.0 * t_years / self.step_months
        if not np.isfinite(exact):
            raise ConfigError(f"time {t_years} years is not a finite number")
        if exact < 0:
            raise ConfigError(f"time {t_years} years is negative")
        step = int(np.floor(exact + 0.5))
        if abs(exact - step) > 0.01:
            log.warning(
                "time %.4f years is %.3f steps off the %d-month grid",
                t_years, abs(exact - step), self.step_months,
            )
        return step

    def step_to_years(self, step: int) -> float:
        return step * self.step_months / 12.0


@dataclass(frozen=True)
class EventOutcome:
    """Observed outcome for one eye: event/censor step (1-based) and censor flag."""

    event_step: int
    censored: bool

    def validate(self, grid: TimeGrid) -> None:
        if not 1 <= self.event_step <= grid.j_max:
            raise DataError(
                f"event_step {self.event_step} outside grid [1, {grid.j_max}]"
            )


def hazard_to_survival(h: np.ndarray) -> np.ndarray:
    """Cumulative-product survival curve S[j] = prod_{s<=j} (1 - h[s]).

    The returned curve is nonincreasing with values in [0, 1]; S before the
    first step is defined as 1.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 1:
        raise DataError(f"hazard curve must be at least 1-D, got shape {h.shape}")
    if h.size == 0:
        raise DataError("hazard curve is empty")
    if np.any((h < 0.0) | (h > 1.0)) or not np.all(np.isfinite(h)):
        raise DataError("hazard entries must lie in [0, 1]")
    return np.cumprod(1.0 - h, axis=-1)
