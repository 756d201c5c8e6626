"""Time-dependent evaluation and the statistical comparison protocol.

Concordance C(t, dt) ranks pairs of eyes by predicted risk over the window
(t, t + dt]: the anchor of a comparable pair must be an uncensored event
inside the horizon, the other eye must survive strictly longer (censored or
not), and risk ties count half. The Brier score B(t, dt) is a mean squared
error between window risks and uncensored event indicators over the risk
set at t. Confidence intervals come from eye-level bootstrap resampling
with counter-based streams, comparisons from a one-sided Welch t-test with
Bonferroni correction over the full grid of comparisons.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .errors import ConfigError, DataError, EmptyCellError
from .model import (ModelConfig, KIND_LONGITUDINAL, forward_sequences,
                    forward_single_images)
from .encoders import standardize
from .survival import TimeGrid, hazard_to_survival, risk_window
from .synthcohort import EyeRecord, prepare_batch

log = logging.getLogger(__name__)

DEFAULT_T_YEARS = (1.0, 2.0, 3.0, 5.0, 8.0)
DEFAULT_DT_YEARS = (1.0, 2.0, 5.0, 8.0)
BONFERRONI_M = 40        # family size the correction assumes: two 20-cell grids
CHUNK_EYES = 64          # eyes per forward pass when scoring

STAR_LEVELS = ((1e-4, "****"), (1e-3, "***"), (1e-2, "**"), (5e-2, "*"))


# ---------------------------------------------------------------------------
# cell statistics
# ---------------------------------------------------------------------------

def concordance_td(risks: np.ndarray, event_steps: np.ndarray,
                   censored: np.ndarray, horizon_step: int) -> float:
    """Fraction of comparable eye pairs ranked consistently with event order.

    Anchors are uncensored eyes with an event strictly inside the horizon;
    any eye with a strictly later event/censor time is comparable to an
    anchor. Ties in risk contribute 0.5. Raises EmptyCellError when no
    comparable pair exists (distinct from a concordance of 0).
    """
    risks = np.asarray(risks, dtype=float)
    event_steps = np.asarray(event_steps)
    anchors = anchor_indices(event_steps, censored, horizon_step)
    if len(anchors) == 0:
        raise EmptyCellError("no uncensored event inside the horizon")
    tau_a = event_steps[anchors][:, None]
    r_a = risks[anchors][:, None]
    comparable = event_steps[None, :] > tau_a
    n_comp = int(comparable.sum())
    if n_comp == 0:
        raise EmptyCellError("no comparable pairs")
    wins = int(((r_a > risks[None, :]) & comparable).sum())
    ties = int(((r_a == risks[None, :]) & comparable).sum())
    return (wins + 0.5 * ties) / n_comp


def anchor_indices(event_steps: np.ndarray, censored: np.ndarray,
                   horizon_step: int) -> np.ndarray:
    """Rows that anchor concordance: uncensored events strictly inside the horizon."""
    censored = np.asarray(censored, dtype=bool)
    return np.flatnonzero(~censored & (np.asarray(event_steps) < horizon_step))


def comparable_pairs(event_steps: np.ndarray, censored: np.ndarray,
                     horizon_step: int) -> int:
    anchors = anchor_indices(event_steps, censored, horizon_step)
    return int((event_steps[None, :] > event_steps[anchors][:, None]).sum())


def brier_td(risks: np.ndarray, event_steps: np.ndarray, censored: np.ndarray,
             horizon_step: int) -> float:
    """Mean squared error between window risks and uncensored in-window indicators.

    Computed over the risk set (the rows given); the mean keeps values
    comparable across risk-set sizes.
    """
    risks = np.asarray(risks, dtype=float)
    if risks.size == 0:
        raise EmptyCellError("empty risk set")
    ind = ((np.asarray(event_steps) < horizon_step)
           & ~np.asarray(censored, dtype=bool)).astype(float)
    return float(((ind - risks) ** 2).mean())


# ---------------------------------------------------------------------------
# bootstrap and hypothesis testing
# ---------------------------------------------------------------------------

@dataclass
class BootstrapResult:
    mean: float
    lo95: float
    hi95: float
    samples: np.ndarray
    n_redraws: int = 0


def _resample_stream(seed: int, sample_index: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(sample_index, attempt)))


def bootstrap_ci(n_units: int, statistic, n_samples: int = 1000, seed: int = 0,
                 max_redraws: int = 100) -> BootstrapResult:
    """Percentile bootstrap of ``statistic`` over resampled unit indices.

    The statistic receives an index array of length ``n_units`` drawn with
    replacement from a counter-based stream keyed by (seed, sample, attempt),
    so resamples are order-independent and shareable across callers with the
    same seed. Resamples on which the statistic raises EmptyCellError are
    redrawn up to ``max_redraws`` times, with the tally logged.
    """
    if n_samples < 2:
        raise ConfigError("bootstrap needs at least 2 samples")
    if n_units < 1:
        raise EmptyCellError("no units to resample")
    samples = np.empty(n_samples)
    redraws = 0
    for k in range(n_samples):
        for attempt in range(max_redraws):
            idx = _resample_stream(seed, k, attempt).integers(0, n_units, size=n_units)
            try:
                samples[k] = statistic(idx)
                break
            except EmptyCellError:
                redraws += 1
        else:
            raise EmptyCellError(
                f"statistic undefined on {max_redraws} consecutive redraws")
    if redraws:
        log.info("bootstrap redrew %d resamples with undefined statistic", redraws)
    # order-statistic percentiles: exact on constant samples, no interpolation
    lo = np.percentile(samples, 2.5, method="lower")
    hi = np.percentile(samples, 97.5, method="higher")
    return BootstrapResult(mean=float(samples.mean()), lo95=float(lo),
                           hi95=float(hi), samples=samples, n_redraws=redraws)


def _student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t via the regularized incomplete beta function."""
    x = df / (df + t * t)
    p = 0.5 * float(betainc(df / 2.0, 0.5, x))
    return p if t >= 0 else 1.0 - p


def welch_one_sided(a: np.ndarray, b: np.ndarray) -> float:
    """One-sided Welch P-value for the alternative mean(a) > mean(b).

    Degenerate zero-variance inputs collapse to a flagged mean comparison
    (P = 0 when mean(a) > mean(b), else 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise DataError("Welch test needs at least two values per sample")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("Welch test requires finite samples")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        log.warning("degenerate Welch test: both samples have zero variance")
        return 0.0 if a.mean() > b.mean() else 1.0
    se_a, se_b = va / len(a), vb / len(b)
    t = (a.mean() - b.mean()) / np.sqrt(se_a + se_b)
    df = (se_a + se_b) ** 2 / (se_a ** 2 / (len(a) - 1) + se_b ** 2 / (len(b) - 1))
    return _student_t_sf(float(t), float(df))


def bonferroni(raw_p: float, m: int = BONFERRONI_M) -> float:
    if not 0.0 <= raw_p <= 1.0:
        raise DataError(f"raw P-value {raw_p} outside [0, 1]")
    return min(1.0, m * raw_p)


def stars(p_adjusted: float) -> str:
    for threshold, label in STAR_LEVELS:
        if p_adjusted <= threshold:
            return label
    return "ns"


# ---------------------------------------------------------------------------
# risk scoring over a cohort
# ---------------------------------------------------------------------------

def risk_set(eyes: list[EyeRecord], grid: TimeGrid, t_step: int) -> list[int]:
    """Eyes still event- and censor-free past t with at least one visit by t."""
    t_months = t_step * grid.step_months
    return [i for i, e in enumerate(eyes)
            if e.outcome.event_step > t_step and e.visit_months[0] <= t_months]


def visits_seen(eyes: list[EyeRecord], grid: TimeGrid, t_step: int) -> np.ndarray:
    """Each eye's count of visits at or before step t_step."""
    t_months = t_step * grid.step_months
    return np.array([np.sum(e.visit_months <= t_months) for e in eyes], dtype=int)


def window_risks(curves: np.ndarray, grid: TimeGrid, t_step: int,
                 dt_steps: int) -> np.ndarray:
    """Window risks from stacked survival curves, clamping the window end to the grid."""
    end = min(t_step + dt_steps, grid.j_max)
    if end <= t_step:
        raise ConfigError(f"risk window collapsed: t_step {t_step} >= grid end")
    return risk_window(curves, t_step, end - t_step)


class OracleScorer:
    """Ground-truth hazard curves from the simulator sidecar."""

    name = "oracle"

    def curves(self, eyes, seen):
        s = hazard_to_survival(np.stack([e.true_hazard for e in eyes]))
        return np.broadcast_to(s, seen.shape + s.shape[1:])


class ModelScorer:
    """Curves from a trained checkpoint, each from the visits seen by its time."""

    def __init__(self, params: dict, record: dict):
        self.params = params
        self.cfg = ModelConfig.from_dict(record["model"])
        self.pixel_mean = record["pixel_mean"]
        self.pixel_std = record["pixel_std"]
        self.name = self.cfg.kind

    def curves(self, eyes, seen):
        """Survival curves (times, eyes, j_max) for a grid of prediction times.

        ``seen[k, i]`` counts eye i's visits by the k-th time, 0 outside that
        time's risk set (whose curves are NaN). The curve comes from position
        seen[k, i] - 1 of one causal pass, or for the baseline from that visit.
        """
        out = np.full(seen.shape + (self.cfg.j_max,), np.nan)
        at_risk = np.flatnonzero(seen.any(axis=0))
        for start in range(0, len(at_risk), CHUNK_EYES):
            cols = at_risk[start:start + CHUNK_EYES]
            part = [eyes[i] for i in cols]
            counts = seen[:, cols]
            k, j = np.nonzero(counts)
            if self.cfg.kind == KIND_LONGITUDINAL:
                batch = prepare_batch(part, max(e.n_visits for e in part),
                                      self.pixel_mean, self.pixel_std,
                                      self.cfg.np_dtype)
                # later visits cannot change an earlier position's output
                # under the causal mask, so they are left out of the pass
                batch.valid &= (np.arange(batch.valid.shape[1])[None, :]
                                < counts.max(axis=0)[:, None])
                fp = forward_sequences(self.params, self.cfg, batch)
                hazards = fp.hazards[j, counts[k, j] - 1]
            else:
                imgs = np.stack([part[jj].images[counts[kk, jj] - 1]
                                 for kk, jj in zip(k, j)])
                imgs = standardize(imgs, self.pixel_mean, self.pixel_std)
                hazards = forward_single_images(self.params, self.cfg, imgs).hazards
            out[k, cols[j]] = hazard_to_survival(hazards)
        return out


@dataclass
class RiskCell:
    """Per-eye window risks and outcomes for one (t, dt) evaluation cell."""

    t_years: float
    dt_years: float
    risks: np.ndarray
    event_steps: np.ndarray
    censored: np.ndarray
    horizon_step: int
    eye_indices: np.ndarray

    @property
    def n_risk_set(self) -> int:
        return len(self.risks)

    @property
    def n_anchors(self) -> int:
        return len(anchor_indices(self.event_steps, self.censored, self.horizon_step))

    def concordance(self, idx=None) -> float:
        sel = slice(None) if idx is None else idx
        return concordance_td(self.risks[sel], self.event_steps[sel],
                              self.censored[sel], self.horizon_step)

    def brier(self, idx=None) -> float:
        sel = slice(None) if idx is None else idx
        return brier_td(self.risks[sel], self.event_steps[sel],
                        self.censored[sel], self.horizon_step)


def build_risk_cells(scorer, eyes: list[EyeRecord], grid: TimeGrid,
                     t_years=DEFAULT_T_YEARS, dt_years=DEFAULT_DT_YEARS,
                     rng_anti: bool = False,
                     random_seed: int | None = None) -> dict:
    """Window risks for every grid cell, from one scorer call for the whole grid.

    Each prediction time's risk set and each eye's visits seen by then go to
    the scorer together, so a model scores every time from one causal pass
    per eye. ``rng_anti`` negates risks (an anti-oracle); ``random_seed``
    replaces risks with seeded uniform noise.
    """
    t_steps = [grid.time_to_step(t) for t in t_years]
    seen = np.zeros((len(t_steps), len(eyes)), dtype=int)
    for k, t_step in enumerate(t_steps):
        idx = risk_set(eyes, grid, t_step)
        seen[k, idx] = visits_seen([eyes[i] for i in idx], grid, t_step)
    curves = None
    if random_seed is None and seen.any():
        curves = scorer.curves(eyes, seen)
    cells = {}
    for k, (t, t_step) in enumerate(zip(t_years, t_steps)):
        idx = np.flatnonzero(seen[k])
        if len(idx) == 0:
            for dt in dt_years:
                cells[(t, dt)] = None
            continue
        steps = np.array([eyes[i].outcome.event_step for i in idx])
        cens = np.array([eyes[i].outcome.censored for i in idx])
        for dt in dt_years:
            dt_steps = grid.time_to_step(dt)
            if random_seed is not None:
                risks = np.random.default_rng(np.random.SeedSequence(
                    entropy=random_seed,
                    spawn_key=(int(t * 12), int(dt * 12)))).random(len(idx))
            else:
                risks = window_risks(curves[k, idx], grid, t_step, dt_steps)
                if rng_anti:
                    risks = -risks
            cells[(t, dt)] = RiskCell(
                t_years=t, dt_years=dt, risks=risks, event_steps=steps,
                censored=cens, horizon_step=t_step + dt_steps, eye_indices=idx)
    return cells


def mean_grid_concordance(cells: dict) -> tuple[float, int]:
    """Mean point-estimate concordance over non-empty cells, skipped count."""
    values, skipped = [], 0
    for cell in cells.values():
        if cell is None:
            skipped += 1
            continue
        try:
            values.append(cell.concordance())
        except EmptyCellError:
            skipped += 1
    if not values:
        raise EmptyCellError("every grid cell was empty")
    if skipped:
        log.info("validation grid skipped %d empty cells", skipped)
    return float(np.mean(values)), skipped


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    model: str
    metric: str
    t_years: float
    dt_years: float
    estimate: float | None
    boot_mean: float | None
    ci_lo: float | None
    ci_hi: float | None
    p_adjusted: float | None
    significance: str
    n_pairs: int
    n_risk_set: int
    samples: np.ndarray | None = field(default=None, repr=False)


def _fmt(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_report(path: str, rows: list[ReportRow]) -> None:
    header = ("model\tmetric\tt_years\tdt_years\testimate\tboot_mean\tci_lo"
              "\tci_hi\tp_adjusted\tsignificance\tn_pairs\tn_risk_set")
    lines = [header]
    for r in rows:
        lines.append("\t".join([
            r.model, r.metric, _fmt(r.t_years), _fmt(r.dt_years),
            _fmt(r.estimate), _fmt(r.boot_mean), _fmt(r.ci_lo), _fmt(r.ci_hi),
            _fmt(r.p_adjusted), r.significance, str(r.n_pairs), str(r.n_risk_set)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_samples(path: str, rows: list[ReportRow]) -> None:
    lines = ["model\tmetric\tt_years\tdt_years\tsample_index\tvalue"]
    for r in rows:
        if r.samples is None:
            continue
        for k, v in enumerate(r.samples):
            lines.append(f"{r.model}\t{r.metric}\t{_fmt(r.t_years)}"
                         f"\t{_fmt(r.dt_years)}\t{k}\t{float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
