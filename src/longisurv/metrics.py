"""Time-dependent evaluation and the statistical comparison protocol.

Concordance C(t, dt) ranks pairs of eyes by predicted risk over the window
(t, t + dt]: the anchor of a comparable pair must be an uncensored event
inside the horizon, the other eye must survive strictly longer (censored or
not), and risk ties count half. The Brier score B(t, dt) is a mean squared
error between window risks and uncensored event indicators over the risk
set at t. Confidence intervals come from an eye-level bootstrap on
counter-based streams, one set of draws per prediction time for all of its
cells. Draws are scored a block at a time (a matrix of unit multiplicities
for every concordance, a row mean of per-eye Brier terms for every Brier),
redraws one draw at a time; both give the bytes of scoring each draw alone.
Comparisons come from a one-sided Welch t-test, Bonferroni-corrected.
The Welch P-value is the package's only use of scipy, which it imports when
it runs, so only ``compare`` loads scipy.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import diffgraph as dg
from .errors import (ConfigError, DataError, DegenerateConditioningError, EmptyCellError,
                     _field, write_table)
from .model import (ModelConfig, KIND_LONGITUDINAL, forward_sequences,
                    forward_single_images)
from .encoders import prepare_batch
from .survival import TimeGrid, hazard_to_survival
from .synthcohort import EyeRecord, stream

log = logging.getLogger(__name__)

DEFAULT_T_YEARS = (1.0, 2.0, 3.0, 5.0, 8.0)
DEFAULT_DT_YEARS = (1.0, 2.0, 5.0, 8.0)
BONFERRONI_M = 40        # family size the correction assumes: two 20-cell grids
CHUNK_EYES = 64          # eyes per forward pass when scoring
MAX_REDRAWS = 100        # bootstrap attempts per sample before a value is undefined
BOOT_BLOCK = 128         # bootstrap first attempts drawn and scored together

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
    return RiskCell(risks, event_steps, censored, horizon_step).concordance()


def event_in_window(event_steps, censored, horizon_step: int) -> np.ndarray:
    """Uncensored events before ``horizon_step``: a cell's anchors and Brier events."""
    return ~np.asarray(censored, dtype=bool) & (np.asarray(event_steps) < horizon_step)


def pair_table(risks: np.ndarray, event_steps: np.ndarray, censored: np.ndarray,
               horizon_step: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor rows (uncensored events inside the horizon) and a (2, anchors,
    eyes) table: comparable pairs (the eye outlives the anchor), then pair
    scores, 1 if the anchor's risk is higher, 0.5 on a tie, else 0."""
    risks, event_steps = np.asarray(risks, dtype=float), np.asarray(event_steps)
    anchors = np.flatnonzero(event_in_window(event_steps, censored, horizon_step))
    comparable = event_steps > event_steps[anchors][:, None]
    r_a = risks[anchors][:, None]
    return anchors, np.stack([comparable, comparable * ((r_a > risks) + 0.5 * (r_a == risks))])


def pair_concordance(tables: list):
    """The concordance of each ``pair_table`` (with an anchor) on a draw, as a
    function of the draw's unit multiplicities ``m``; NaN where no drawn pair
    is comparable. Pair counts and scores sum ``m[a] * m[b]`` exactly, so each
    value is the double that scoring the resampled rows gives."""
    if not tables:
        return lambda m: np.empty(0)
    anchors = np.concatenate([a for a, _ in tables])
    stack = np.concatenate([tab for _, tab in tables], axis=1)
    starts = np.cumsum([0] + [len(a) for a, _ in tables[:-1]])

    def at(m: np.ndarray) -> np.ndarray:
        n_comp, score = np.add.reduceat((stack @ m) * m[anchors], starts, axis=1)
        with np.errstate(invalid="ignore"):
            return score / n_comp
    return at


def brier_td(risks: np.ndarray, event_steps: np.ndarray, censored: np.ndarray,
             horizon_step: int) -> float:
    """Mean squared error between window risks and uncensored in-window indicators.

    Computed over the risk set (the rows given); the mean keeps values
    comparable across risk-set sizes.
    """
    return RiskCell(np.asarray(risks, dtype=float), event_steps, censored, horizon_step).brier()


# ---------------------------------------------------------------------------
# bootstrap and hypothesis testing
# ---------------------------------------------------------------------------

@dataclass
class BootstrapResult:
    mean: float | tuple
    lo95: float | tuple
    hi95: float | tuple
    samples: np.ndarray
    n_redraws: int = 0


def bootstrap_ci(n_units: int, statistic, n_samples: int = 1000,
                 seed: int = 0, *, by_block: bool = False) -> BootstrapResult:
    """Percentile bootstrap of ``statistic`` over resampled unit indices.

    The statistic receives an index array of length ``n_units`` drawn with
    replacement from a counter-based stream keyed by (seed, sample, attempt),
    so resamples are order-independent and reproducible from the seed. A
    statistic of k values scores all k on each draw; mean, lo95 and hi95 are
    then k-tuples and samples is (n_samples, k). A NaN value is undefined on
    that draw alone, and raising EmptyCellError leaves every value undefined.
    Each value's sample k comes from its first defined attempt of up to
    ``MAX_REDRAWS``, as in a scalar run of it; a value with none gets NaN
    mean, bounds and samples, and EmptyCellError once all have none.
    ``n_redraws`` counts the extra draws, the tally logged.
    First attempts go to the statistic ``BOOT_BLOCK`` draws at a time, one
    draw per call unless ``by_block``: then it takes a (draws, n_units) index
    block and returns a row of values per draw. Redraws go one at a time.
    """
    if n_samples < 2:
        raise ConfigError("bootstrap needs at least 2 samples")
    if n_units < 1:
        raise EmptyCellError("no units to resample")
    score = statistic if by_block else _row_by_row(statistic)
    draws, dead, redraws = [], np.False_, 0
    for start in range(0, n_samples, BOOT_BLOCK):
        ks = range(start, min(start + BOOT_BLOCK, n_samples))
        values = score(np.array([stream(seed, k, 0).integers(0, n_units, size=n_units)
                                 for k in ks]))
        block = list(values)
        # a draw with every value defined or dead is kept as drawn; the rest, in order
        for i in np.flatnonzero((np.isnan(values.reshape(len(ks), -1)) & ~dead).any(axis=1)):
            row, attempt = block[i], 0
            while (np.isnan(row) & ~dead).any() and (attempt := attempt + 1) < MAX_REDRAWS:
                redraws += 1
                idx = stream(seed, ks[i], attempt).integers(0, n_units, size=n_units)
                row = np.where(np.isnan(row), score(idx[None])[0], row)
            block[i], dead = row, dead | np.isnan(row)
            if np.all(dead):
                raise EmptyCellError(f"statistic undefined on {MAX_REDRAWS} consecutive redraws")
        draws.extend(block)
    if redraws:
        log.info("bootstrap redrew %d resamples with undefined statistic", redraws)
    rows = np.ascontiguousarray(np.array(draws).T)
    rows[dead] = np.nan
    # a contiguous row per value sums its mean as a scalar statistic's would;
    # order-statistic percentiles are exact on constant samples
    stats = [(float(r.mean()), float(np.percentile(r, 2.5, method="lower")),
              float(np.percentile(r, 97.5, method="higher"))) for r in np.atleast_2d(rows)]
    if rows.ndim == 1:
        return BootstrapResult(*stats[0], samples=rows, n_redraws=redraws)
    return BootstrapResult(*zip(*stats), samples=rows.T, n_redraws=redraws)


def _row_by_row(statistic):
    """A per-draw statistic as a block one: each row scored alone, EmptyCellError a NaN row."""
    def value(idx):
        try:
            return np.asarray(statistic(idx), dtype=float)
        except EmptyCellError:
            return np.float64(np.nan)
    return lambda block: np.array(np.broadcast_arrays(*map(value, block)))


def _student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t via the regularized incomplete beta function."""
    # scipy's only use in the package: import it here, so only a Welch test loads it
    from scipy.special import betainc
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


def bonferroni(raw_p: float) -> float:
    if not 0.0 <= raw_p <= 1.0:
        raise DataError(f"raw P-value {raw_p} outside [0, 1]")
    return min(1.0, BONFERRONI_M * raw_p)


def stars(p_adjusted: float) -> str:
    for threshold, label in STAR_LEVELS:
        if p_adjusted <= threshold:
            return label
    return "ns"


# ---------------------------------------------------------------------------
# risk scoring over a cohort
# ---------------------------------------------------------------------------

def visits_seen(eyes: list[EyeRecord], grid: TimeGrid, t_step: int) -> np.ndarray:
    """Each eye's count of visits at or before step t_step (visit months increase)."""
    t_months = t_step * grid.step_months
    return np.array([np.searchsorted(e.visit_months, t_months, "right") for e in eyes], dtype=int)


def window_risks(curves: np.ndarray, t_step: int, dt_steps: int) -> np.ndarray:
    """Risk of the event in (t, t + dt] given survival to t, (S(t) - S(t + dt)) / S(t),
    per stacked survival curve with S(0) = 1 and the window end clamped to the curve's.
    S(t) = 0 is degenerate conditioning: the eye should have left the risk set."""
    s_t = curves[..., t_step - 1] if t_step else np.ones(curves.shape[:-1])
    if np.any(s_t <= 0.0):
        raise DegenerateConditioningError(
            f"S(t) = 0 at step {t_step}: risk window is conditioned on a null event")
    return (s_t - curves[..., min(t_step + dt_steps, curves.shape[-1]) - 1]) / s_t


class OracleScorer:
    """Ground-truth hazard curves from the simulator sidecar."""

    def curves(self, eyes, seen):
        s = hazard_to_survival(np.stack([e.true_hazard for e in eyes]))
        return np.broadcast_to(s, seen.shape + s.shape[1:])


class ModelScorer:
    """Curves from a ``train``/``load_checkpoint`` record, each from the visits seen by then."""

    def __init__(self, params: dict, record: dict):
        self.params = params
        self.cfg = ModelConfig.from_dict(record["model"], "model")
        self.pixel_mean, self.pixel_std = record["pixel_mean"], record["pixel_std"]

    def batches(self, eyes, upto):
        """A scoring pass: each chunk's start and ``prepare_batch`` batch, ``CHUNK_EYES``
        eyes at a time, with eye i's visits after ``upto[i]`` cut (under the causal
        mask they cannot change an earlier output). The pass ends by releasing the
        conv GEMM rows, which would add to the bootstrap's peak."""
        for start in range(0, len(eyes), CHUNK_EYES):
            part, cut = eyes[start:start + CHUNK_EYES], upto[start:start + CHUNK_EYES]
            batch = prepare_batch(part, max(e.n_visits for e in part), self.pixel_mean,
                                  self.pixel_std, self.cfg.np_dtype)
            batch.valid &= np.arange(batch.valid.shape[1]) < np.asarray(cut)[:, None]
            yield start, batch
        dg.release_gemm_rows()

    def curves(self, eyes, seen):
        """Survival curves (times, eyes, j_max) for a grid of prediction times.

        ``seen[k, i]`` counts eye i's visits by the k-th time, 0 outside that
        time's risk set (whose curves are NaN). The curve comes from position
        seen[k, i] - 1 of one ``batches`` pass, or for the baseline from that visit.
        """
        out = np.full(seen.shape + (self.cfg.j_max,), np.nan)
        at_risk = np.flatnonzero(seen.any(axis=0))
        for start, batch in self.batches([eyes[i] for i in at_risk], seen[:, at_risk].max(0)):
            cols = at_risk[start:start + CHUNK_EYES]
            k, j = np.nonzero(seen[:, cols])
            last = seen[k, cols[j]] - 1
            if self.cfg.kind == KIND_LONGITUDINAL:   # a copy: the pass's graph dies here
                hazards = forward_sequences(self.params, self.cfg, batch).hazards[j, last]
            else:
                hazards = forward_single_images(self.params, self.cfg,
                                                batch.images[j, last]).hazards
            out[k, cols[j]] = hazard_to_survival(hazards)
        return out


@dataclass
class RiskCell:
    """Per-eye window risks and outcomes for one (t, dt) evaluation cell."""

    risks: np.ndarray
    event_steps: np.ndarray
    censored: np.ndarray
    horizon_step: int

    @property
    def n_risk_set(self) -> int:
        return len(self.risks)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return pair_table(self.risks, self.event_steps, self.censored, self.horizon_step)

    @property
    def n_anchors(self) -> int:
        return len(self.pairs[0])

    @property
    def n_pairs(self) -> int:
        return int(self.pairs[1][0].sum())

    def concordance(self) -> float:
        """The concordance of ``pairs``; EmptyCellError without a comparable pair."""
        anchors, table = self.pairs
        if len(anchors) == 0:
            raise EmptyCellError("no uncensored event inside the horizon")
        c = pair_concordance([self.pairs])(np.ones(table.shape[-1]))[0]
        if np.isnan(c):
            raise EmptyCellError("no comparable pairs")
        return float(c)

    def brier(self) -> float:
        """The mean of ``squared_errors``; EmptyCellError on an empty risk set."""
        if self.n_risk_set == 0:
            raise EmptyCellError("empty risk set")
        return float(self.squared_errors.mean())

    @cached_property
    def squared_errors(self) -> np.ndarray:
        """Each eye's Brier term; a draw's Brier is their mean over its rows."""
        ind = event_in_window(self.event_steps, self.censored, self.horizon_step)
        return (ind.astype(float) - self.risks) ** 2


def build_risk_cells(scorer, eyes: list[EyeRecord], grid: TimeGrid,
                     t_years=DEFAULT_T_YEARS, dt_years=DEFAULT_DT_YEARS) -> dict:
    """A ``RiskCell`` of window risks for every grid cell, from one scorer call
    for the whole grid; a cell with no eye at risk has empty arrays.

    An eye is at risk at t when it has a visit by t and no event or censoring
    by t. Each time's visits seen (0 off its risk set) go to the scorer
    together, so a model scores every time from one causal pass per eye.
    Without a scorer every risk is 0: outcomes, anchors and pairs do not
    depend on risks. Source kinds (anti-oracle, random) are ``RiskSource``'s.
    Years round to steps silently; ``_score_rows`` warns once per off-grid year.
    """
    t_steps = [grid.nearest_step(t) for t in t_years]
    dt_steps = [grid.nearest_step(dt) for dt in dt_years]
    if 0 in dt_steps:
        raise ConfigError(f"dt {dt_years[dt_steps.index(0)]} years rounds to 0 steps "
                          f"of the {grid.step_months}-month grid")
    steps = np.array([e.outcome.event_step for e in eyes], dtype=int)
    cens = np.array([e.outcome.censored for e in eyes], dtype=bool)
    seen = np.array([visits_seen(eyes, grid, t_step) * (steps > t_step)
                     for t_step in t_steps], dtype=int).reshape(len(t_steps), len(eyes))
    curves = scorer.curves(eyes, seen) if scorer is not None and eyes else None
    cells = {}
    for k, (t, t_step) in enumerate(zip(t_years, t_steps)):
        idx = np.flatnonzero(seen[k])
        for dt, n_steps in zip(dt_years, dt_steps):
            if curves is None or len(idx) == 0:   # no scorer, or no eye at risk (past the grid)
                risks = np.zeros(len(idx))
            else:
                risks = window_risks(curves[k, idx], t_step, n_steps)
            cells[(t, dt)] = RiskCell(risks=risks, event_steps=steps[idx], censored=cens[idx],
                                      horizon_step=t_step + n_steps)
    return cells


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    model: str
    metric: str
    t_years: float
    dt_years: float
    estimate: float | None = None
    boot_mean: float | None = None
    ci_lo: float | None = None
    ci_hi: float | None = None
    p_adjusted: float | None = None
    significance: str = "NA"
    n_pairs: int = 0
    n_risk_set: int = 0
    samples: np.ndarray | None = field(default=None, repr=False)


REPORT_HEADER = tuple(f.name for f in fields(ReportRow) if f.name != "samples")
SAMPLES_HEADER = ("model", "metric", "t_years", "dt_years", "sample_index", "value")


def write_report(path: str, rows: list[ReportRow]) -> None:
    write_table(path, REPORT_HEADER, ([getattr(r, name) for name in REPORT_HEADER]
                                      for r in rows))


def write_samples(path: str, rows: list[ReportRow]) -> None:
    """``write_table``'s bytes, with a row's four constant fields formatted once."""
    lines = ["\t".join(SAMPLES_HEADER)]
    for r in rows:
        if r.samples is not None:
            cell = "\t".join(map(_field, (r.model, r.metric, r.t_years, r.dt_years)))
            lines.extend(f"{cell}\t{k}\t{v!r}" for k, v in enumerate(r.samples.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
