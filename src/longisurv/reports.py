"""Report assembly: evaluation grids, model comparisons, attention analysis.

Comparison resamples are shared: both risk sources see the same bootstrap
draws (same seed, same counter-based streams), so comparing a checkpoint
against itself yields identical samples and a flat Welch P of 0.5 in every
cell. Special source tokens "oracle", "anti-oracle" and "random" evaluate
the simulator's hidden ground truth, its negation, and seeded uniform
noise through the same pipeline as model checkpoints.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyCellError
from .metrics import (BONFERRONI_M, CHUNK_EYES, DEFAULT_DT_YEARS, DEFAULT_T_YEARS,
                      ModelScorer, OracleScorer, ReportRow, bonferroni,
                      bootstrap_ci, build_risk_cells, comparable_pairs, stars,
                      welch_one_sided)
from .model import extract_attention, forward_sequences, load_checkpoint, ModelConfig
from .survival import TimeGrid
from .synthcohort import EyeRecord, prepare_batch

log = logging.getLogger(__name__)

SPECIAL_SOURCES = ("oracle", "anti-oracle", "random")


@dataclass
class RiskSource:
    """One evaluable risk model: a checkpoint or a synthetic reference."""

    name: str
    scorer: object = None
    anti: bool = False
    random_seed: int | None = None

    def cells(self, eyes, grid, t_years, dt_years) -> dict:
        return build_risk_cells(self.scorer, eyes, grid, t_years=t_years,
                                dt_years=dt_years, rng_anti=self.anti,
                                random_seed=self.random_seed)


def source_from_token(token: str, seed: int = 0) -> RiskSource:
    """Map a CLI checkpoint argument to a risk source."""
    if token == "oracle":
        return RiskSource(name="oracle", scorer=OracleScorer())
    if token == "anti-oracle":
        return RiskSource(name="anti-oracle", scorer=OracleScorer(), anti=True)
    if token == "random":
        return RiskSource(name="random", random_seed=seed)
    params, record = load_checkpoint(token)
    scorer = ModelScorer(params, record)
    return RiskSource(name=scorer.name, scorer=scorer)


def evaluate_source(source: RiskSource, eyes: list[EyeRecord], grid: TimeGrid,
                    t_years=DEFAULT_T_YEARS, dt_years=DEFAULT_DT_YEARS,
                    n_bootstrap: int = 1000, seed: int = 0,
                    metrics: tuple = ("concordance", "brier")) -> list[ReportRow]:
    """Point estimates plus bootstrap CIs for every grid cell and metric."""
    cells = source.cells(eyes, grid, t_years, dt_years)
    rows = []
    for (t, dt), cell in cells.items():
        for metric in metrics:
            row = ReportRow(model=source.name, metric=metric, t_years=t,
                            dt_years=dt, estimate=None, boot_mean=None,
                            ci_lo=None, ci_hi=None, p_adjusted=None,
                            significance="NA", n_pairs=0,
                            n_risk_set=0 if cell is None else cell.n_risk_set)
            if cell is not None:
                stat = cell.concordance if metric == "concordance" else cell.brier
                try:
                    row.estimate = stat()
                except EmptyCellError:
                    rows.append(row)
                    continue
                row.n_pairs = comparable_pairs(cell.event_steps, cell.censored,
                                               cell.horizon_step)
                boot = bootstrap_ci(cell.n_risk_set, lambda idx: stat(idx),
                                    n_samples=n_bootstrap, seed=seed)
                row.boot_mean = boot.mean
                row.ci_lo = boot.lo95
                row.ci_hi = boot.hi95
                row.samples = boot.samples
            rows.append(row)
    return rows


def compare_sources(source_a: RiskSource, source_b: RiskSource,
                    eyes: list[EyeRecord], grid: TimeGrid,
                    t_years=DEFAULT_T_YEARS, dt_years=DEFAULT_DT_YEARS,
                    n_bootstrap: int = 1000, seed: int = 0,
                    m_comparisons: int = BONFERRONI_M) -> list[ReportRow]:
    """Concordance rows for both sources; A's rows carry the adjusted P.

    Both sources are bootstrapped over the same resample streams so the
    Welch test compares like with like; P tests the alternative that A's
    mean bootstrapped concordance exceeds B's.
    """
    cells_a = source_a.cells(eyes, grid, t_years, dt_years)
    cells_b = source_b.cells(eyes, grid, t_years, dt_years)
    rows = []
    for (t, dt) in cells_a:
        cell_a, cell_b = cells_a[(t, dt)], cells_b[(t, dt)]
        pair_rows = {}
        for name, cell in ((source_a.name, cell_a), (source_b.name, cell_b)):
            row = ReportRow(model=name, metric="concordance", t_years=t,
                            dt_years=dt, estimate=None, boot_mean=None,
                            ci_lo=None, ci_hi=None, p_adjusted=None,
                            significance="NA", n_pairs=0,
                            n_risk_set=0 if cell is None else cell.n_risk_set)
            if cell is not None:
                try:
                    row.estimate = cell.concordance()
                    row.n_pairs = comparable_pairs(cell.event_steps, cell.censored,
                                                   cell.horizon_step)
                    boot = bootstrap_ci(cell.n_risk_set,
                                        lambda idx: cell.concordance(idx),
                                        n_samples=n_bootstrap, seed=seed)
                    row.boot_mean = boot.mean
                    row.ci_lo = boot.lo95
                    row.ci_hi = boot.hi95
                    row.samples = boot.samples
                except EmptyCellError:
                    pass
            pair_rows[name] = row
            rows.append(row)
        ra, rb = pair_rows[source_a.name], pair_rows[source_b.name]
        if ra.samples is not None and rb.samples is not None:
            p_adj = bonferroni(welch_one_sided(ra.samples, rb.samples),
                               m_comparisons)
            ra.p_adjusted = p_adj
            ra.significance = stars(p_adj)
    return rows


# ---------------------------------------------------------------------------
# attention analysis
# ---------------------------------------------------------------------------

OFFSET_BIN_START = 10   # offsets this far back are pooled into one bin


@dataclass
class AttentionReport:
    rows: list                      # (eye_id, n_visits, offset, score)
    fraction_last_max: float
    offset_labels: list
    offset_medians: list
    offset_counts: list
    pearson_r: float | None


def attention_analysis(params: dict, record: dict,
                       eyes: list[EyeRecord]) -> AttentionReport:
    """Normalized attention scores per visit plus the recency summary.

    Scores come from the final layer at each eye's last visit, head-averaged
    and normalized to a max of 1. Offsets count visits back from the last
    one; offsets >= 10 are pooled into a single display bin. The Pearson
    correlation is computed between offsets 0..9 and their median scores,
    using multi-visit eyes only.
    """
    cfg = ModelConfig.from_dict(record["model"])
    if cfg.kind != "longitudinal":
        raise ConfigError("attention analysis needs a longitudinal checkpoint")
    rows = []
    n_last_max = 0
    for start in range(0, len(eyes), CHUNK_EYES):
        part = eyes[start:start + CHUNK_EYES]
        batch = prepare_batch(part, max(e.n_visits for e in part), record["pixel_mean"],
                              record["pixel_std"], cfg.np_dtype)
        fp = forward_sequences(params, cfg, batch)
        for i, eye in enumerate(part):
            scores = extract_attention(fp, i)
            j_i = len(scores)
            if scores[-1] == scores.max():
                n_last_max += 1
            for k, s in enumerate(scores):
                rows.append((eye.eye_id, j_i, j_i - 1 - k, float(s)))

    by_bin: dict[int, list] = {}
    for eye_id, j_i, offset, score in rows:
        if j_i < 2:
            continue                      # single-visit eyes trivially score 1
        by_bin.setdefault(min(offset, OFFSET_BIN_START), []).append(score)
    labels, medians, counts = [], [], []
    for b in sorted(by_bin):
        labels.append(f"{b}+" if b == OFFSET_BIN_START else str(b))
        medians.append(float(np.median(by_bin[b])))
        counts.append(len(by_bin[b]))
    unbinned = [(b, np.median(by_bin[b])) for b in sorted(by_bin)
                if b < OFFSET_BIN_START]
    pearson = None
    if len(unbinned) >= 3:
        xs = np.array([b for b, _ in unbinned], dtype=float)
        ys = np.array([m for _, m in unbinned], dtype=float)
        if ys.std() > 0:
            pearson = float(np.corrcoef(xs, ys)[0, 1])
    return AttentionReport(rows=rows, fraction_last_max=n_last_max / len(eyes),
                           offset_labels=labels, offset_medians=medians,
                           offset_counts=counts, pearson_r=pearson)


def write_attention(path: str, report: AttentionReport) -> None:
    lines = ["eye_id\tn_visits\toffset\tscore"]
    for eye_id, j_i, offset, score in report.rows:
        lines.append(f"{eye_id}\t{j_i}\t{offset}\t{score!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_attention_summary(path: str, report: AttentionReport) -> None:
    lines = ["offset\tmedian_score\tn_images"]
    for label, med, cnt in zip(report.offset_labels, report.offset_medians,
                               report.offset_counts):
        lines.append(f"{label}\t{med!r}\t{cnt}")
    lines.append("")
    lines.append(f"fraction_last_visit_max\t{report.fraction_last_max!r}")
    lines.append(f"pearson_offset_median\t"
                 f"{'NA' if report.pearson_r is None else repr(report.pearson_r)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
