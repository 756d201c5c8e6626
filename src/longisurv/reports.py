"""Report assembly: evaluation grids, model comparisons, attention analysis.

Evaluation and comparison rows come from one row builder. One set of
bootstrap draws per prediction time scores every cell, metric and source
of it, so a checkpoint compared with itself gets identical samples and a
flat Welch P of 0.5 in every cell. The tokens "oracle", "anti-oracle" and
"random" score the simulator's hidden ground truth, its complement (1 - r for
each window risk r) and seeded uniform noise through the same pipeline as
model checkpoints.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyCellError, write_table
from .metrics import (DEFAULT_DT_YEARS, DEFAULT_T_YEARS, ModelScorer, OracleScorer,
                      ReportRow, bonferroni, bootstrap_ci, build_risk_cells,
                      pair_concordance, stars, welch_one_sided)
from .model import KIND_LONGITUDINAL, extract_attention, forward_sequences, load_checkpoint
from .survival import TimeGrid
from .synthcohort import EyeRecord, stream

SPECIAL_SOURCES = ("oracle", "anti-oracle", "random")


@dataclass
class RiskSource:
    """One evaluable risk model: a checkpoint or a synthetic reference."""

    name: str
    scorer: object = None
    anti: bool = False
    random_seed: int | None = None

    def cells(self, eyes, grid, t_years, dt_years) -> dict:
        """The scorer's cells, then 1 - r for the anti-oracle or seeded noise for ``random``."""
        cells = build_risk_cells(self.scorer, eyes, grid, t_years=t_years, dt_years=dt_years)
        for (t, dt), c in cells.items():
            if self.anti:
                c.risks = 1.0 - c.risks
            elif self.random_seed is not None:
                c.risks = stream(self.random_seed, int(t * 12), int(dt * 12)).random(len(c.risks))
        return cells


def source_from_token(token: str, seed: int = 0) -> RiskSource:
    """Map a CLI checkpoint argument to a risk source."""
    if token == "oracle":
        return RiskSource(name="oracle", scorer=OracleScorer())
    if token == "anti-oracle":
        return RiskSource(name="anti-oracle", scorer=OracleScorer(), anti=True)
    if token == "random":
        return RiskSource(name="random", random_seed=seed)
    scorer = ModelScorer(*load_checkpoint(token))
    return RiskSource(name=scorer.cfg.kind, scorer=scorer)


def _score_rows(sources: list[RiskSource], eyes, grid, t_years, dt_years,
                n_bootstrap: int, seed: int, metrics: tuple) -> list[ReportRow]:
    """Rows per (cell, metric, source). The cells of a prediction time share
    its risk set, so one set of draws per time scores all of its rows. A
    value undefined on a draw is redrawn alone, so each row's samples are
    those of its own bootstrap; a row with no defined draw has no CI."""
    if n_bootstrap < 2:              # refused even when no cell would reach the bootstrap
        raise ConfigError("bootstrap needs at least 2 samples")
    past = [f"{t:g}" for t in t_years if grid.time_to_step(t) >= grid.j_max]
    if past:
        raise ConfigError(f"t-years {', '.join(past)} at or past the grid's last year, "
                          f"{grid.step_to_years(grid.j_max):g}: no eye is at risk")
    per_source = [s.cells(eyes, grid, t_years, dt_years) for s in sources]
    rows = []
    for t in t_years:
        scored = []                      # (row, cell) of every defined estimate
        for dt in dt_years:
            cells = [c[(t, dt)] for c in per_source]
            for metric in metrics:
                group = [ReportRow(model=s.name, metric=metric, t_years=t, dt_years=dt,
                                   n_risk_set=c.n_risk_set) for s, c in zip(sources, cells)]
                rows.extend(group)
                try:
                    for row, cell in zip(group, cells):
                        row.estimate, row.n_pairs = getattr(cell, metric)(), cell.n_pairs
                except EmptyCellError:
                    continue
                scored.extend(zip(group, cells))
        if not scored:
            continue
        at = pair_concordance([c.pairs for r, c in scored if r.metric == "concordance"])

        def statistic(idx):
            conc = iter(at(np.bincount(idx, minlength=len(idx))))
            return [next(conc) if row.metric == "concordance" else cell.brier(idx)
                    for row, cell in scored]
        try:
            boot = bootstrap_ci(scored[0][1].n_risk_set, statistic,
                                n_samples=n_bootstrap, seed=seed)
        except EmptyCellError:
            continue
        for j, (row, _) in enumerate(scored):
            if not np.isnan(boot.mean[j]):
                row.boot_mean, row.ci_lo, row.ci_hi = boot.mean[j], boot.lo95[j], boot.hi95[j]
                row.samples = boot.samples[:, j]
    return rows


def evaluate_source(source: RiskSource, eyes: list[EyeRecord], grid: TimeGrid,
                    t_years=DEFAULT_T_YEARS, dt_years=DEFAULT_DT_YEARS,
                    n_bootstrap: int = 1000, seed: int = 0) -> list[ReportRow]:
    """Point estimates plus bootstrap CIs for every grid cell, concordance then Brier."""
    return _score_rows([source], eyes, grid, t_years, dt_years, n_bootstrap,
                       seed, ("concordance", "brier"))


def compare_sources(source_a: RiskSource, source_b: RiskSource,
                    eyes: list[EyeRecord], grid: TimeGrid,
                    t_years=DEFAULT_T_YEARS, dt_years=DEFAULT_DT_YEARS,
                    n_bootstrap: int = 1000, seed: int = 0) -> list[ReportRow]:
    """Concordance rows, A then B per cell; A's rows carry the adjusted P.

    P tests the alternative that A's mean bootstrapped concordance exceeds
    B's, over the draws both sources were scored on.
    """
    rows = _score_rows([source_a, source_b], eyes, grid, t_years, dt_years,
                       n_bootstrap, seed, ("concordance",))
    for ra, rb in zip(rows[::2], rows[1::2]):
        if ra.samples is not None:
            p_adj = bonferroni(welch_one_sided(ra.samples, rb.samples))
            ra.p_adjusted, ra.significance = p_adj, stars(p_adj)
    return rows


# ---------------------------------------------------------------------------
# attention analysis
# ---------------------------------------------------------------------------

OFFSET_BIN_START = 10   # offsets this far back are pooled into one bin


@dataclass
class AttentionReport:
    rows: list                      # (eye_id, n_visits, offset, score)
    fraction_last_max: float | None     # over multi-visit eyes; None without one
    offset_labels: list
    offset_medians: list
    offset_counts: list
    pearson_r: float | None


def attention_analysis(scorer: ModelScorer, eyes: list[EyeRecord]) -> AttentionReport:
    """Normalized attention scores per visit plus the recency summary.

    Scores come from one ``ModelScorer.batches`` pass, from the final layer at
    each eye's last visit, head-averaged and normalized to a max of 1. Offsets
    count visits back from the last one; offsets >= 10 are pooled into a single
    display bin. The share of eyes whose last visit holds the top score, the
    offset medians and the Pearson correlation between offsets 0..9 and their
    medians all use multi-visit eyes only: a single visit trivially scores 1.
    """
    if not isinstance(scorer, ModelScorer) or scorer.cfg.kind != KIND_LONGITUDINAL:
        raise ConfigError("attention analysis needs a longitudinal checkpoint")
    rows, by_bin = [], {}
    for start, batch in scorer.batches(eyes, [e.n_visits for e in eyes]):
        fp = forward_sequences(scorer.params, scorer.cfg, batch)
        per_eye = [extract_attention(fp, i) for i in range(len(batch.valid))]
        del fp                            # the chunk's graph dies before the next forward
        for eye, scores in zip(eyes[start:], per_eye):
            j_i = len(scores)
            for k, s in enumerate(scores):
                offset, score = j_i - 1 - k, float(s)
                rows.append((eye.eye_id, j_i, offset, score))
                if j_i > 1:
                    by_bin.setdefault(min(offset, OFFSET_BIN_START), []).append(score)
    labels, medians, counts = [], [], []
    for b in sorted(by_bin):
        labels.append(f"{b}+" if b == OFFSET_BIN_START else str(b))
        medians.append(float(np.median(by_bin[b])))
        counts.append(len(by_bin[b]))
    xs = np.array([b for b in sorted(by_bin) if b < OFFSET_BIN_START], dtype=float)
    ys = np.array(medians[:len(xs)])          # the pooled bin sorts last
    pearson = None
    if len(xs) >= 3 and ys.std() > 0:
        pearson = float(np.corrcoef(xs, ys)[0, 1])
    # bin 0: one score per multi-visit eye, exactly 1.0 where the last visit tops
    return AttentionReport(rows=rows,
                           fraction_last_max=(float(np.mean(np.array(by_bin[0]) == 1.0))
                                              if 0 in by_bin else None),
                           offset_labels=labels, offset_medians=medians,
                           offset_counts=counts, pearson_r=pearson)


ATTENTION_HEADER = ("eye_id", "n_visits", "offset", "score")
SUMMARY_HEADER = ("offset", "median_score", "n_images")


def write_attention(path: str, report: AttentionReport) -> None:
    write_table(path, ATTENTION_HEADER, report.rows)


def write_attention_summary(path: str, report: AttentionReport) -> None:
    """The per-offset medians, a blank line, then two key/value lines."""
    write_table(path, SUMMARY_HEADER, [
        *zip(report.offset_labels, report.offset_medians, report.offset_counts), (),
        ("fraction_last_visit_max", report.fraction_last_max),
        ("pearson_offset_median", report.pearson_r)])
