import dataclasses
import weakref

import numpy as np
import pytest

from longisurv import metrics, reports
from longisurv.errors import ConfigError, EmptyCellError
from longisurv.metrics import (DEFAULT_DT_YEARS, DEFAULT_T_YEARS, ModelScorer, bootstrap_ci,
                               brier_td, concordance_td)
from longisurv.model import ModelConfig, forward_sequences, init_params
from longisurv.reports import (AttentionReport, RiskSource, attention_analysis,
                               compare_sources, evaluate_source, source_from_token,
                               write_attention, write_attention_summary)
from longisurv.synthcohort import CohortConfig, generate_cohort


@pytest.fixture(scope="module")
def cohort():
    cfg = CohortConfig(n_patients=80, seed=31, target_censoring=0.7,
                       hazard_intercept=-11.0)
    return generate_cohort(cfg), cfg


class TestSources:
    def test_special_tokens(self):
        assert source_from_token("oracle").name == "oracle"
        anti = source_from_token("anti-oracle")
        assert anti.anti
        rnd = source_from_token("random", seed=4)
        assert rnd.random_seed == 4

    def test_evaluate_rows_have_ci_ordering(self, cohort):
        eyes, cfg = cohort
        rows = evaluate_source(source_from_token("oracle"), eyes, cfg.grid,
                               t_years=(1.0, 3.0), dt_years=(2.0, 5.0),
                               n_bootstrap=50, seed=1)
        assert len(rows) == 2 * 2 * 2
        seen_ci = 0
        for r in rows:
            if r.ci_lo is not None:
                seen_ci += 1
                assert r.ci_lo <= r.boot_mean <= r.ci_hi
                assert r.n_risk_set > 0
        assert seen_ci > 0

    def test_compare_attaches_p_to_first_source(self, cohort):
        eyes, cfg = cohort
        rows = compare_sources(source_from_token("oracle"),
                               source_from_token("anti-oracle"),
                               eyes, cfg.grid, t_years=(2.0,), dt_years=(5.0,),
                               n_bootstrap=60, seed=2)
        a = [r for r in rows if r.model == "oracle"][0]
        b = [r for r in rows if r.model == "anti-oracle"][0]
        assert a.p_adjusted is not None and a.p_adjusted <= 0.05
        assert b.p_adjusted is None

    def test_compare_rows_equal_evaluate_rows(self, cohort, caplog):
        eyes, cfg = cohort
        pairs = [("oracle", "anti-oracle"), ("random", "oracle")]
        for token_a, token_b in pairs:
            sources = [source_from_token(token_a, seed=5),
                       source_from_token(token_b, seed=5)]
            with caplog.at_level("INFO", logger="longisurv.metrics"):
                caplog.clear()
                rows = compare_sources(*sources, eyes, cfg.grid, n_bootstrap=40, seed=7)
            assert "redrew" in caplog.text        # some cells redraw
            alone = {s.name: [r for r in evaluate_source(s, eyes, cfg.grid, n_bootstrap=40,
                                                          seed=7) if r.metric == "concordance"]
                     for s in sources}
            assert len(rows) == 2 * len(alone[sources[0].name])
            for k, row in enumerate(rows):
                ref = alone[row.model][k // 2]
                assert (row.t_years, row.dt_years) == (ref.t_years, ref.dt_years)
                assert (row.estimate, row.boot_mean, row.ci_lo, row.ci_hi, row.n_pairs) == \
                       (ref.estimate, ref.boot_mean, ref.ci_lo, ref.ci_hi, ref.n_pairs)
                if ref.samples is None:
                    assert row.samples is None
                else:
                    assert row.samples.tobytes() == ref.samples.tobytes()

    def test_rows_equal_one_bootstrap_per_cell(self, cohort, caplog):
        eyes, cfg = cohort
        stats = {"concordance": concordance_td, "brier": brier_td}

        def reference(cell, metric):
            """(estimate, bootstrap) of one cell and metric, scored on its own."""
            stat = stats[metric]
            args = (cell.event_steps, cell.censored)
            try:
                estimate = stat(cell.risks, *args, cell.horizon_step)
            except EmptyCellError:
                return None, None
            try:
                return estimate, bootstrap_ci(
                    cell.n_risk_set,
                    lambda idx: stat(cell.risks[idx], *(a[idx] for a in args),
                                     cell.horizon_step),
                    n_samples=40, seed=7)
            except EmptyCellError:
                return estimate, None

        def check(rows, cells_of):
            """Count of rows without a CI, after checking every row."""
            undefined = 0
            for row in rows:
                cell = cells_of[row.model][(row.t_years, row.dt_years)]
                estimate, boot = reference(cell, row.metric)
                assert row.estimate == estimate
                if boot is None:
                    undefined += 1
                    assert row.samples is None and row.ci_lo is None and row.boot_mean is None
                    continue
                assert (row.boot_mean, row.ci_lo, row.ci_hi) == \
                       (boot.mean, boot.lo95, boot.hi95)
                assert row.samples.tobytes() == boot.samples.tobytes()
            return undefined

        sources = {t: source_from_token(t, seed=5) for t in ("oracle", "anti-oracle", "random")}
        cells_of = {s.name: s.cells(eyes, cfg.grid, DEFAULT_T_YEARS, DEFAULT_DT_YEARS)
                    for s in sources.values()}
        for token_a, token_b in [("oracle", "anti-oracle"), ("random", "oracle")]:
            with caplog.at_level("INFO", logger="longisurv.metrics"):
                caplog.clear()
                rows = compare_sources(sources[token_a], sources[token_b], eyes, cfg.grid,
                                       n_bootstrap=40, seed=7)
            assert "redrew" in caplog.text        # some cells redraw
            assert 0 < check(rows, cells_of) < len(rows)
        for source in sources.values():
            rows = evaluate_source(source, eyes, cfg.grid, n_bootstrap=40, seed=7)
            assert {r.metric for r in rows} == {"concordance", "brier"}
            assert 0 < check(rows, cells_of) < len(rows)
            check([r for r in evaluate_source(source, eyes, cfg.grid, n_bootstrap=40, seed=7)
                   if r.metric == "brier"], cells_of)

    def test_evaluate_keeps_a_row_whose_bootstrap_fails(self, cohort, monkeypatch):
        def no_defined_draw(*args, **kwargs):
            raise EmptyCellError("statistic undefined on 100 consecutive redraws")

        monkeypatch.setattr(reports, "bootstrap_ci", no_defined_draw)
        eyes, cfg = cohort
        rows = evaluate_source(source_from_token("oracle"), eyes, cfg.grid,
                               t_years=(1.0,), dt_years=(8.0,), n_bootstrap=10)
        assert [r.metric for r in rows] == ["concordance", "brier"]
        for r in rows:
            assert r.estimate is not None and r.n_pairs > 0
            assert r.ci_lo is None and r.samples is None

    def test_random_source_near_half(self, cohort):
        eyes, cfg = cohort
        rows = evaluate_source(RiskSource(name="random", random_seed=3),
                               eyes, cfg.grid, t_years=(1.0,), dt_years=(8.0,),
                               n_bootstrap=30, seed=3)
        est = [r for r in rows if r.metric == "concordance"][0].estimate
        assert est is not None and 0.2 < est < 0.8

    def test_event_free_cohort_bootstraps_brier_alone(self, monkeypatch):
        """No event, so no cell has an anchor: each time's draws score its
        Brier rows alone, and every concordance row is NA."""
        cfg = CohortConfig(n_patients=30, seed=4, hazard_intercept=-60.0,
                           target_censoring=None)
        eyes = generate_cohort(cfg)
        assert all(e.outcome.censored for e in eyes)
        tables = []
        real = reports.pair_concordance
        monkeypatch.setattr(reports, "pair_concordance", lambda t: tables.append(t) or real(t))
        rows = evaluate_source(source_from_token("oracle"), eyes, cfg.grid,
                               n_bootstrap=20, seed=1)
        assert tables and all(t == [] for t in tables)
        briers = [r for r in rows if r.metric == "brier" and r.n_risk_set]
        assert briers
        for r in rows:
            if r.metric == "concordance":
                assert r.estimate is None and r.samples is None and r.n_pairs == 0
        for r in briers:
            assert r.estimate is not None and r.ci_lo <= r.boot_mean <= r.ci_hi
            assert len(r.samples) == 20

    def test_time_past_the_grid_has_no_estimate(self, cohort, monkeypatch):
        """14 years is past the 6-month grid's 13.5: no eye is at risk, so the
        time is refused before any cell is built."""
        eyes, cfg = cohort
        monkeypatch.setattr(reports, "build_risk_cells", lambda *a, **kw: pytest.fail("built"))
        with pytest.raises(ConfigError, match=r"t-years 14 at or past .* 13\.5"):
            evaluate_source(source_from_token("oracle"), eyes, cfg.grid,
                            t_years=(1.0, 14.0), n_bootstrap=20, seed=1)


def test_one_pair_table_per_cell_and_source(cohort, monkeypatch):
    """Scoring a (cell, source) builds its pair table once, for the estimate,
    the pair count and every bootstrap draw."""
    eyes, cfg = cohort
    sources = [source_from_token("oracle"), source_from_token("random", seed=5)]
    n_cells = [len(s.cells(eyes, cfg.grid, DEFAULT_T_YEARS, DEFAULT_DT_YEARS))
               for s in sources]
    assert n_cells == [20, 20]
    calls = []                                  # each call's cell, by its risks array
    real = metrics.pair_table
    monkeypatch.setattr(metrics, "pair_table", lambda *a: calls.append(id(a[0])) or real(*a))
    evaluate_source(sources[0], eyes, cfg.grid, n_bootstrap=20, seed=1)
    assert len(calls) == len(set(calls)) == n_cells[0]
    calls.clear()
    # a cell that A leaves without a concordance is not scored for B
    compare_sources(*sources, eyes, cfg.grid, n_bootstrap=20, seed=1)
    assert len(calls) == len(set(calls)) and n_cells[0] <= len(calls) <= sum(n_cells)


@pytest.fixture(scope="module")
def long_sequences():
    cfg = CohortConfig(n_patients=10, seed=9, target_censoring=1.0,
                       hazard_slope=0.0, hazard_intercept=-40.0,
                       min_gap_steps=1, max_gap_steps=1, min_admin_steps=27)
    eyes = generate_cohort(cfg)
    model_cfg = ModelConfig(kind="longitudinal", embed_dim=8, n_layers=1,
                            n_heads=2, j_max=27, step_months=6,
                            image_size=32, conv_widths=(2, 4, 4))
    params = init_params(model_cfg, seed=1)
    record = {"model": model_cfg.to_dict(),
              "pixel_mean": [0.2], "pixel_std": [0.2]}
    return params, record, eyes


class TestAttentionAnalysis:
    def test_offsets_binned_at_ten(self, long_sequences):
        params, record, eyes = long_sequences
        report = attention_analysis(ModelScorer(params, record), eyes)
        assert report.offset_labels[-1] == "10+"
        assert report.offset_labels[:3] == ["0", "1", "2"]
        assert 0.0 <= report.fraction_last_max <= 1.0
        assert report.pearson_r is not None

    def test_untrained_model_attends_near_uniformly(self, long_sequences):
        # with random weights the max lands at the last visit about as often
        # as anywhere else (~1/J per eye), far below a trained recency bias
        params, record, eyes = long_sequences
        report = attention_analysis(ModelScorer(params, record), eyes)
        mean_inverse_j = float(np.mean([1.0 / e.n_visits for e in eyes]))
        assert report.fraction_last_max <= mean_inverse_j + 0.3

    def test_last_visit_share_counts_multi_visit_eyes(self, long_sequences, tmp_path):
        """A single visit is trivially its own top score, so the share of eyes
        whose last visit scores highest leaves single-visit eyes out; with
        none left it is NA."""
        params, record, eyes = long_sequences
        scorer = ModelScorer(params, record)

        def first_visit(e):
            return dataclasses.replace(e, visit_months=e.visit_months[:1], images=e.images[:1])

        mixed = [first_visit(e) if k % 2 else e for k, e in enumerate(eyes)]
        report = attention_analysis(scorer, mixed)
        last_max = {}
        for eye_id, j_i, offset, score in report.rows:
            if j_i > 1 and offset == 0:
                last_max[eye_id] = score == max(s for e, _, _, s in report.rows if e == eye_id)
        assert len(last_max) == len(eyes) // 2
        assert report.fraction_last_max == sum(last_max.values()) / len(last_max) < 1.0

        report = attention_analysis(scorer, [first_visit(e) for e in eyes])
        assert report.fraction_last_max is None
        write_attention_summary(str(tmp_path / "single.tsv"), report)
        assert "fraction_last_visit_max\tNA\n" in (tmp_path / "single.tsv").read_text()

    def test_rows_cover_every_visit(self, long_sequences):
        params, record, eyes = long_sequences
        report = attention_analysis(ModelScorer(params, record), eyes)
        assert len(report.rows) == sum(e.n_visits for e in eyes)
        scores = np.array([r[3] for r in report.rows])
        assert scores.max() == 1.0
        assert np.all((scores > 0) & (scores <= 1.0))

    def test_no_chunk_graph_outlives_its_scores(self, long_sequences, monkeypatch):
        # the hazards array is a graph node's value, so it dies only with the pass
        params, record, eyes = long_sequences
        refs, alive = [], []

        def recording_forward(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            fp = forward_sequences(*args, **kwargs)
            refs.extend((weakref.ref(fp), weakref.ref(fp.hazards)))
            return fp

        monkeypatch.setattr(reports, "forward_sequences", recording_forward)
        monkeypatch.setattr(metrics, "CHUNK_EYES", 3)
        attention_analysis(ModelScorer(params, record), eyes)
        assert len(alive) > 2 and alive == [0] * len(alive)

    def test_baseline_record_rejected(self, cohort):
        model_cfg = ModelConfig(kind="baseline", embed_dim=8, n_heads=2,
                                conv_widths=(2, 4, 4))
        record = {"model": model_cfg.to_dict(), "pixel_mean": [0], "pixel_std": [1]}
        with pytest.raises(ConfigError):
            attention_analysis(ModelScorer({}, record), [])

    def test_summary_writer_deterministic(self, long_sequences, tmp_path):
        params, record, eyes = long_sequences
        report = attention_analysis(ModelScorer(params, record), eyes)
        write_attention_summary(str(tmp_path / "a.tsv"), report)
        write_attention_summary(str(tmp_path / "b.tsv"), report)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        # the exact bytes, with the blank line and a Pearson r too few bins give
        pinned = AttentionReport(rows=[("p00_e0", 2, 1, 0.5), ("p00_e0", 2, 0, 1.0)],
                                 fraction_last_max=1.0, offset_labels=["0", "1"],
                                 offset_medians=[1.0, 0.5], offset_counts=[1, 1],
                                 pearson_r=None)
        write_attention_summary(str(tmp_path / "pinned.tsv"), pinned)
        assert (tmp_path / "pinned.tsv").read_text() == (
            "offset\tmedian_score\tn_images\n0\t1.0\t1\n1\t0.5\t1\n\n"
            "fraction_last_visit_max\t1.0\npearson_offset_median\tNA\n")
        write_attention(str(tmp_path / "rows.tsv"), pinned)
        assert (tmp_path / "rows.tsv").read_text() == (
            "eye_id\tn_visits\toffset\tscore\np00_e0\t2\t1\t0.5\np00_e0\t2\t0\t1.0\n")
