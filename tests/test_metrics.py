import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from longisurv import diffgraph, metrics
from longisurv.encoders import standardize
from longisurv.errors import DataError, DegenerateConditioningError, EmptyCellError
from longisurv.metrics import (DEFAULT_DT_YEARS, DEFAULT_T_YEARS, concordance_td, brier_td,
                               bootstrap_ci, welch_one_sided, bonferroni, stars,
                               visits_seen, window_risks,
                               build_risk_cells, OracleScorer, ModelScorer,
                               ReportRow, write_report, write_samples)
from longisurv.model import (ModelConfig, forward_sequences,
                             forward_single_images, init_params)
from longisurv.reports import RiskSource, attention_analysis
from longisurv.survival import EventOutcome, TimeGrid, hazard_to_survival
from longisurv.synthcohort import (CohortConfig, EyeRecord, generate_cohort,
                                   pad_and_batch)


def naive_concordance(risks, steps, cens, horizon):
    """Independent exhaustive pair enumeration."""
    num = den = 0.0
    for i in range(len(risks)):
        if cens[i] or steps[i] >= horizon:
            continue
        for j in range(len(risks)):
            if steps[j] > steps[i]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    if den == 0:
        raise EmptyCellError("naive: no pairs")
    return num / den


def naive_brier(risks, steps, cens, horizon):
    total = 0.0
    for i in range(len(risks)):
        ind = 1.0 if (steps[i] < horizon and not cens[i]) else 0.0
        total += (ind - risks[i]) ** 2
    return total / len(risks)


def random_instance(rng, n):
    risks = rng.random(n)
    steps = rng.integers(1, 20, size=n)
    cens = rng.random(n) < 0.6
    horizon = int(rng.integers(2, 22))
    return risks, steps, cens, horizon


class TestConcordance:
    def test_single_concordant_pair(self):
        # eye A: event at year 3 (step 6), eye B censored at year 8 (step 16)
        c = concordance_td(np.array([0.9, 0.1]), np.array([6, 16]),
                           np.array([False, True]), horizon_step=12)
        assert c == 1.0

    def test_tie_counts_half(self):
        c = concordance_td(np.array([0.4, 0.4]), np.array([6, 16]),
                           np.array([False, True]), horizon_step=12)
        assert c == 0.5

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            risks, steps, cens, horizon = random_instance(rng, int(rng.integers(3, 30)))
            try:
                fast = concordance_td(risks, steps, cens, horizon)
            except EmptyCellError:
                with pytest.raises(EmptyCellError):
                    naive_concordance(risks, steps, cens, horizon)
                continue
            assert abs(fast - naive_concordance(risks, steps, cens, horizon)) <= 1e-12

    def test_empty_cell_is_a_signal_not_zero(self):
        with pytest.raises(EmptyCellError):
            concordance_td(np.array([0.5]), np.array([5]), np.array([True]), 10)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        risks, steps, cens, horizon = random_instance(rng, 25)
        a = concordance_td(risks, steps, cens, horizon)
        b = concordance_td(np.exp(3 * risks) + 7, steps, cens, horizon)
        assert a == b

    def test_negated_risks_give_one_minus_c(self):
        rng = np.random.default_rng(5)
        risks = rng.permutation(30) / 30.0          # distinct: no ties
        steps = rng.integers(1, 15, size=30)
        cens = rng.random(30) < 0.5
        try:
            a = concordance_td(risks, steps, cens, 12)
        except EmptyCellError:
            pytest.skip("degenerate draw")
        b = concordance_td(-risks, steps, cens, 12)
        assert a + b == pytest.approx(1.0, abs=1e-12)


@st.composite
def drawn_cells(draw):
    """A cell with risk ties, event-step ties and censoring, a few horizons,
    and one resample of its rows."""
    n = draw(st.integers(1, 12))
    risks = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                   min_size=n, max_size=n)))
    steps = np.array(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    cens = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    horizons = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return risks, steps, cens, horizons, idx


class TestPairCounts:
    @settings(max_examples=400, deadline=None)
    @given(drawn_cells())
    def test_multiplicities_give_the_resampled_concordance(self, case):
        risks, steps, cens, horizons, idx = case
        tables = [metrics.pair_table(risks, steps, cens, h) for h in horizons]
        with_anchor = [(h, t) for h, t in zip(horizons, tables) if len(t[0])]
        for h, (anchors, _) in zip(horizons, tables):
            if len(anchors) == 0:
                with pytest.raises(EmptyCellError):
                    concordance_td(risks, steps, cens, h)
        if not with_anchor:
            return
        counted = metrics.pair_concordance([t for _, t in with_anchor])(
            np.bincount(idx, minlength=len(risks)))
        for (h, _), c in zip(with_anchor, counted):
            try:
                expected = concordance_td(risks[idx], steps[idx], cens[idx], h)
            except EmptyCellError:
                assert np.isnan(c)
                continue
            assert np.float64(c).tobytes() == np.float64(expected).tobytes()


class TestBrier:
    def test_perfect_prediction(self):
        assert brier_td(np.array([1.0]), np.array([3]), np.array([False]), 5) == 0.0

    def test_worst_prediction(self):
        assert brier_td(np.array([0.0]), np.array([3]), np.array([False]), 5) == 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            risks, steps, cens, horizon = random_instance(rng, 10)
            assert brier_td(risks, steps, cens, horizon) == pytest.approx(
                naive_brier(risks, steps, cens, horizon), abs=1e-14)

    def test_event_fraction_predictor_beats_complement(self):
        rng = np.random.default_rng(7)
        steps = rng.integers(1, 12, size=100)
        cens = rng.random(100) < 0.6
        horizon = 8
        frac = float(((steps < horizon) & ~cens).mean())
        good = brier_td(np.full(100, frac), steps, cens, horizon)
        bad = brier_td(np.full(100, 1 - frac), steps, cens, horizon)
        assert good <= bad

    def test_empty_risk_set(self):
        with pytest.raises(EmptyCellError):
            brier_td(np.array([]), np.array([]), np.array([]), 5)


class TestBootstrap:
    def test_constant_statistic(self):
        res = bootstrap_ci(10, lambda idx: 0.7, n_samples=50, seed=1)
        assert res.lo95 == res.hi95 == 0.7
        assert res.mean == pytest.approx(0.7, abs=1e-12)

    def test_same_seed_identical_samples(self):
        data = np.random.default_rng(0).normal(size=25)
        a = bootstrap_ci(25, lambda i: data[i].mean(), n_samples=40, seed=9)
        b = bootstrap_ci(25, lambda i: data[i].mean(), n_samples=40, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_redraw_on_empty_cells(self):
        calls = {"n": 0}

        def statistic(idx):
            calls["n"] += 1
            if calls["n"] % 3 == 1:
                raise EmptyCellError("undefined")
            return float(idx.mean())

        res = bootstrap_ci(10, statistic, n_samples=20, seed=2)
        assert res.n_redraws > 0 and len(res.samples) == 20

    def test_gives_up_after_max_redraws(self, monkeypatch):
        def statistic(idx):
            raise EmptyCellError("always")

        monkeypatch.setattr(metrics, "MAX_REDRAWS", 4)
        with pytest.raises(EmptyCellError):
            bootstrap_ci(10, statistic, n_samples=5, seed=3)

    def test_values_share_draws_and_match_scalar_runs(self):
        data = np.random.default_rng(4).normal(size=12)

        def undefined_without_unit_0(idx):
            if idx.min() > 0:
                raise EmptyCellError("forced redraw")

        def mean(idx):
            undefined_without_unit_0(idx)
            return float(data[idx].mean())

        def spread(idx):
            undefined_without_unit_0(idx)
            return float(data[idx].std())

        both = bootstrap_ci(12, lambda idx: [mean(idx), spread(idx)],
                            n_samples=400, seed=6)
        assert both.n_redraws > 0 and len(both.samples) == 400
        for j, stat in enumerate((mean, spread)):
            alone = bootstrap_ci(12, stat, n_samples=400, seed=6)
            assert both.n_redraws == alone.n_redraws
            assert both.samples[:, j].tobytes() == alone.samples.tobytes()
            assert (both.mean[j], both.lo95[j], both.hi95[j]) == \
                   (alone.mean, alone.lo95, alone.hi95)

    def test_a_nan_value_is_redrawn_alone(self):
        data = np.random.default_rng(5).normal(size=9)

        def needs_unit_0(idx):
            if idx.min() > 0:
                raise EmptyCellError("unit 0 not drawn")
            return float(data[idx].mean())

        def spread(idx):
            return float(data[idx].std())

        def both(idx):
            return [np.nan if idx.min() > 0 else needs_unit_0(idx), spread(idx)]

        joint = bootstrap_ci(9, both, n_samples=300, seed=11)
        assert joint.n_redraws > 0
        for j, stat in enumerate((needs_unit_0, spread)):
            alone = bootstrap_ci(9, stat, n_samples=300, seed=11)
            assert joint.samples[:, j].tobytes() == alone.samples.tobytes()
            assert (joint.mean[j], joint.lo95[j], joint.hi95[j]) == \
                   (alone.mean, alone.lo95, alone.hi95)
        assert bootstrap_ci(9, spread, n_samples=300, seed=11).n_redraws == 0

    def test_a_value_never_defined_is_nan_and_the_rest_still_match(self, monkeypatch):
        data = np.random.default_rng(6).normal(size=40)

        def needs_unit_0(idx):
            if idx.min() > 0:
                raise EmptyCellError("unit 0 not drawn")
            return float(data[idx].mean())

        def both(idx):
            return [np.nan if idx.min() > 0 else needs_unit_0(idx), float(data[idx].std())]

        # unit 0 is missing from a draw of 40 with probability ~0.36, so
        # some sample finds it in none of 2 attempts
        monkeypatch.setattr(metrics, "MAX_REDRAWS", 2)
        joint = bootstrap_ci(40, both, n_samples=200, seed=3)
        with pytest.raises(EmptyCellError):
            bootstrap_ci(40, needs_unit_0, n_samples=200, seed=3)
        assert np.isnan([joint.mean[0], joint.lo95[0], joint.hi95[0]]).all()
        assert np.isnan(joint.samples[:, 0]).all()
        alone = bootstrap_ci(40, lambda idx: float(data[idx].std()), n_samples=200, seed=3)
        assert joint.samples[:, 1].tobytes() == alone.samples.tobytes()
        assert (joint.mean[1], joint.lo95[1], joint.hi95[1]) == \
               (alone.mean, alone.lo95, alone.hi95)

    def test_coverage_on_gaussian_mean(self):
        # percentile CI should cover the true mean ~95% of the time
        hits = 0
        n_trials = 1000
        base = np.random.default_rng(12345)
        for trial in range(n_trials):
            data = base.normal(loc=1.7, scale=1.0, size=100)
            res = bootstrap_ci(100, lambda i: float(data[i].mean()),
                               n_samples=400, seed=trial)
            hits += res.lo95 <= 1.7 <= res.hi95
        assert 0.93 <= hits / n_trials <= 0.97


def t_density(x, df):
    lognorm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
               - 0.5 * math.log(df * math.pi))
    return math.exp(lognorm - (df + 1) / 2 * math.log1p(x * x / df))


def welch_quadrature_oracle(a, b):
    """One-sided Welch P by numerical integration of the t density."""
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1) / na, b.var(ddof=1) / nb
    t = (a.mean() - b.mean()) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va ** 2 / (na - 1) + vb ** 2 / (nb - 1))
    if t >= 0:
        return quad(t_density, t, np.inf, args=(df,), epsabs=1e-12)[0]
    return 1.0 - quad(t_density, -t, np.inf, args=(df,), epsabs=1e-12)[0]


class TestWelch:
    def test_identical_samples_give_half(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert welch_one_sided(x, x.copy()) == pytest.approx(0.5)

    def test_separated_samples_tiny_p(self):
        a = 10 + 1e-4 * np.arange(10)
        b = 0 + 1e-4 * np.arange(10)
        assert welch_one_sided(a, b) < 1e-6

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=int(rng.integers(5, 60)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=int(rng.integers(5, 60)))
            assert welch_one_sided(a, b) == pytest.approx(
                welch_quadrature_oracle(a, b), abs=1e-6)

    def test_degenerate_zero_variance(self):
        a, b = np.full(5, 3.0), np.full(5, 1.0)
        assert welch_one_sided(a, b) == 0.0
        assert welch_one_sided(b, a) == 1.0

    def test_small_samples_rejected(self):
        with pytest.raises(DataError):
            welch_one_sided(np.array([1.0]), np.array([1.0, 2.0]))


class TestBonferroni:
    @pytest.mark.parametrize("raw,adj,label", [
        (0.001, 0.04, "*"),
        (0.5, 1.0, "ns"),
        (1e-6, 4e-5, "****"),
        (1e-4, 4e-3, "**"),
    ])
    def test_adjustment_and_stars(self, raw, adj, label):
        p = bonferroni(raw)
        assert p == pytest.approx(adj)
        assert stars(p) == label

    def test_raw_p_bounds(self):
        with pytest.raises(DataError):
            bonferroni(1.5)


class TestWindowRisks:
    def test_unconditional(self):
        s = np.array([1.0, 0.75])
        assert window_risks(s, 0, 2) == pytest.approx(0.25)

    def test_flat_survival_zero_risk(self):
        s = np.array([0.8, 0.8, 0.8])
        assert window_risks(s, 1, 1) == 0.0

    def test_conditional_arithmetic(self):
        s = np.array([0.5, 0.25])
        assert window_risks(s, 1, 1) == pytest.approx(0.5)

    def test_degenerate_conditioning(self):
        s = np.array([0.0, 0.0])
        with pytest.raises(DegenerateConditioningError):
            window_risks(s, 1, 1)

    @given(st.lists(st.floats(0.0, 0.6), min_size=4, max_size=20),
           st.data())
    def test_monotone_in_horizon(self, h, data):
        s = hazard_to_survival(h)
        t = data.draw(st.integers(0, len(h) - 2))
        d1 = data.draw(st.integers(1, len(h) - t - 1))
        d2 = data.draw(st.integers(d1, len(h) - t))
        assert window_risks(s, t, d1) <= window_risks(s, t, d2) + 1e-15


@pytest.fixture(scope="module")
def cohort():
    cfg = CohortConfig(n_patients=150, seed=21)
    return generate_cohort(cfg), cfg


class RecordingOracle(OracleScorer):
    """The oracle, keeping the visits-seen table ``build_risk_cells`` passes it."""

    def curves(self, eyes, seen):
        self.seen = seen
        return super().curves(eyes, seen)


ANTI_ORACLE = RiskSource(name="anti-oracle", scorer=OracleScorer(), anti=True)


class TestRiskCells:
    def test_risk_set_excludes_resolved_eyes(self, cohort):
        eyes, cfg = cohort
        t_step = cfg.grid.time_to_step(3.0)
        scorer = RecordingOracle()
        build_risk_cells(scorer, eyes, cfg.grid, t_years=(3.0,), dt_years=(1.0,))
        sel = np.flatnonzero(scorer.seen[0])
        for i in sel:
            assert eyes[i].outcome.event_step > t_step
        for i in set(range(len(eyes))) - set(sel):
            assert eyes[i].outcome.event_step <= t_step

    def test_eye_first_seen_after_t_is_outside_risk_set(self):
        """A late first visit keeps an eye out of each earlier time's risk set."""
        grid = TimeGrid(step_months=6, j_max=27)
        hz = np.full(27, 0.05)
        eyes = [EyeRecord("p0", "p0_e0", np.array([0, 12]), None, EventOutcome(20, True),
                          true_hazard=hz),
                EyeRecord("p1", "p1_e0", np.array([48, 54]), None, EventOutcome(18, False),
                          true_hazard=hz),                  # first seen at year 4
                EyeRecord("p2", "p2_e0", np.array([0]), None, EventOutcome(4, False),
                          true_hazard=hz)]                  # resolved at year 2
        scorer = RecordingOracle()
        cells = build_risk_cells(scorer, eyes, grid, t_years=(3.0, 4.0, 5.0),
                                 dt_years=(1.0,))
        np.testing.assert_array_equal(scorer.seen, [[2, 0, 0], [2, 1, 0], [2, 2, 0]])
        assert cells[(3.0, 1.0)].n_risk_set == 1
        np.testing.assert_array_equal(cells[(4.0, 1.0)].event_steps, [20, 18])
        np.testing.assert_array_equal(cells[(5.0, 1.0)].censored, [True, False])

    def test_cell_outcomes_are_its_members_outcomes(self, cohort):
        eyes, cfg = cohort
        scorer = RecordingOracle()
        cells = build_risk_cells(scorer, eyes, cfg.grid)
        for (t, dt), cell in cells.items():
            members = np.flatnonzero(scorer.seen[DEFAULT_T_YEARS.index(t)])
            assert cell.n_risk_set == len(members) > 0
            np.testing.assert_array_equal(
                cell.event_steps, [eyes[i].outcome.event_step for i in members])
            np.testing.assert_array_equal(
                cell.censored, [eyes[i].outcome.censored for i in members])

    def test_oracle_cells_cover_grid(self, cohort):
        eyes, cfg = cohort
        cells = build_risk_cells(OracleScorer(), eyes, cfg.grid)
        assert len(cells) == 20
        for cell in cells.values():
            assert np.all((cell.risks >= 0) & (cell.risks <= 1))

    def test_window_clamps_to_grid_end(self, cohort):
        eyes, cfg = cohort
        curves = np.stack([hazard_to_survival(e.true_hazard) for e in eyes[:5]])
        t_step = cfg.grid.time_to_step(8.0)
        dt_steps = cfg.grid.time_to_step(8.0)
        risks = window_risks(curves, t_step, dt_steps)
        end_clamped = window_risks(curves, t_step, cfg.j_max - t_step)
        np.testing.assert_allclose(risks, end_clamped)

    def test_n_pairs_counts_every_comparable_pair(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            risks, steps, cens, horizon = random_instance(rng, int(rng.integers(1, 40)))
            cell = metrics.RiskCell(risks=risks, event_steps=steps, censored=cens,
                                    horizon_step=horizon)
            # ties in event step are common at this size; a tie is not a pair
            naive = sum(steps[j] > steps[i]
                        for i in range(len(steps)) if not cens[i] and steps[i] < horizon
                        for j in range(len(steps)))
            assert cell.n_pairs == naive

    def test_oracle_beats_anti_oracle(self, cohort):
        eyes, cfg = cohort
        cells = build_risk_cells(OracleScorer(), eyes, cfg.grid)
        anti = ANTI_ORACLE.cells(eyes, cfg.grid, DEFAULT_T_YEARS, DEFAULT_DT_YEARS)
        mean_o, mean_a = (np.mean([c.concordance() for c in cs.values() if c.n_pairs])
                          for cs in (cells, anti))
        assert mean_o > 0.65 > 0.5 > mean_a

    def test_anti_oracle_brier_worse_without_an_event(self, cohort):
        """The anti-oracle's risk is 1 - r: with no event in the window its
        Brier score is worse than the oracle's, where -r would square to r^2."""
        eyes, cfg = cohort
        cells = build_risk_cells(OracleScorer(), eyes, cfg.grid)
        anti = ANTI_ORACLE.cells(eyes, cfg.grid, DEFAULT_T_YEARS, DEFAULT_DT_YEARS)
        quiet = [key for key, c in cells.items() if c.n_risk_set and not metrics.event_in_window(
            c.event_steps, c.censored, c.horizon_step).any()]
        assert quiet
        for key in quiet:
            np.testing.assert_array_equal(anti[key].risks, 1.0 - cells[key].risks)
            assert anti[key].brier() > cells[key].brier()

    def test_every_cell_is_a_risk_cell(self, cohort):
        """A prediction time with no eye at risk still gets its cells, with
        empty arrays, whose metrics raise EmptyCellError."""
        eyes, cfg = cohort
        t_step = cfg.grid.time_to_step(DEFAULT_T_YEARS[-1])
        early = [e for e in eyes if e.outcome.event_step <= t_step]
        cells = build_risk_cells(OracleScorer(), early, cfg.grid)
        assert len(cells) == 20
        assert all(isinstance(c, metrics.RiskCell) for c in cells.values())
        empty = [c for (t, _), c in cells.items() if t == DEFAULT_T_YEARS[-1]]
        assert len(empty) == 4
        for cell in empty:
            assert cell.n_risk_set == cell.n_anchors == cell.n_pairs == 0
            with pytest.raises(EmptyCellError):
                cell.concordance()
            with pytest.raises(EmptyCellError):
                cell.brier()
        # past the grid's 13.5 years no window exists, and no eye is at risk
        past = build_risk_cells(OracleScorer(), eyes, cfg.grid, t_years=(14.0,))
        assert len(past) == 4 and all(c.n_risk_set == 0 for c in past.values())

    def test_no_eye_at_risk_runs_no_forward_pass(self, cohort, monkeypatch):
        eyes, _ = cohort
        cfg_model = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, conv_widths=(2, 4, 4))
        record = {"model": cfg_model.to_dict(), "pixel_mean": [0.2], "pixel_std": [0.2]}
        scorer = ModelScorer(init_params(cfg_model, seed=0), record)
        monkeypatch.setattr(metrics, "forward_sequences",
                            lambda *a, **kw: pytest.fail("a forward pass"))
        curves = scorer.curves(eyes[:3], np.zeros((5, 3), dtype=int))
        assert curves.shape == (5, 3, cfg_model.j_max) and np.isnan(curves).all()

    def test_untrained_model_scorer_runs(self, monkeypatch):
        """One causal pass per chunk of eyes scores every prediction time.

        Reference: copies of each eye cut at its visits by t, scored with
        one forward pass per t.
        """
        cohort_cfg = CohortConfig(n_patients=40, seed=5)
        eyes = generate_cohort(cohort_cfg)
        grid = cohort_cfg.grid
        t_steps = [grid.time_to_step(t) for t in DEFAULT_T_YEARS]
        seen = np.zeros((len(t_steps), len(eyes)), dtype=int)
        for k, t_step in enumerate(t_steps):
            idx = [i for i, e in enumerate(eyes) if e.outcome.event_step > t_step]
            seen[k, idx] = visits_seen([eyes[i] for i in idx], grid, t_step)
        n_at_risk = int(seen.any(axis=0).sum())
        assert n_at_risk > metrics.CHUNK_EYES
        px_mean, px_std = [0.2], [0.2]
        for kind, dtype, tol in (("longitudinal", "float64", 1e-12),
                                 ("longitudinal", "float32", 1e-5),
                                 ("baseline", "float64", 1e-12),
                                 ("baseline", "float32", 1e-5)):
            cfg_model = ModelConfig(kind=kind, embed_dim=16, n_layers=1,
                                    n_heads=2, j_max=27, step_months=6,
                                    image_size=32, conv_widths=(4, 8, 8),
                                    dtype=dtype)
            params = init_params(cfg_model, seed=0)
            record = {"model": cfg_model.to_dict(), "pixel_mean": px_mean,
                      "pixel_std": px_std}
            scorer = ModelScorer(params, record)
            curves = scorer.curves(eyes, seen)
            assert np.all(np.isnan(curves[seen == 0]))
            for k in range(len(t_steps)):
                idx = np.flatnonzero(seen[k])
                cut = [EyeRecord(patient_id=eyes[i].patient_id, eye_id=eyes[i].eye_id,
                                 visit_months=eyes[i].visit_months[:seen[k, i]],
                                 images=eyes[i].images[:seen[k, i]],
                                 outcome=eyes[i].outcome) for i in idx]
                if kind == "longitudinal":
                    batch = pad_and_batch(cut, max(e.n_visits for e in cut))
                    batch.images = standardize(
                        batch.images.reshape(-1, *batch.images.shape[2:]),
                        px_mean, px_std).reshape(batch.images.shape)
                    fp = forward_sequences(params, cfg_model, batch)
                    hz = fp.hazards[np.arange(len(cut)), batch.lengths - 1]
                else:
                    imgs = standardize(np.stack([e.images[-1] for e in cut]),
                                       px_mean, px_std)
                    hz = forward_single_images(params, cfg_model, imgs).hazards
                ref = np.stack([hazard_to_survival(h) for h in hz])
                assert np.max(np.abs(curves[k, idx] - ref)) <= tol, (kind, dtype, k)

            # the whole grid takes one forward pass per chunk of at-risk eyes
            name = ("forward_sequences" if kind == "longitudinal"
                    else "forward_single_images")
            calls = []
            original = getattr(metrics, name)
            monkeypatch.setattr(metrics, name,
                                lambda *a, **kw: calls.append(1) or original(*a, **kw))
            cells = build_risk_cells(scorer, eyes, grid)
            monkeypatch.undo()
            assert len(calls) == math.ceil(n_at_risk / metrics.CHUNK_EYES)
            for cell in cells.values():
                assert cell.n_risk_set > 0
                assert np.all((cell.risks > 0) & (cell.risks < 1))


def test_report_round_trip(tmp_path):
    rows = [ReportRow(model="longitudinal", metric="concordance", t_years=1.0,
                      dt_years=2.0, estimate=0.91, boot_mean=0.9, ci_lo=0.85,
                      ci_hi=0.95, p_adjusted=0.01, significance="**",
                      n_pairs=120, n_risk_set=60, samples=np.array([0.5, 1 / 3])),
            ReportRow(model="baseline", metric="brier", t_years=3, dt_years=0.5,
                      estimate=np.float64(0.25))]
    path = tmp_path / "report.tsv"
    write_report(str(path), rows)
    text = path.read_text().splitlines()
    assert text[0].startswith("model\tmetric")
    assert text[1].split("\t")[0] == "longitudinal"
    write_report(str(tmp_path / "again.tsv"), rows)
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()
    # the exact bytes: None is NA, an int is str, a float (numpy's too) its repr
    assert path.read_text() == (
        "model\tmetric\tt_years\tdt_years\testimate\tboot_mean\tci_lo\tci_hi"
        "\tp_adjusted\tsignificance\tn_pairs\tn_risk_set\n"
        "longitudinal\tconcordance\t1.0\t2.0\t0.91\t0.9\t0.85\t0.95\t0.01\t**\t120\t60\n"
        "baseline\tbrier\t3\t0.5\t0.25\tNA\tNA\tNA\tNA\tNA\t0\t0\n")
    write_samples(str(tmp_path / "samples.tsv"), rows)
    assert (tmp_path / "samples.tsv").read_text() == (
        "model\tmetric\tt_years\tdt_years\tsample_index\tvalue\n"
        "longitudinal\tconcordance\t1.0\t2.0\t0\t0.5\n"
        "longitudinal\tconcordance\t1.0\t2.0\t1\t0.3333333333333333\n")


def test_no_chunk_graph_outlives_its_rows(monkeypatch):
    """Each chunk's forward pass, graph included, is dead before the next chunk's
    forward starts: the hazards array is a graph node's value."""
    cohort_cfg = CohortConfig(n_patients=12, seed=5)
    eyes = generate_cohort(cohort_cfg)
    cfg_model = ModelConfig(kind="longitudinal", embed_dim=8, n_layers=1, n_heads=2,
                            j_max=27, step_months=6, image_size=32, conv_widths=(2, 4, 4))
    record = {"model": cfg_model.to_dict(), "pixel_mean": [0.2], "pixel_std": [0.2]}
    refs, alive = [], []

    def recording_forward(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        fp = forward_sequences(*args, **kwargs)
        refs.extend((weakref.ref(fp), weakref.ref(fp.hazards)))
        return fp

    monkeypatch.setattr(metrics, "forward_sequences", recording_forward)
    monkeypatch.setattr(metrics, "CHUNK_EYES", 4)
    build_risk_cells(ModelScorer(init_params(cfg_model, seed=0), record), eyes,
                     cohort_cfg.grid)
    assert len(alive) > 2 and alive == [0] * len(alive)


@pytest.mark.parametrize("kind", ["longitudinal", "baseline", "attention"])
def test_scoring_pass_releases_the_gemm_rows(kind):
    """The conv GEMM-row buffer a scoring pass grows is freed when it ends,
    so it adds nothing to the memory peak of the bootstrap that follows. The
    attention analysis scores a longitudinal model through the same pass."""
    cohort_cfg = CohortConfig(n_patients=12, seed=5)
    eyes = generate_cohort(cohort_cfg)
    cfg_model = ModelConfig(kind="baseline" if kind == "baseline" else "longitudinal",
                            embed_dim=8, n_layers=1, n_heads=2, j_max=27, step_months=6,
                            image_size=32, conv_widths=(2, 4, 4))
    record = {"model": cfg_model.to_dict(), "pixel_mean": [0.2], "pixel_std": [0.2]}
    scorer = ModelScorer(init_params(cfg_model, seed=0), record)
    if kind == "attention":
        assert len(attention_analysis(scorer, eyes).rows) == sum(e.n_visits for e in eyes)
    else:
        cells = build_risk_cells(scorer, eyes, cohort_cfg.grid)
        assert any(cell.n_risk_set for cell in cells.values())
    assert diffgraph._rows_buffer.nbytes == 0
