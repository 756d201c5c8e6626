"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional-replication
fixture trains both model kinds end-to-end on the default ~1,000-patient
synthetic cohort and is shared by the criteria that need trained weights;
the whole suite fits the stated runtime budget on a laptop CPU. The fixture
and criterion 1's cell judgement are `replicate/protocol.py`'s `run` and
`judge`, the same code that `python replicate/protocol.py --seed N` runs on
any seed.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from longisurv import diffgraph as dg
from longisurv.cli import main
from longisurv.encoders import standardize
from longisurv.errors import EmptyCellError
from longisurv.losses import (LossConfig, sequence_loss, shifted_targets,
                              survival_loss)
from longisurv.metrics import (DEFAULT_DT_YEARS, DEFAULT_T_YEARS, ModelScorer,
                               OracleScorer, bonferroni, brier_td, build_risk_cells,
                               concordance_td, stars, welch_one_sided)
from longisurv.model import (ModelConfig, SequenceBatch, forward_sequences,
                             init_params)
from longisurv.reports import attention_analysis
from longisurv.survival import EventOutcome
from longisurv.synthcohort import (EYES_NAME, CohortConfig, EyeAnatomy, generate_cohort,
                                   render_image, summary_stats, stream)
from replicate import protocol

ACCEPT_SEED = 2024


def report(number: int, name: str) -> None:
    print(f"\n[ACCEPTANCE {number:>2}] {name}: PASS")


@pytest.fixture(scope="session")
def pipeline():
    """Simulate, train both kinds, compare on the test split; timed end to end."""
    return protocol.run(ACCEPT_SEED)


@pytest.mark.slow
def test_01_directional_replication(pipeline):
    cells = protocol.judge(pipeline["rows"], pipeline["test_eyes"],
                           pipeline["cohort"].grid)
    late_cells = [(c["t"], c["dt"]) for c in cells]
    assert len(late_cells) == 16
    # judge the whole grid before failing, so a failure lists every bad cell
    empty = [cell for cell, c in zip(late_cells, cells) if c["verdict"] == "empty"]
    behind = [cell for cell, c in zip(late_cells, cells) if c["verdict"] == "behind"]
    n_significant = sum(c["significant"] for c in cells)
    grid_text = "\n".join(protocol.cell_line(c) for c in cells)
    print(f"\n{grid_text}")
    problems = []
    if empty:
        problems.append(f"empty cells {empty}")
    if behind:
        problems.append(f"longitudinal <= baseline in {behind}")
    if n_significant < 12:
        problems.append(f"only {n_significant}/16 cells significant")
    assert not problems, "; ".join(problems) + "\n" + grid_text
    assert pipeline["elapsed"] <= 1800, f"end-to-end took {pipeline['elapsed']:.0f}s"
    print(f"\n    significant cells: {n_significant}/16; "
          f"end-to-end {pipeline['elapsed']:.0f}s")
    report(1, "directional replication, t >= 2 years")


@pytest.mark.slow
def test_02_oracle_sandwich(pipeline):
    test_eyes = pipeline["test_eyes"]
    grid = pipeline["cohort"].grid
    oracle_cells = build_risk_cells(OracleScorer(), test_eyes, grid)
    ltsa_cells = pipeline["src_l"].cells(test_eyes, grid, DEFAULT_T_YEARS,
                                         DEFAULT_DT_YEARS)
    checked = 0
    for key, oc in oracle_cells.items():
        lc = ltsa_cells[key]
        try:
            oracle_c = oc.concordance()
            ltsa_c = lc.concordance()
        except EmptyCellError:
            continue
        # a single random ranking is noisy on sparse cells; the predictor's
        # expected concordance is what the criterion pins at 0.5
        random_cs = []
        for k in range(1000):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=ACCEPT_SEED, spawn_key=(77, k)))
            random_cs.append(concordance_td(rng.random(oc.n_risk_set),
                                            oc.event_steps, oc.censored,
                                            oc.horizon_step))
        random_c = float(np.mean(random_cs))
        assert oracle_c >= ltsa_c, \
            f"cell {key}: oracle {oracle_c:.4f} < model {ltsa_c:.4f}"
        assert ltsa_c >= random_c, \
            f"cell {key}: model {ltsa_c:.4f} < random {random_c:.4f}"
        assert abs(random_c - 0.5) <= 0.03, \
            f"cell {key}: random predictor at {random_c:.4f}"
        checked += 1
    assert checked >= 14, f"only {checked} non-empty cells"
    print(f"\n    sandwich held on {checked} non-empty cells")
    report(2, "oracle >= trained model >= random predictor")


def _naive_concordance(risks, steps, cens, horizon):
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
        raise EmptyCellError("no pairs")
    return num / den


def _naive_brier(risks, steps, cens, horizon):
    if len(risks) == 0:
        raise EmptyCellError("empty")
    total = 0.0
    for i in range(len(risks)):
        ind = 1.0 if (steps[i] < horizon and not cens[i]) else 0.0
        total += (ind - risks[i]) ** 2
    return total / len(risks)


def test_03_metric_oracle_equivalence():
    rng = np.random.default_rng(ACCEPT_SEED)
    agreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        risks = np.round(rng.random(n), 2)          # force risk ties sometimes
        steps = rng.integers(1, 25, size=n)
        cens = rng.random(n) < rng.uniform(0.3, 0.9)
        horizon = int(rng.integers(2, 28))
        try:
            fast = concordance_td(risks, steps, cens, horizon)
        except EmptyCellError:
            with pytest.raises(EmptyCellError):
                _naive_concordance(risks, steps, cens, horizon)
        else:
            assert abs(fast - _naive_concordance(risks, steps, cens, horizon)) <= 1e-12
        assert abs(brier_td(risks, steps, cens, horizon)
                   - _naive_brier(risks, steps, cens, horizon)) <= 1e-12
        agreements += 1
    assert agreements == 200
    report(3, "concordance/brier match exhaustive naive oracles")


def test_04_gradient_correctness():
    t0 = time.time()
    cfg = ModelConfig(kind="longitudinal", embed_dim=16, n_layers=2, n_heads=2,
                      j_max=9, step_months=6, image_size=16,
                      conv_widths=(4, 8, 8), dtype="float64")
    rng = np.random.default_rng(5)
    lengths = [2, 3]
    l = max(lengths)
    images = np.zeros((2, l, 1, 16, 16))
    months, valid = np.zeros((2, l)), np.zeros((2, l), dtype=bool)
    outcomes = []
    for i, j_i in enumerate(lengths):
        images[i, :j_i] = rng.uniform(0, 1, (j_i, 1, 16, 16))
        months[i, :j_i] = np.arange(j_i) * 6
        valid[i, :j_i] = True
        outcomes.append(EventOutcome(int(rng.integers(1, 10)), bool(i % 2)))
    batch = SequenceBatch(images=images, visit_months=months, valid=valid,
                          outcomes=outcomes)
    worst = 0.0
    for probe in range(5):
        params = init_params(cfg, seed=100 + probe)
        frozen = shifted_targets(forward_sequences(params, cfg, batch))

        def f(p):
            fp = forward_sequences(p, cfg, batch, train=False)
            total, _ = sequence_loss(fp, outcomes, LossConfig(),
                                     frozen_targets=frozen)
            return total, fp.leaves

        err = dg.grad_check(f, params, seed=probe, n_coords=20)
        worst = max(worst, err)
    elapsed = time.time() - t0
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    assert elapsed < 120, f"gradient check took {elapsed:.0f}s"
    print(f"\n    max relative error {worst:.2e} in {elapsed:.0f}s")
    report(4, "full-model gradients match central finite differences")


def test_05_mask_properties():
    cfg = ModelConfig(kind="longitudinal", embed_dim=16, n_layers=2, n_heads=2,
                      j_max=9, step_months=6, image_size=16,
                      conv_widths=(4, 8, 8), dtype="float64")
    params = init_params(cfg, seed=77)
    rng = np.random.default_rng(ACCEPT_SEED)
    checked = 0
    while checked < 100:
        b = min(5, 100 - checked)
        lengths = [int(rng.integers(2, 7)) for _ in range(b)]
        l = max(lengths)
        images = np.zeros((b, l, 1, 16, 16))
        months, valid = np.zeros((b, l)), np.zeros((b, l), dtype=bool)
        outcomes = []
        for i, j_i in enumerate(lengths):
            images[i, :j_i] = rng.uniform(0, 1, (j_i, 1, 16, 16))
            months[i, :j_i] = np.cumsum(rng.integers(1, 4, size=j_i)) * 6
            valid[i, :j_i] = True
            outcomes.append(EventOutcome(1, True))
        batch = SequenceBatch(images=images, visit_months=months, valid=valid,
                              outcomes=outcomes)
        fp = forward_sequences(params, cfg, batch)

        # causal invariance: perturbing a later visit leaves earlier rows bit-equal
        cut = min(lengths) - 1
        tampered = SequenceBatch(images=images.copy(), visit_months=months,
                                 valid=valid, outcomes=outcomes)
        tampered.images[:, cut] = rng.uniform(0, 1, (b, 1, 16, 16))
        fp_t = forward_sequences(params, cfg, tampered)
        np.testing.assert_array_equal(fp.hazards[:, :cut], fp_t.hazards[:, :cut])

        # padding invariance: three extra all-zero visit slots change nothing
        pad = 3
        images_p = np.concatenate([images, np.zeros((b, pad, 1, 16, 16))], axis=1)
        months_p = np.concatenate([months, np.zeros((b, pad))], axis=1)
        valid_p = np.concatenate([valid, np.zeros((b, pad), dtype=bool)], axis=1)
        fp_p = forward_sequences(params, cfg, SequenceBatch(
            images=images_p, visit_months=months_p, valid=valid_p,
            outcomes=outcomes))
        np.testing.assert_array_equal(fp.hazards, fp_p.hazards[:, :l])
        np.testing.assert_array_equal(fp.step_ahead, fp_p.step_ahead[:, :l])
        checked += b
    report(5, "causal and padding masks hold bit-exactly on 100 sequences")


def test_06_loss_arithmetic():
    assert LossConfig().beta == 0.15
    # censored eye with S(tau) = 0.9
    loss = survival_loss(np.array([0.1, 0.2]), EventOutcome(1, True), beta=0.15)
    assert abs(loss - 0.85 * -math.log(0.9)) <= 1e-10
    # uncensored: the main cross-entropy term vanishes exactly
    h = np.array([0.3, 0.4, 0.2])
    s = np.cumprod(1 - h)
    expected = 0.15 * -(math.log(s[0]) + math.log(h[1]))
    assert abs(survival_loss(h, EventOutcome(2, False), beta=0.15)
               - expected) <= 1e-10
    # near-perfect uncensored prediction
    loss = survival_loss(np.array([1 - 1e-12, 0.5]), EventOutcome(1, False),
                         beta=0.15)
    assert abs(loss) <= 1e-10
    report(6, "survival loss reproduces hand-computed values at 1e-10")


def _t_density(x, df):
    lognorm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
               - 0.5 * math.log(df * math.pi))
    return math.exp(lognorm - (df + 1) / 2 * math.log1p(x * x / df))


def _welch_by_quadrature(a, b):
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    t = (a.mean() - b.mean()) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va ** 2 / (len(a) - 1) + vb ** 2 / (len(b) - 1))
    if t >= 0:
        return quad(_t_density, t, np.inf, args=(df,), epsabs=1e-12)[0]
    return 1.0 - quad(_t_density, -t, np.inf, args=(df,), epsabs=1e-12)[0]


def test_07_statistical_protocol():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.2, 2.0),
                       size=int(rng.integers(5, 200)))
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.2, 2.0),
                       size=int(rng.integers(5, 200)))
        worst = max(worst, abs(welch_one_sided(a, b) - _welch_by_quadrature(a, b)))
    assert worst <= 1e-6, f"max |P - quadrature| = {worst:.2e}"
    expected = {1e-6: "****", 1e-4: "**", 1e-3: "*", 0.5: "ns"}
    for raw, label in expected.items():
        assert stars(bonferroni(raw)) == label, f"raw P {raw}"
    print(f"\n    max Welch deviation from quadrature {worst:.2e}")
    report(7, "Welch matches quadrature oracle; Bonferroni stars exact")


@pytest.mark.slow
def test_08_attention_analysis(pipeline):
    ltsa = pipeline["ltsa"]
    test_eyes = pipeline["test_eyes"]
    rep = attention_analysis(ModelScorer(ltsa.params, ltsa.record), test_eyes)
    per_eye: dict = {}
    for eye_id, j_i, offset, score in rep.rows:
        per_eye.setdefault(eye_id, []).append(score)
    for eye_id, scores in per_eye.items():
        assert max(scores) == 1.0, f"{eye_id} max {max(scores)}"
    assert "10+" in rep.offset_labels or max(
        e.n_visits for e in test_eyes) <= 10
    assert len(rep.offset_medians) == len(rep.offset_labels)
    assert rep.pearson_r is not None and rep.pearson_r < 0, \
        f"offset/median correlation {rep.pearson_r} not negative"

    # trained encoder separates severities (embedding norms differ)
    cfg = ModelConfig.from_dict(ltsa.record["model"])
    cohort = pipeline["cohort"]
    anatomy = EyeAnatomy(stream(1234, 3, 0, 0), cohort)
    imgs = np.stack([render_image(anatomy, s, cohort)
                     for s in (1.0, 7.0)])
    imgs = standardize(imgs, ltsa.record["pixel_mean"],
                       ltsa.record["pixel_std"]).astype(np.float32)
    from longisurv.encoders import encode_images
    leaves = {k: dg.param(v, k) for k, v in ltsa.params.items()}
    emb = encode_images(dg.constant(imgs), leaves).value
    n1, n7 = np.linalg.norm(emb[0]), np.linalg.norm(emb[1])
    assert abs(n7 - n1) / max(n1, n7) > 0.02
    print(f"\n    fraction last-visit max {rep.fraction_last_max:.3f}, "
          f"offset correlation {rep.pearson_r:.3f}")
    report(8, "attention scores normalized, binned, negative recency slope")


def test_09_simulator_calibration():
    cfg = CohortConfig(n_patients=2500, seed=ACCEPT_SEED)
    stats = summary_stats(generate_cohort(cfg), cfg.grid)
    assert stats["n_eyes"] == 5000
    assert 85.8 <= stats["censored_pct"] <= 89.8, stats["censored_pct"]
    assert 6.34 * 0.85 <= stats["visits_mean"] <= 6.34 * 1.15, stats["visits_mean"]
    print(f"\n    censoring {stats['censored_pct']:.2f}% "
          f"(target 87.8 +- 2), visits {stats['visits_mean']:.2f} "
          f"(target 6.34 +- 15%)")
    report(9, "simulator hits the target censoring and visit counts")


def test_10_reproducibility(tmp_path):
    cohort_cfg = {"n_patients": 16, "target_censoring": 0.6,
                  "hazard_intercept": -10.0}
    train_cfg = {"model": {"embed_dim": 8, "n_layers": 1, "n_heads": 2,
                           "conv_widths": [2, 4, 4]},
                 "train": {"max_epochs": 2}}
    ccfg = tmp_path / "cohort.json"
    ccfg.write_text(json.dumps(cohort_cfg))
    tcfg = tmp_path / "train.json"
    tcfg.write_text(json.dumps(train_cfg))

    outputs = {}
    for run in ("a", "b"):
        root = tmp_path / run
        ds, ck, ev, att = (str(root / n) for n in
                           ("ds", "ck", "ev", "att"))
        assert main(["simulate", "--seed", "9", "--out", ds,
                     "--config", str(ccfg)]) == 0
        assert main(["train", "--seed", "9", "--out", ck, "--dataset", ds,
                     "--config", str(tcfg)]) == 0
        assert main(["evaluate", "--seed", "9", "--ckpt", ck, "--dataset", ds,
                     "--out", ev, "--bootstrap", "25", "--split", "all",
                     "--t-years", "1,2", "--dt-years", "2,5"]) == 0
        assert main(["attention", "--ckpt", ck, "--dataset", ds,
                     "--out", att, "--split", "all"]) == 0
        assert main(["plot", "--report", os.path.join(ev, "report.tsv"),
                     "--samples", os.path.join(ev, "samples.tsv"),
                     "--out", str(root / "fig.svg")]) == 0
        outputs[run] = {
            "eyes": open(os.path.join(ds, EYES_NAME), "rb").read(),
            "params": open(os.path.join(ck, "params.bin"), "rb").read(),
            "history": open(os.path.join(ck, "history.tsv"), "rb").read(),
            "report": open(os.path.join(ev, "report.tsv"), "rb").read(),
            "samples": open(os.path.join(ev, "samples.tsv"), "rb").read(),
            "attention": open(os.path.join(att, "attention.tsv"), "rb").read(),
            "figure": open(str(root / "fig.svg"), "rb").read(),
        }
    for key in outputs["a"]:
        assert outputs["a"][key] == outputs["b"][key], f"{key} differs between runs"
    report(10, "identical seeds and configs give byte-identical outputs")
