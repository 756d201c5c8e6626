import json
import os

import pytest

from longisurv.cli import main
from longisurv.model import load_checkpoint, save_checkpoint


SMOKE_COHORT = {"n_patients": 40, "target_censoring": 0.6,
                "hazard_intercept": -10.0}
SMOKE_TRAIN = {"model": {"embed_dim": 8, "n_layers": 1, "n_heads": 2,
                         "conv_widths": [2, 4, 4]},
               "train": {"max_epochs": 2}}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated dataset plus a trained tiny checkpoint, reused in tests."""
    root = tmp_path_factory.mktemp("cli")
    cohort_cfg = write_json(root / "cohort.json", SMOKE_COHORT)
    train_cfg = write_json(root / "train.json", SMOKE_TRAIN)
    dataset = str(root / "dataset")
    assert main(["simulate", "--seed", "13", "--out", dataset,
                 "--config", cohort_cfg]) == 0
    ckpt = str(root / "ckpt")
    assert main(["train", "--seed", "13", "--out", ckpt, "--dataset", dataset,
                 "--config", train_cfg]) == 0
    return {"root": root, "dataset": dataset, "ckpt": ckpt,
            "cohort_cfg": cohort_cfg, "train_cfg": train_cfg}


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "train", "evaluate", "compare",
                                     "attention", "plot"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["train", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--dataset", str(tmp_path / "nope")])
        assert code == 3

    def test_bad_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                     "--config", str(bad)])
        assert code == 2

    def test_unknown_config_key_is_config_error(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         {"loss": {"supervise_all_subsequences": True}})
        code = main(["train", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--dataset", workspace["dataset"], "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "loss" in err and "supervise_all_subsequences" in err
        assert "Traceback" not in err

    def test_saturated_hazard_is_numerical_failure(self, workspace, tmp_path, capsys):
        # a float32 hazard of exactly 1.0 gives S(t) = 0 inside every window
        params, record = load_checkpoint(workspace["ckpt"])
        params["head.surv.b"][:] = 40.0
        ckpt = str(tmp_path / "saturated")
        save_checkpoint(ckpt, params, record)
        code = main(["evaluate", "--seed", "1", "--ckpt", ckpt,
                     "--dataset", workspace["dataset"], "--out", str(tmp_path / "ev"),
                     "--bootstrap", "2"])
        assert code == 4
        err = capsys.readouterr().err
        assert "S(t) = 0" in err and "Traceback" not in err

    def test_unsatisfiable_target_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 30, "hazard_slope": 0.0,
                          "hazard_intercept": -40.0, "target_censoring": 0.4})
        code = main(["simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                     "--config", cfg])
        assert code == 2


class TestSimulate:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 8, "target_censoring": 0.7,
                          "hazard_intercept": -11.0})
        for name in ("a", "b"):
            assert main(["simulate", "--seed", "5", "--out",
                         str(tmp_path / name), "--config", cfg]) == 0
        for rel in ("manifest.tsv", "truth.tsv", "cohort.json"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes()
        imgs = sorted(os.listdir(tmp_path / "a" / "imgs"))
        assert imgs == sorted(os.listdir(tmp_path / "b" / "imgs"))
        for img in imgs[:5]:
            assert (tmp_path / "a" / "imgs" / img).read_bytes() == \
                   (tmp_path / "b" / "imgs" / img).read_bytes()

    def test_zero_hazard_prints_zero_events(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 6, "hazard_slope": 0.0,
                          "hazard_intercept": -40.0, "target_censoring": 1.0})
        assert main(["simulate", "--seed", "2", "--out", str(tmp_path / "d"),
                     "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "(0 events)" in out
        assert "100.0%" in out

    def test_summary_fields_printed(self, workspace, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", SMOKE_COHORT)
        assert main(["simulate", "--seed", "3", "--out", str(tmp_path / "d"),
                     "--config", cfg]) == 0
        out = capsys.readouterr().out
        for token in ("visits, mean (sd)", "censored", "years to disease"):
            assert token in out


class TestTrain:
    def test_checkpoint_and_history_written(self, workspace):
        assert os.path.isfile(os.path.join(workspace["ckpt"], "manifest.tsv"))
        assert os.path.isfile(os.path.join(workspace["ckpt"], "params.bin"))
        assert os.path.isfile(os.path.join(workspace["ckpt"], "config.json"))
        history = open(os.path.join(workspace["ckpt"], "history.tsv")).read()
        assert history.startswith("epoch\ttrain_loss\tval_metric\tlr")
        assert len(history.strip().splitlines()) == 3

    def test_reproducible_training_bytes(self, workspace, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["train", "--seed", "13", "--out", out,
                         "--dataset", workspace["dataset"],
                         "--config", workspace["train_cfg"]]) == 0
        for rel in ("params.bin", "manifest.tsv", "history.tsv", "config.json"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes()
        assert (tmp_path / "a" / "params.bin").read_bytes() == \
               open(os.path.join(workspace["ckpt"], "params.bin"), "rb").read()

    def test_baseline_kind(self, workspace, tmp_path):
        out = str(tmp_path / "b")
        assert main(["train", "--seed", "13", "--kind", "baseline", "--out", out,
                     "--dataset", workspace["dataset"],
                     "--config", workspace["train_cfg"]]) == 0
        manifest = open(os.path.join(out, "manifest.tsv")).read()
        assert "tr0" not in manifest
        assert "head.step.w" not in manifest

    def test_warm_start_runs(self, workspace, tmp_path):
        out = str(tmp_path / "warm")
        assert main(["train", "--seed", "14", "--out", out,
                     "--dataset", workspace["dataset"],
                     "--config", workspace["train_cfg"],
                     "--init-from", workspace["ckpt"], "--max-epochs", "1"]) == 0

    def test_warm_start_architecture_mismatch(self, workspace, tmp_path):
        code = main(["train", "--seed", "14", "--out", str(tmp_path / "x"),
                     "--dataset", workspace["dataset"],
                     "--init-from", workspace["ckpt"], "--max-epochs", "1"])
        assert code == 2


class TestSmokeTiming:
    def test_hundred_patient_train_under_five_minutes(self, tmp_path):
        import time
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 100, "target_censoring": 0.8,
                          "hazard_intercept": -11.0})
        ds = str(tmp_path / "ds")
        t0 = time.time()
        assert main(["simulate", "--seed", "6", "--out", ds,
                     "--config", str(cfg)]) == 0
        assert main(["train", "--seed", "6", "--out", str(tmp_path / "ck"),
                     "--dataset", ds, "--max-epochs", "10",
                     "--lr", "5e-4"]) == 0
        assert time.time() - t0 < 300


class TestEvaluate:
    def test_oracle_report(self, workspace, tmp_path):
        out = str(tmp_path / "ev")
        assert main(["evaluate", "--seed", "1", "--ckpt", "oracle",
                     "--dataset", workspace["dataset"], "--out", out,
                     "--bootstrap", "30", "--split", "all"]) == 0
        report = open(os.path.join(out, "report.tsv")).read().splitlines()
        assert len(report) == 1 + 20 * 2          # concordance + brier rows
        assert os.path.isfile(os.path.join(out, "samples.tsv"))

    def test_checkpoint_report_deterministic(self, workspace, tmp_path):
        outs = [str(tmp_path / n) for n in ("a", "b")]
        for out in outs:
            assert main(["evaluate", "--seed", "4", "--ckpt", workspace["ckpt"],
                         "--dataset", workspace["dataset"], "--out", out,
                         "--bootstrap", "20", "--t-years", "1,2",
                         "--dt-years", "2"]) == 0
        assert (tmp_path / "a" / "report.tsv").read_bytes() == \
               (tmp_path / "b" / "report.tsv").read_bytes()
        assert (tmp_path / "a" / "samples.tsv").read_bytes() == \
               (tmp_path / "b" / "samples.tsv").read_bytes()


class TestCompare:
    def test_self_comparison_is_ns(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        assert main(["compare", "--seed", "3", "--ckpt-a", workspace["ckpt"],
                     "--ckpt-b", workspace["ckpt"], "--dataset",
                     workspace["dataset"], "--out", out, "--bootstrap", "30",
                     "--split", "all"]) == 0
        rows = open(os.path.join(out, "compare.tsv")).read().splitlines()[1:]
        p_cells = [r.split("\t") for r in rows if r.split("\t")[8] != "NA"]
        assert p_cells, "expected at least one testable cell"
        for cols in p_cells:
            assert float(cols[8]) == 1.0
            assert cols[9] == "ns"

    def test_oracle_vs_anti_oracle_all_significant(self, workspace, tmp_path):
        out = str(tmp_path / "oa")
        assert main(["compare", "--seed", "3", "--ckpt-a", "oracle",
                     "--ckpt-b", "anti-oracle", "--dataset",
                     workspace["dataset"], "--out", out, "--bootstrap", "200",
                     "--split", "all"]) == 0
        rows = [r.split("\t") for r in
                open(os.path.join(out, "compare.tsv")).read().splitlines()[1:]]
        tested = [r for r in rows if r[8] != "NA"]
        assert tested
        assert all(r[9] == "****" for r in tested)

    def test_row_count_bounded_by_grid(self, workspace, tmp_path):
        out = str(tmp_path / "rows")
        assert main(["compare", "--seed", "3", "--ckpt-a", "oracle",
                     "--ckpt-b", "random", "--dataset", workspace["dataset"],
                     "--out", out, "--bootstrap", "20", "--split", "all"]) == 0
        rows = open(os.path.join(out, "compare.tsv")).read().splitlines()[1:]
        per_model = {}
        for r in rows:
            per_model[r.split("\t")[0]] = per_model.get(r.split("\t")[0], 0) + 1
        assert all(n <= 20 for n in per_model.values())


class TestAttention:
    def test_tables_and_summary(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "att")
        assert main(["attention", "--ckpt", workspace["ckpt"], "--dataset",
                     workspace["dataset"], "--out", out, "--split", "all"]) == 0
        table = open(os.path.join(out, "attention.tsv")).read().splitlines()
        assert table[0] == "eye_id\tn_visits\toffset\tscore"
        scores = [float(r.split("\t")[3]) for r in table[1:]]
        assert all(0 < s <= 1 for s in scores)
        summary = open(os.path.join(out, "attention_summary.tsv")).read()
        assert "fraction_last_visit_max" in summary
        assert "pearson_offset_median" in summary

    def test_baseline_checkpoint_rejected(self, workspace, tmp_path):
        base = str(tmp_path / "base")
        assert main(["train", "--seed", "13", "--kind", "baseline", "--out", base,
                     "--dataset", workspace["dataset"],
                     "--config", workspace["train_cfg"]]) == 0
        code = main(["attention", "--ckpt", base, "--dataset",
                     workspace["dataset"], "--out", str(tmp_path / "x")])
        assert code == 2


@pytest.fixture(scope="module")
def report_dir(workspace, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("plotsrc"))
    assert main(["compare", "--seed", "3", "--ckpt-a", "oracle",
                 "--ckpt-b", "random", "--dataset", workspace["dataset"],
                 "--out", out, "--bootstrap", "40", "--split", "all"]) == 0
    return out


class TestPlot:
    def test_box_figure_deterministic(self, report_dir, tmp_path):
        args = ["plot", "--report", os.path.join(report_dir, "compare.tsv"),
                "--samples", os.path.join(report_dir, "samples.tsv")]
        assert main(args + ["--out", str(tmp_path / "a.svg")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.svg")]) == 0
        a = (tmp_path / "a.svg").read_bytes()
        assert a == (tmp_path / "b.svg").read_bytes()
        assert a.startswith(b"<svg")

    def test_curves_two_polylines_per_model(self, workspace, tmp_path):
        from longisurv.synthcohort import load_dataset
        eyes, _ = load_dataset(workspace["dataset"], load_images=False)
        with_two = [e.eye_id for e in eyes if e.visit_months[-1] >= 24][:2]
        assert len(with_two) == 2
        out = str(tmp_path / "curves.svg")
        assert main(["plot", "--curves", "--ckpt", workspace["ckpt"],
                     "--ckpt", "oracle", "--dataset", workspace["dataset"],
                     "--eyes", ",".join(with_two), "--at-years", "2",
                     "--out", out]) == 0
        svg = open(out).read()
        assert svg.count("<polyline") == 4      # two eyes x two models

    def test_empty_report_is_config_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("model\tmetric\n")
        code = main(["plot", "--report", str(empty), "--samples", str(empty),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 2
        assert "evaluate" in capsys.readouterr().err

    def test_mode_required(self, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 2
