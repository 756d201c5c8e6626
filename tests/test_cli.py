import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from longisurv import cli, diffgraph as dg, metrics, reports, trainer
from longisurv.cli import main
from longisurv.errors import (ConfigError, DataError, DegenerateConditioningError,
                              EmptyCellError, NumericalError, ShapeError)
from longisurv.metrics import DEFAULT_DT_YEARS, DEFAULT_T_YEARS
from longisurv.model import load_checkpoint, save_checkpoint
from longisurv.synthcohort import (CONFIG_NAME, EYES_NAME, IMAGES_NAME, load_dataset,
                                   save_dataset)


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


@pytest.fixture(scope="module")
def annual_dataset(tmp_path_factory):
    """A small ``ohts_like`` dataset: annual grid, 15 steps."""
    dataset = str(tmp_path_factory.mktemp("annual") / "dataset")
    assert main(["simulate", "--seed", "13", "--preset", "ohts_like", "--patients", "20",
                 "--out", dataset]) == 0
    return dataset


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "train", "evaluate", "compare",
                                     "attention", "plot"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd, ckpts", [("evaluate", ["--ckpt", "oracle"]),
                                            ("compare", ["--ckpt-a", "a", "--ckpt-b", "b"])])
    def test_grid_defaults_are_the_metrics_grid(self, cmd, ckpts):
        args = cli.build_parser().parse_args(
            [cmd, "--seed", "1", "--out", "o", "--dataset", "d"] + ckpts)
        assert cli._years_list(args.t_years) == DEFAULT_T_YEARS
        assert cli._years_list(args.dt_years) == DEFAULT_DT_YEARS


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

    @pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                      "plot_out_in_missing_dir", "evaluate_out_is_a_file",
                                      "simulate_out_is_a_file", "train_out_is_a_file"])
    def test_unreadable_config_or_unwritable_out_is_config_error(self, workspace, report_dir,
                                                                tmp_path, capsys, monkeypatch,
                                                                case):
        # an --out that cannot be written is refused before any training
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("trained"))
        existing = tmp_path / "existing"
        existing.write_text("kept")
        (tmp_path / "latin1.json").write_bytes(b'{"n_patients": 2, "name": "\xe9"}')
        path, args = {
            "config_is_a_directory": (str(tmp_path), [
                "simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                "--config", str(tmp_path)]),
            "config_not_utf8": (str(tmp_path / "latin1.json"), [
                "simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                "--config", str(tmp_path / "latin1.json")]),
            "plot_out_in_missing_dir": (str(tmp_path / "missing" / "x.svg"), [
                "plot", "--report", os.path.join(report_dir, "compare.tsv"),
                "--samples", os.path.join(report_dir, "samples.tsv"),
                "--out", str(tmp_path / "missing" / "x.svg")]),
            "evaluate_out_is_a_file": (str(existing), [
                "evaluate", "--seed", "1", "--ckpt", "oracle", "--dataset",
                workspace["dataset"], "--bootstrap", "2", "--out", str(existing)]),
            "simulate_out_is_a_file": (str(existing), [
                "simulate", "--seed", "1", "--patients", "2", "--out", str(existing)]),
            "train_out_is_a_file": (str(existing), [
                "train", "--seed", "1", "--dataset", workspace["dataset"],
                "--config", workspace["train_cfg"], "--out", str(existing)]),
        }[case]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2 and path in err and "Traceback" not in err
        assert existing.read_text() == "kept" and not (tmp_path / "d").exists()

    def test_unknown_config_key_is_config_error(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         {"loss": {"supervise_all_subsequences": True}})
        code = main(["train", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--dataset", workspace["dataset"], "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "loss" in err and "supervise_all_subsequences" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--t-years", "nan"]),
        ("evaluate", ["--dt-years", "inf"]),
        ("plot", ["--curves", "--at-years", "nan"]),
        ("train", ["--lr", "nan"]),
        ("evaluate", ["--t-years=-1"]),
        ("plot", ["--curves", "--at-years=-1"]),
        ("evaluate", ["--dt-years", "0.1"]),                # 0.2 of a 6-month step
        ("evaluate", ["--t-years", "2,2", "--dt-years", "1"]),
        ("compare", ["--t-years", "2", "--dt-years", "1,2,1.0"]),
        ("evaluate", ["--t-years", "a"]),
    ], ids=["t_years_nan", "dt_years_inf", "at_years_nan", "lr_nan", "t_years_negative",
            "at_years_negative", "dt_years_rounds_to_zero", "t_years_repeated",
            "dt_years_repeated", "t_years_not_a_number"])
    def test_non_finite_number_is_config_error(self, workspace, tmp_path, capsys,
                                               command, flags):
        args = [command, "--seed", "1", "--dataset", workspace["dataset"],
                "--out", str(tmp_path / "out")] + flags
        if command == "evaluate":
            args += ["--ckpt", "oracle", "--bootstrap", "2"]
        elif command == "compare":
            args += ["--ckpt-a", "oracle", "--ckpt-b", "random", "--bootstrap", "2"]
        elif command == "plot":
            with open(os.path.join(workspace["dataset"], EYES_NAME)) as fh:
                eye = fh.read().splitlines()[1].split("\t")[1]
            args += ["--ckpt", "oracle", "--eyes", eye]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        if command in ("evaluate", "compare"):
            assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--ckpt", "oracle", "--bootstrap", "-3", "--t-years", "14"]),
        ("compare", ["--ckpt-a", "oracle", "--ckpt-b", "random", "--bootstrap", "1"]),
    ], ids=["evaluate_negative_past_the_grid", "compare_one"])
    def test_bootstrap_below_two_is_config_error(self, workspace, tmp_path, capsys,
                                                 monkeypatch, command, flags):
        # refused before any cell is scored, also where no cell would reach a draw
        monkeypatch.setattr(reports, "build_risk_cells",
                            lambda *a, **kw: pytest.fail("scored"))
        out = tmp_path / "out"
        code = main([command, "--seed", "1", "--dataset", workspace["dataset"],
                     "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "bootstrap needs at least 2 samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, code", [
        ("evaluate", ["--ckpt", "oracle", "--t-years", "14,30"], 2),
        ("compare", ["--ckpt-a", "oracle", "--ckpt-b", "random", "--t-years", "13.5"], 2),
        ("evaluate", ["--ckpt", "oracle", "--t-years", "13"], 0),     # step 26 of 27
    ], ids=["evaluate_past_the_grid", "compare_at_the_grid_end", "evaluate_last_step"])
    def test_time_past_the_grid_is_config_error(self, workspace, tmp_path, capsys,
                                                command, flags, code):
        out = tmp_path / "out"
        assert main([command, "--seed", "1", "--dataset", workspace["dataset"], "--split",
                     "all", "--bootstrap", "4", "--out", str(out)] + flags) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and out.exists() == (code == 0)
        if code:
            assert "at or past the grid's last year, 13.5" in err

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--ckpt", "oracle"]),
        ("compare", ["--ckpt-a", "oracle", "--ckpt-b", "random"]),
    ], ids=["evaluate", "compare"])
    def test_off_grid_time_warns_once(self, workspace, tmp_path, caplog, command, flags):
        """1.1 years is 2.2 steps of the 6-month grid, as a t and as a dt: one
        warning, however many sources score the cells."""
        with caplog.at_level("WARNING", logger="longisurv"):
            assert main([command, "--seed", "1", "--dataset", workspace["dataset"],
                         "--bootstrap", "4", "--t-years", "1.1,2", "--dt-years", "1.1",
                         "--out", str(tmp_path / "out")] + flags) == 0
        assert sum("off the" in r.getMessage() for r in caplog.records) == 1

    def test_unknown_config_section_is_config_error(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         {"modle": {"embed_dim": 8}, "train": {"max_epochs": 1}})
        code = main(["train", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--dataset", workspace["dataset"], "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "modle" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    def test_wrong_typed_config_value_is_config_error(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"train": {"max_epochs": "1"}})
        code = main(["train", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--dataset", workspace["dataset"], "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "train.max_epochs" in err and "Traceback" not in err

    def _evaluate_broken_checkpoint(self, workspace, tmp_path, capsys, damage):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        damage(ckpt)
        code = main(["evaluate", "--seed", "1", "--ckpt", str(ckpt),
                     "--dataset", workspace["dataset"], "--out", str(tmp_path / "ev"),
                     "--bootstrap", "2"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_truncated_params_is_data_error(self, workspace, tmp_path, capsys):
        def truncate(ckpt):
            blob = (ckpt / "params.bin").read_bytes()
            (ckpt / "params.bin").write_bytes(blob[:-4])

        code, err = self._evaluate_broken_checkpoint(workspace, tmp_path, capsys, truncate)
        assert code == 3 and "params.bin" in err

    def test_missing_record_is_data_error(self, workspace, tmp_path, capsys):
        code, err = self._evaluate_broken_checkpoint(
            workspace, tmp_path, capsys, lambda ckpt: os.remove(ckpt / "config.json"))
        assert code == 3 and "config.json" in err

    @staticmethod
    def _set_conv_widths(ckpt, widths):
        record = json.loads((ckpt / "config.json").read_text())
        record["model"]["conv_widths"] = widths
        write_json(ckpt / "config.json", record)

    @pytest.mark.parametrize("damage", [
        lambda ckpt: (ckpt / "params.bin").write_bytes(
            (ckpt / "params.bin").read_bytes() + bytes(8)),
        lambda ckpt: TestExitCodes._set_conv_widths(ckpt, [4, 4, 4]),
        # 1,943 values, as many as [2, 4, 4]
        lambda ckpt: TestExitCodes._set_conv_widths(ckpt, [1, 5, 4]),
    ], ids=["trailing_bytes", "other_model", "same_size_other_model"])
    def test_tensor_layout_mismatch_is_data_error(self, workspace, tmp_path, capsys,
                                                  damage):
        code, err = self._evaluate_broken_checkpoint(workspace, tmp_path, capsys, damage)
        assert code == 3 and "params.bin" in err

    @staticmethod
    def _to_npz(path):
        images = np.load(path)
        with open(path, "wb") as fh:
            np.savez(fh, images=images)

    @staticmethod
    def _set_pixel(path, value):
        images = np.load(path)
        images[-1, 0, 3, 5] = value
        np.save(path, images)

    @staticmethod
    def _set_hazard(d, value):
        TestExitCodes._edit_eye(d, lambda f: f[:7] + [";".join(
            f[7].split(";")[:2] + [value] + f[7].split(";")[3:])])

    @staticmethod
    def _edit_row(path, line_index, edit):
        lines = path.read_text().splitlines()
        if edit is None:
            del lines[line_index]
        else:
            lines[line_index] = "\t".join(edit(lines[line_index].split("\t")))
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def _append_copy(path, line_index, edit):
        """Append an edited copy of one row."""
        fields = path.read_text().splitlines()[line_index].split("\t")
        with open(path, "a") as fh:
            fh.write("\t".join(edit(fields)) + "\n")

    @staticmethod
    def _swap_rows(path, i, j):
        lines = path.read_text().splitlines()
        lines[i], lines[j] = lines[j], lines[i]
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def _edit_eye(d, edit, min_visits=1):
        """Edit the eyes.tsv row of the first eye with at least ``min_visits`` visits."""
        lines = (d / EYES_NAME).read_text().splitlines()
        k = next(k for k in range(1, len(lines))
                 if lines[k].split("\t")[2].count(";") + 1 >= min_visits)
        TestExitCodes._edit_row(d / EYES_NAME, k, edit)

    @pytest.mark.parametrize("damage, named", [
        (lambda d: os.remove(d / CONFIG_NAME), CONFIG_NAME),
        (lambda d: os.rename(d / EYES_NAME, d / "manifest.tsv"), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:2] + ["six"] + f[3:]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:2] + [""] + f[3:]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:-1]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f + ["0.5"]), EYES_NAME),
        (lambda d: os.remove(d / IMAGES_NAME), IMAGES_NAME),
        (lambda d: (d / IMAGES_NAME).write_bytes(b""), IMAGES_NAME),
        (lambda d: (d / IMAGES_NAME).write_bytes((d / IMAGES_NAME).read_bytes()[:-100]),
         IMAGES_NAME),
        (lambda d: np.save(d / IMAGES_NAME, np.load(d / IMAGES_NAME)[:-1]), IMAGES_NAME),
        (lambda d: TestExitCodes._edit_row(d / EYES_NAME, -1, None), IMAGES_NAME),
        (lambda d: TestExitCodes._to_npz(d / IMAGES_NAME), IMAGES_NAME),
        (lambda d: TestExitCodes._edit_eye(
            d, lambda f: f[:2] + [";".join(f[2].split(";")[::-1])] + f[3:], 2), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:3] + ["99"] + f[4:]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:3] + ["1.5"] + f[4:]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:4] + ["2"] + f[5:]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(
            d, lambda f: f[:7] + [f[7].rsplit(";", 1)[0]]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:7] + [""]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:6] + [f[6] + ";0.5", f[7]]),
         EYES_NAME),
        (lambda d: TestExitCodes._append_copy(
            d / EYES_NAME, 1, lambda f: f[:5] + ["9.5"] + f[6:]), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:2] + [";".join(
            [m if k != 1 else str(int(m) + 1) for k, m in enumerate(f[2].split(";"))])]
            + f[3:], 2), EYES_NAME),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:2] + [";".join(
            f[2].split(";")[:-1] + [str(int(f[3]) * 6)])] + f[3:]), EYES_NAME),
        (lambda d: TestExitCodes._swap_rows(d / EYES_NAME, 1, 2), EYES_NAME),
        (lambda d: TestExitCodes._set_pixel(d / IMAGES_NAME, np.nan), IMAGES_NAME),
        (lambda d: TestExitCodes._set_pixel(d / IMAGES_NAME, 1.5), IMAGES_NAME),
        (lambda d: TestExitCodes._set_hazard(d, "1.5"), f"{EYES_NAME}: row 2"),
        (lambda d: TestExitCodes._set_hazard(d, "nan"), f"{EYES_NAME}: row 2"),
        (lambda d: TestExitCodes._set_hazard(d, "-0.1"), f"{EYES_NAME}: row 2"),
        (lambda d: TestExitCodes._edit_row(
            d / EYES_NAME, 5, lambda f: f[:7] + ["abc;" + f[7].split(";", 1)[1]]),
         f"{EYES_NAME}: row 6: could not convert"),
        (lambda d: TestExitCodes._edit_row(
            d / EYES_NAME, 7, lambda f: f[:6] + [f[6] + ";0.5", f[7]]),
         f"{EYES_NAME}: row 8: "),
        (lambda d: TestExitCodes._edit_row(
            d / EYES_NAME, 9, lambda f: f[:2] + [";".join(["1"] + f[2].split(";")[1:])] + f[3:]),
         f"{EYES_NAME}: row 10: visit months 1"),
        (lambda d: TestExitCodes._edit_eye(d, lambda f: f[:3] + [str(
            json.loads((d / CONFIG_NAME).read_text())["j_max"] + 1)] + f[4:]),
         f"{EYES_NAME}: row 2: event_step"),
        (lambda d: TestExitCodes._edit_eye(
            d, lambda f: f[:2] + [";".join(["-6"] + f[2].split(";")[1:])] + f[3:]),
         f"{EYES_NAME}: row 2: visit months -6"),
    ], ids=["missing_cohort_config", "old_layout_without_eyes_tsv", "visit_month",
            "no_visit_months", "short_row", "long_row", "missing_image", "empty_images",
            "truncated_images", "one_image_too_few", "one_eye_row_fewer_than_images",
            "npz_archive", "months_out_of_order", "event_step_outside_grid",
            "event_step_not_integer", "censored_flag", "short_hazard_list",
            "empty_hazard_list", "severity_per_visit", "duplicate_eye_row",
            "visit_month_off_the_grid", "visit_at_the_outcome_step", "rows_out_of_eye_order",
            "nan_pixel", "pixel_above_one", "hazard_above_one", "nan_hazard",
            "negative_hazard", "fifth_eye_hazard_not_a_number", "later_severity_too_many",
            "later_visit_month_off_the_grid", "event_step_one_past_the_grid",
            "negative_first_visit"])
    def test_malformed_dataset_is_data_error(self, workspace, tmp_path, capsys,
                                             damage, named):
        dataset = tmp_path / "dataset"
        shutil.copytree(workspace["dataset"], dataset)
        damage(dataset)
        code = main(["evaluate", "--seed", "1", "--ckpt", "oracle",
                     "--dataset", str(dataset), "--out", str(tmp_path / "ev"),
                     "--bootstrap", "2"])
        err = capsys.readouterr().err
        assert code == 3 and named in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["longitudinal", "baseline"])
    def test_nan_pixel_is_data_error_before_training(self, workspace, tmp_path, capsys,
                                                     kind):
        dataset, out = tmp_path / "dataset", tmp_path / "ckpt"
        shutil.copytree(workspace["dataset"], dataset)
        self._set_pixel(dataset / IMAGES_NAME, np.nan)
        code = main(["train", "--seed", "1", "--kind", kind, "--dataset", str(dataset),
                     "--out", str(out), "--max-epochs", "1"])
        err = capsys.readouterr().err
        assert code == 3 and IMAGES_NAME in err and "Traceback" not in err
        assert not out.exists()

    # (directory, file, damage): "cut" truncates inside the content, "rows"
    # drops trailing table rows
    CORRUPTIONS = [("dataset", IMAGES_NAME, "cut"), ("dataset", CONFIG_NAME, "cut"),
                   ("dataset", EYES_NAME, "rows"),
                   ("ckpt", "params.bin", "cut"), ("ckpt", "config.json", "cut")]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corruption=st.sampled_from(CORRUPTIONS), data=st.data())
    def test_corrupted_file_is_data_error(self, workspace, capsys, corruption, data):
        owner, name, damage = corruption
        with tempfile.TemporaryDirectory() as tmp:
            dirs = {"dataset": workspace["dataset"], "ckpt": workspace["ckpt"]}
            dirs[owner] = shutil.copytree(dirs[owner], os.path.join(tmp, owner))
            path = os.path.join(dirs[owner], name)
            with open(path, "rb") as fh:
                raw = fh.read()
            if damage == "cut":
                # a lost trailing newline is not damage
                content = len(raw.rstrip(b"\n")) if name.endswith(".json") else len(raw)
                raw = raw[:data.draw(st.integers(0, content - 1), label="kept bytes")]
            else:
                lines = raw.splitlines(keepends=True)
                raw = b"".join(lines[:-data.draw(st.integers(1, len(lines) - 1),
                                                 label="dropped rows")])
            with open(path, "wb") as fh:
                fh.write(raw)
            code = main(["evaluate", "--seed", "1", "--ckpt", dirs["ckpt"],
                         "--dataset", dirs["dataset"], "--out", os.path.join(tmp, "ev"),
                         "--bootstrap", "2"])
        err = capsys.readouterr().err
        assert code == 3 and path in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda f: f[:-1] + ["abc"],                  # a value that will not parse
        lambda f: f[:2],                             # a short row
    ], ids=["value", "short_row"])
    def test_malformed_samples_table_is_data_error(self, report_dir, tmp_path, capsys,
                                                   edit):
        samples = tmp_path / "samples.tsv"
        shutil.copy(os.path.join(report_dir, "samples.tsv"), samples)
        self._edit_row(samples, 1, edit)
        code = main(["plot", "--report", os.path.join(report_dir, "compare.tsv"),
                     "--samples", str(samples), "--out", str(tmp_path / "x.svg")])
        err = capsys.readouterr().err
        assert code == 3 and "samples.tsv" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.25", "1.5"])
    def test_sample_outside_unit_interval_is_data_error(self, report_dir, tmp_path, capsys,
                                                        value):
        """C and Brier both lie in [0, 1]; a sample outside it is no draw of either."""
        samples = tmp_path / "samples.tsv"
        shutil.copy(os.path.join(report_dir, "samples.tsv"), samples)
        self._edit_row(samples, 3, lambda f: f[:-1] + [value])
        out = tmp_path / "x.svg"
        code = main(["plot", "--report", os.path.join(report_dir, "compare.tsv"),
                     "--samples", str(samples), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and str(samples) in err and "line 4" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("table", ["compare.tsv", "samples.tsv"],
                             ids=["report_as_samples", "samples_as_report"])
    def test_swapped_plot_table_is_data_error(self, report_dir, tmp_path, capsys, table):
        """One table given as both --report and --samples fails the other's header."""
        path = os.path.join(report_dir, table)
        code = main(["plot", "--report", path, "--samples", path,
                     "--out", str(tmp_path / "x.svg")])
        err = capsys.readouterr().err
        assert code == 3 and path in err and "header" in err and "Traceback" not in err

    def test_missing_report_table_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "compare.tsv")
        code = main(["plot", "--report", missing, "--samples", missing,
                     "--out", str(tmp_path / "x.svg")])
        err = capsys.readouterr().err
        assert code == 3 and "compare.tsv" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg.update(n_patinets=cfg.pop("n_patients")),   # unknown key
        lambda cfg: cfg.update(n_patients=str(cfg["n_patients"])),  # wrong type
        lambda cfg: cfg.update(j_max=float(cfg["j_max"])),          # float for an int
        lambda cfg: cfg.update(gain_range=[True, 1.4]),             # bool in a tuple
        lambda cfg: cfg.update(seed=-4),
    ], ids=["unknown_key", "wrong_type", "float_j_max", "bool_in_tuple", "negative_seed"])
    def test_misfit_cohort_config_is_data_error(self, workspace, tmp_path, capsys, edit):
        dataset = tmp_path / "dataset"
        shutil.copytree(workspace["dataset"], dataset)
        cfg = json.loads((dataset / CONFIG_NAME).read_text())
        edit(cfg)
        write_json(dataset / CONFIG_NAME, cfg)
        code = main(["evaluate", "--seed", "1", "--ckpt", "oracle",
                     "--dataset", str(dataset), "--out", str(tmp_path / "ev"),
                     "--bootstrap", "2"])
        err = capsys.readouterr().err
        assert code == 3 and CONFIG_NAME in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda model: model.update(embed_dmi=model.pop("embed_dim")),  # unknown key
        lambda model: model.update(embed_dim=str(model["embed_dim"])),  # wrong type
        lambda model: model.update(n_layers=float(model["n_layers"])),  # float for an int
        lambda model: model.update(n_heads=0),
        lambda model: model.update(conv_widths=[]),
        lambda model: model.update(dropout=True),                       # bool for a float
        lambda model: model.update(conv_widths=8),                      # scalar for a tuple
        lambda model: model.update(conv_widths=[2.5, 4, 4]),            # float in an int tuple
        lambda model: model.update(dropout=1.0),                        # same tensor layout
        lambda model: model.update(conv_widths=[2, 4, 4, 4, 4, 4]),     # 32 px halve 5 times
    ], ids=["unknown_key", "wrong_type", "float_n_layers", "no_heads", "no_conv_widths",
            "bool", "scalar_for_tuple", "float_in_tuple", "dropout_one", "too_deep"])
    def test_misfit_model_config_is_data_error(self, workspace, tmp_path, capsys, edit):
        def damage(ckpt):
            record = json.loads((ckpt / "config.json").read_text())
            edit(record["model"])
            write_json(ckpt / "config.json", record)

        code, err = self._evaluate_broken_checkpoint(workspace, tmp_path, capsys, damage)
        assert code == 3 and "config.json" in err

    @pytest.mark.parametrize("model", [{"n_heads": 0}, {"conv_widths": []}],
                             ids=["no_heads", "no_conv_widths"])
    def test_unbuildable_model_config_is_config_error(self, workspace, tmp_path, capsys,
                                                      model):
        cfg = write_json(tmp_path / "c.json", {"model": model})
        code = main(["train", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--dataset", workspace["dataset"], "--config", cfg])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, named", [
        ("simulate", [1], "c.json"),
        ("train", {"model": [1]}, "non-object config section(s): model"),
        ("train", {"model": {"conv_widths": [2.5, 4, 4]}}, "model.conv_widths"),
        ("train", {"train": {"plateau_patience": 3, "val_dt_years": [1.0]}},
         "plateau_patience, val_dt_years"),
        ("train", {"model": {"embed_dim": 0}}, "embed_dim"),
        ("train", {"model": {"conv_widths": [0, 4, 4]}}, "conv_widths"),
        ("train", {"model": {"n_layers": -1}, "train": {"max_epochs": 1}}, "n_layers"),
        ("train", {"model": {"dropout": 1.0}, "train": {"max_epochs": 1}}, "dropout"),
        ("train", {"model": {"conv_widths": [2, 4, 4, 4, 4, 4]}}, "conv width"),
    ], ids=["non_object_file", "non_object_section", "float_in_tuple",
            "removed_train_key", "embed_dim_zero", "conv_width_zero",
            "n_layers_negative", "dropout_one", "too_deep"])
    def test_misfit_config_file_is_config_error(self, workspace, tmp_path, capsys,
                                                command, payload, named):
        cfg = write_json(tmp_path / "c.json", payload)
        args = ["--dataset", workspace["dataset"]] if command == "train" else []
        code = main([command, "--seed", "1", "--out", str(tmp_path / "x"),
                     "--config", cfg] + args)
        err = capsys.readouterr().err
        assert code == 2 and named in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flags, payload, named", [
        ("train", [], {"train": {"seed": 5, "max_epochs": 1}}, "train.seed"),
        ("train", ["--kind", "baseline"], {"model": {"kind": "longitudinal", "dtype": "float64"},
                                           "train": {"max_epochs": 1}}, "model.kind"),
        ("train", [], {"model": {"step_months": 12}, "train": {"max_epochs": 1}},
         "model.step_months"),
        ("train", [], {"model": {"image_size": 16}, "train": {"max_epochs": 1}},
         "model.image_size"),
        ("simulate", ["--patients", "10"], {"seed": 5, "n_patients": 12}, "seed"),
    ], ids=["train_seed", "kind_and_dtype", "step_months", "image_size", "simulate_seed"])
    def test_config_key_against_dataset_or_flag_is_config_error(self, workspace, tmp_path,
                                                               capsys, command, flags,
                                                               payload, named):
        cfg = write_json(tmp_path / "c.json", payload)
        args = ["--dataset", workspace["dataset"]] if command == "train" else []
        code = main([command, "--seed", "1", "--out", str(tmp_path / "x"),
                     "--config", cfg] + args + flags)
        err = capsys.readouterr().err
        assert code == 2 and named in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("command", ["evaluate", "compare", "attention", "plot"])
    def test_checkpoint_of_another_grid_is_data_error(self, workspace, annual_dataset,
                                                      tmp_path, capsys, command):
        ckpt = workspace["ckpt"]              # 27 six-month steps; the dataset's are annual
        with open(os.path.join(annual_dataset, EYES_NAME)) as fh:
            eye = fh.read().splitlines()[1].split("\t")[1]
        args = {"evaluate": ["--ckpt", ckpt, "--seed", "1", "--bootstrap", "2"],
                "compare": ["--ckpt-a", "oracle", "--ckpt-b", ckpt, "--seed", "1",
                            "--bootstrap", "2"],
                "attention": ["--ckpt", ckpt],
                "plot": ["--curves", "--ckpt", ckpt, "--eyes", eye]}[command]
        code = main([command, "--dataset", annual_dataset, "--out", str(tmp_path / "out")]
                    + args)
        err = capsys.readouterr().err
        assert code == 3 and os.path.join(ckpt, "config.json") in err
        assert "step_months" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "attention"])
    @pytest.mark.parametrize("edit", [
        lambda record: record.pop("pixel_mean"),
        lambda record: record.update(pixel_mean="x"),
        lambda record: record.update(pixel_mean=[0.2, 0.3]),   # a 1-channel model
        lambda record: record.update(pixel_mean=[float("nan")]),
        lambda record: record.update(pixel_mean=[float("inf")]),
    ], ids=["missing", "not_a_list", "two_channels", "nan", "inf"])
    def test_misfit_pixel_stats_are_data_error(self, workspace, tmp_path, capsys,
                                               command, edit):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        record = json.loads((ckpt / "config.json").read_text())
        edit(record)
        write_json(ckpt / "config.json", record)
        args = ["--ckpt", str(ckpt), "--dataset", workspace["dataset"],
                "--out", str(tmp_path / "out")]
        if command == "evaluate":
            args += ["--seed", "1", "--bootstrap", "2"]
        code = main([command] + args)
        err = capsys.readouterr().err
        assert code == 3 and str(ckpt) in err and "pixel_mean" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_params_are_data_error(self, workspace, tmp_path, capsys, value):
        def damage(ckpt):
            params, record = load_checkpoint(str(ckpt))
            params["head.surv.b"][0] = value
            save_checkpoint(str(ckpt), params, record)

        code, err = self._evaluate_broken_checkpoint(workspace, tmp_path, capsys, damage)
        assert code == 3 and "params.bin" in err

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

    @pytest.mark.parametrize("command, seed", [
        ("simulate", "-1"), ("train", "-1"), ("evaluate", "-1"), ("compare", "-2"),
        ("attention", "-1"), ("plot", "-1"),
    ])
    def test_negative_seed_is_config_error(self, workspace, tmp_path, capsys, command, seed):
        out = str(tmp_path / "out")
        extra = {"simulate": ["--patients", "4"],
                 "train": ["--dataset", workspace["dataset"], "--max-epochs", "1"],
                 "evaluate": ["--dataset", workspace["dataset"], "--ckpt", "oracle",
                              "--bootstrap", "2"],
                 "compare": ["--dataset", workspace["dataset"], "--ckpt-a", "oracle",
                             "--ckpt-b", "random", "--bootstrap", "2"],
                 "attention": ["--dataset", workspace["dataset"], "--ckpt", workspace["ckpt"]],
                 "plot": ["--curves", "--dataset", workspace["dataset"], "--ckpt", "oracle",
                          "--eyes", "p0000_e0"]}[command]
        code = main([command, f"--seed={seed}", "--out", out] + extra)
        err = capsys.readouterr().err
        assert code == 2 and "--seed" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_unsatisfiable_target_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 30, "hazard_slope": 0.0,
                          "hazard_intercept": -40.0, "target_censoring": 0.4})
        code = main(["simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                     "--config", cfg])
        assert code == 2

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigError, 2, "config error: "),
        (DataError, 3, "data error: "),
        (NumericalError, 4, "numerical failure: "),
        (ShapeError, 4, "numerical failure: "),
        (DegenerateConditioningError, 4, "numerical failure: "),
        (EmptyCellError, 2, "error: "),
    ])
    def test_each_error_class_has_its_exit_code_and_label(self, tmp_path, capsys,
                                                          monkeypatch, error, code, prefix):
        def command(args):
            raise error("what went wrong")
        monkeypatch.setattr(cli, "cmd_simulate", command)
        assert main(["simulate", "--seed", "1", "--out", str(tmp_path / "d")]) == code
        err = capsys.readouterr().err
        assert err == f"{prefix}what went wrong\n"       # all of stderr: no traceback


class TestSimulate:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 8, "target_censoring": 0.7,
                          "hazard_intercept": -11.0})
        for name in ("a", "b"):
            assert main(["simulate", "--seed", "5", "--out",
                         str(tmp_path / name), "--config", cfg]) == 0
        files = sorted([CONFIG_NAME, EYES_NAME, IMAGES_NAME])
        assert sorted(os.listdir(tmp_path / "a")) == files
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes()

    def test_zero_hazard_prints_zero_events(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         {"n_patients": 6, "hazard_slope": 0.0,
                          "hazard_intercept": -40.0, "target_censoring": 1.0})
        assert main(["simulate", "--seed", "2", "--out", str(tmp_path / "d"),
                     "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "(0 events)" in out
        assert "100.0%" in out

    def test_config_tuple_equals_the_saved_one(self, tmp_path, monkeypatch):
        built = []

        def save(path, eyes, cfg):
            built.append(cfg)
            save_dataset(path, eyes, cfg)

        monkeypatch.setattr(cli, "save_dataset", save)
        cfg = write_json(tmp_path / "c.json", {"n_patients": 8, "target_censoring": 0.7,
                                                  "hazard_intercept": -11.0,
                                                  "gain_range": [0.5, 1.5]})
        assert main(["simulate", "--seed", "5", "--out", str(tmp_path / "d"),
                     "--config", cfg]) == 0
        _, loaded = load_dataset(str(tmp_path / "d"))
        assert built == [loaded] and loaded.gain_range == (0.5, 1.5)
        assert hash(built[0]) == hash(loaded)

    def test_summary_fields_printed(self, workspace, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", SMOKE_COHORT)
        assert main(["simulate", "--seed", "3", "--out", str(tmp_path / "d"),
                     "--config", cfg]) == 0
        out = capsys.readouterr().out
        for token in ("visits, mean (sd)", "censored", "years to disease"):
            assert token in out


class TestTrain:
    def test_checkpoint_and_history_written(self, workspace):
        assert not os.path.exists(os.path.join(workspace["ckpt"], "manifest.tsv"))
        assert os.path.isfile(os.path.join(workspace["ckpt"], "params.bin"))
        assert os.path.isfile(os.path.join(workspace["ckpt"], "config.json"))
        history = open(os.path.join(workspace["ckpt"], "history.tsv")).read()
        assert history.splitlines()[0] == "epoch\ttrain_loss\tval_metric\tlr\tsurv\tpred"
        assert len(history.strip().splitlines()) == 3

    def test_reproducible_training_bytes(self, workspace, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["train", "--seed", "13", "--out", out,
                         "--dataset", workspace["dataset"],
                         "--config", workspace["train_cfg"]]) == 0
        for rel in ("params.bin", "history.tsv", "config.json"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes()
        assert (tmp_path / "a" / "params.bin").read_bytes() == \
               open(os.path.join(workspace["ckpt"], "params.bin"), "rb").read()

    def test_baseline_kind(self, workspace, tmp_path):
        out = str(tmp_path / "b")
        assert main(["train", "--seed", "13", "--kind", "baseline", "--out", out,
                     "--dataset", workspace["dataset"],
                     "--config", workspace["train_cfg"]]) == 0
        names = list(load_checkpoint(out)[0])
        assert not any(name.startswith("tr") for name in names)
        assert "head.step.w" not in names and "head.surv.w" in names

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

    @pytest.mark.parametrize("kind", ["longitudinal", "baseline"])
    def test_empty_validation_grid_is_data_error(self, tmp_path, capsys, kind):
        # 4 validation patients whose eyes give no comparable pair in any cell
        dataset, out = str(tmp_path / "d"), tmp_path / "ckpt"
        assert main(["simulate", "--seed", "7", "--patients", "40", "--out", dataset]) == 0
        code = main(["train", "--seed", "7", "--kind", kind, "--dataset", dataset,
                     "--out", str(out), "--max-epochs", "2"])
        err = capsys.readouterr().err
        assert code == 3 and "validation split" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_loss_exits_4_with_the_best_checkpoint(self, workspace, tmp_path,
                                                              capsys, monkeypatch):
        # the loss turns NaN once epoch 1 has been validated
        validations, real_scorer, real_loss = [], trainer.ModelScorer, trainer.sequence_loss

        def scorer(*args):
            validations.append(1)
            return real_scorer(*args)

        def loss(*args, **kwargs):
            if validations:
                return dg.constant(np.array(np.nan)), {"surv": np.nan, "pred": 0.0}
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(trainer, "ModelScorer", scorer)
        monkeypatch.setattr(trainer, "sequence_loss", loss)
        out = tmp_path / "ckpt"
        code = main(["train", "--seed", "13", "--out", str(out), "--dataset",
                     workspace["dataset"], "--config", workspace["train_cfg"]])
        err = capsys.readouterr().err
        assert code == 4 and "diverged" in err and "Traceback" not in err
        assert str(out) in err and len(validations) == 1
        history = (out / "history.tsv").read_text().splitlines()
        assert [row.split("\t")[0] for row in history[1:]] == ["1"]
        params, record = load_checkpoint(str(out))
        assert record["model"]["kind"] == "longitudinal" and params


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


# sha256 of the report and samples of ``evaluate``/``compare`` on the oracle at
# --bootstrap 40 over the workspace's test split (16 eyes), where draws redraw;
# with MAX_REDRAWS at 2, seven of its cells with an estimate get no defined draw
REPORT_PINS = {
    100: {"evaluate": ("785c18fd4decd24adbfe089d01eae9527823db558e16b968bf221893922521e4",
                       "31695d2f059eb8d994b1344ed6169271b7ef0d372bb5b440b4b09d617138a066"),
          "compare": ("790c094369603cb1110dde393560a3f37030300f484b2490f9050d3102232b35",
                      "e418dd39d49076df412abcacc8c8df353f1b334bec145be4b701c8005bbf664f")},
    2: {"evaluate": ("87dd77d1de596f245f2a03a3decd0998fd013928b970090033b7b91ae4cbf0d8",
                     "75f19c9963ce003a79cb4c9f05d192715c90071b116700943d7f23335f9c184f"),
        "compare": ("dee8c93ca3fd5dc5f0e31b96f60f2761bc73f06b8fc4017b29a5c1259adce299",
                    "13684d2cd9b8e0cb6c8ee21be4cbd0639135f93816aa0e2d1ed01c97b0da6888")},
}


@pytest.mark.parametrize("max_redraws", [100, 2])
@pytest.mark.parametrize("command, flags, report", [
    ("evaluate", ["--ckpt", "oracle"], "report.tsv"),
    ("compare", ["--ckpt-a", "oracle", "--ckpt-b", "anti-oracle"], "compare.tsv"),
], ids=["evaluate", "compare"])
def test_report_bytes_are_pinned(workspace, tmp_path, monkeypatch, caplog, command, flags,
                                 report, max_redraws):
    monkeypatch.setattr(metrics, "MAX_REDRAWS", max_redraws)
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="longisurv.metrics"):
        assert main([command, "--seed", "3", "--dataset", workspace["dataset"],
                     "--bootstrap", "40", "--out", str(out)] + flags) == 0
    assert "redrew" in caplog.text
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in (report, "samples.tsv"))
    assert digests == REPORT_PINS[max_redraws][command]


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
        eyes, _ = load_dataset(workspace["dataset"])
        with_two = [e.eye_id for e in eyes if e.visit_months[-1] >= 24][:2]
        assert len(with_two) == 2
        out = str(tmp_path / "curves.svg")
        assert main(["plot", "--curves", "--ckpt", workspace["ckpt"],
                     "--ckpt", "oracle", "--dataset", workspace["dataset"],
                     "--eyes", ",".join(with_two), "--at-years", "2",
                     "--out", out]) == 0
        svg = open(out).read()
        assert svg.count("<polyline") == 4      # two eyes x two models

    @pytest.mark.parametrize("token", ["random", "anti-oracle"])
    def test_curves_refuse_a_source_without_curves(self, workspace, tmp_path, capsys,
                                                   token):
        # the anti-oracle is 1 - r on window risks; it has no curve of its own
        eyes, _ = load_dataset(workspace["dataset"])
        eye = next(e.eye_id for e in eyes if e.visit_months[-1] >= 24)
        out = tmp_path / "curves.svg"
        code = main(["plot", "--curves", "--ckpt", "oracle", "--ckpt", token,
                     "--dataset", workspace["dataset"], "--eyes", eye,
                     "--at-years", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and f"{token} source has no survival curves" in err
        assert not out.exists()

    def test_empty_report_is_config_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("model\tmetric\n")
        code = main(["plot", "--report", str(empty), "--samples", str(empty),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 2
        assert "evaluate" in capsys.readouterr().err

    @pytest.mark.parametrize("case, code, named", [
        ("report_without_samples", 2, "--samples is required"),
        ("brier_on_a_compare_report", 2, "no brier samples"),
        ("curves_without_ckpt", 2, "--curves needs --ckpt"),
        ("curves_of_an_unknown_eye", 3, "nosuch"),
    ])
    def test_incomplete_or_unknown_plot_input_exits_early(self, workspace, report_dir,
                                                          tmp_path, capsys, case, code,
                                                          named):
        report = ["--report", os.path.join(report_dir, "compare.tsv")]
        samples = ["--samples", os.path.join(report_dir, "samples.tsv")]
        curves = ["--curves", "--dataset", workspace["dataset"], "--at-years", "2"]
        out = tmp_path / "x.svg"
        args = {"report_without_samples": report,
                "brier_on_a_compare_report": report + samples + ["--metric", "brier"],
                "curves_without_ckpt": curves + ["--eyes", "nosuch"],
                "curves_of_an_unknown_eye": curves + ["--ckpt", "oracle", "--eyes", "nosuch"],
                }[case]
        assert main(["plot", "--out", str(out)] + args) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_mode_required(self, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 2


# Runs in a fresh interpreter, since this test process has imported scipy.
# argv: a scratch directory. Prints the scipy modules loaded after the
# scipy-free commands, then after compare, as one JSON object.
_SCIPY_PROBE = r"""
import json, os, sys
import numpy as np
import longisurv
from longisurv import cli, encoders, model, synthcohort

root = sys.argv[1]
dataset, ckpt = os.path.join(root, "dataset"), os.path.join(root, "ckpt")
def run(*argv):
    code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

run("simulate", "--seed", "13", "--patients", "20", "--out", dataset)
eyes, cfg = synthcohort.load_dataset(dataset)
train_eyes = synthcohort.split_patients(eyes, seed=13)[0]
px_mean, px_std = encoders.pixel_stats(np.concatenate([e.images for e in train_eyes]))
mcfg = model.ModelConfig(kind=model.KIND_LONGITUDINAL, dtype="float32", embed_dim=8,
                         n_layers=1, n_heads=2, conv_widths=(2, 4, 4), j_max=cfg.j_max,
                         step_months=cfg.step_months, image_size=cfg.image_size,
                         image_channels=cfg.image_channels)
model.save_checkpoint(ckpt, model.init_params(mcfg, seed=13),
                      {"model": mcfg.to_dict(), "pixel_mean": px_mean, "pixel_std": px_std,
                       "l_max": max(e.n_visits for e in eyes), "seed": 13})
common = ["--dataset", dataset, "--split", "all", "--seed", "3"]
run("evaluate", "--ckpt", "oracle", "--bootstrap", "20", "--out",
    os.path.join(root, "ev"), *common)
run("plot", "--report", os.path.join(root, "ev", "report.tsv"), "--samples",
    os.path.join(root, "ev", "samples.tsv"), "--out", os.path.join(root, "fig.svg"))
run("attention", "--ckpt", ckpt, "--out", os.path.join(root, "att"), *common)
before = loaded()
run("compare", "--ckpt-a", "oracle", "--ckpt-b", "random", "--bootstrap", "20",
    "--out", os.path.join(root, "cmp"), *common)
print(json.dumps({"before_compare": before, "after_compare": loaded()}))
"""


def test_only_the_welch_test_imports_scipy(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert modules["before_compare"] == []
    assert "scipy.special" in modules["after_compare"]
    assert (tmp_path / "cmp" / "compare.tsv").is_file()
