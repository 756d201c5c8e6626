"""Smoke run of the replication harness on a tiny cohort.

    python -m pytest -q replicate
"""
import dataclasses
import json

from replicate import protocol


def test_main_writes_the_judged_grid(tmp_path, monkeypatch):
    # 60 patients: at 40, some seeds leave the validation grid without a pair
    monkeypatch.setattr(protocol, "N_PATIENTS", 60)
    real_train = protocol.train
    monkeypatch.setattr(protocol, "train", lambda tr, va, model_cfg, train_cfg: real_train(
        tr, va, model_cfg, dataclasses.replace(train_cfg, max_epochs=1)))
    out = tmp_path / "rep.json"
    assert protocol.main(["--seed", "2024", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"seed", "elapsed_s", "ltsa", "baseline", "cells", "ahead",
                           "behind", "empty", "significant"}
    assert result["seed"] == 2024
    assert len(result["cells"]) == 16
    assert set(result["cells"][0]) == {"t", "dt", "anchors", "ltsa", "baseline",
                                       "p_adjusted", "margin", "verdict", "significant"}
    assert all(c["t"] >= protocol.LATE_T for c in result["cells"])
    assert result["ahead"] + result["behind"] + result["empty"] == 16
    for kind in ("ltsa", "baseline"):
        assert result[kind]["stopped_epoch"] == 1 and len(result[kind]["epochs"]) == 1
