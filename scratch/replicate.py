"""Run the directional-replication protocol of acceptance criterion 1 on any seed.

Simulates the desk cohort (1,000 patients) from ``--seed``, splits it, trains
the longitudinal model (lr 5e-4) and the baseline (lr 1e-3) as the acceptance
fixture does, compares them on the test split with 1,000 shared bootstrap
resamples, and prints the 16 cells with t >= 2 years: both bootstrap means,
the margin, the Bonferroni-adjusted P and the number of anchors (uncensored
events inside the cell's window). Per-epoch loss parts (survival and
step-ahead terms), validation C and learning rate are logged for both kinds.

    PYTHONPATH=src python scratch/replicate.py --seed 2024 --out runs/rep2024.json
    PYTHONPATH=src python scratch/replicate.py --seed 2024 --baseline-max-epochs 100
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from longisurv.metrics import ModelScorer, OracleScorer, build_risk_cells
from longisurv.model import ModelConfig
from longisurv.reports import RiskSource, compare_sources
from longisurv.synthcohort import CohortConfig, generate_cohort, split_patients
from longisurv.trainer import TrainConfig, train

T_GRID = (1.0, 2.0, 3.0, 5.0, 8.0)
DT_GRID = (1.0, 2.0, 5.0, 8.0)


def train_logged(kind, train_eyes, val_eyes, train_cfg):
    """Train one kind; return the result, its per-epoch history (mean loss
    parts included) and the seconds it took."""
    t0 = time.time()
    res = train(train_eyes, val_eyes, ModelConfig(kind=kind, dtype="float32"), train_cfg)
    return res, res.history, time.time() - t0


def _summary(res, epochs, seconds):
    return {"best_epoch": res.best_epoch, "best_val_c": res.best_metric,
            "stopped_epoch": res.stopped_epoch, "seconds": round(seconds, 1),
            "epochs": epochs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--baseline-max-epochs", type=int, default=50)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    cohort = CohortConfig(n_patients=1000, seed=args.seed)
    eyes = generate_cohort(cohort)
    train_eyes, val_eyes, test_eyes = split_patients(eyes, seed=args.seed)

    ltsa, ltsa_epochs, ltsa_s = train_logged(
        "longitudinal", train_eyes, val_eyes, TrainConfig(seed=args.seed, lr=5e-4))
    print(f"ltsa: best epoch {ltsa.best_epoch} val C {ltsa.best_metric:.4f}, "
          f"stopped {ltsa.stopped_epoch}, {ltsa_s:.0f}s", flush=True)

    base, base_epochs, base_s = train_logged(
        "baseline", train_eyes, val_eyes,
        TrainConfig(seed=args.seed, lr=1e-3, max_epochs=args.baseline_max_epochs))
    print(f"baseline: best epoch {base.best_epoch} val C {base.best_metric:.4f}, "
          f"stopped {base.stopped_epoch}", flush=True)

    rows = compare_sources(
        RiskSource(name="longitudinal", scorer=ModelScorer(ltsa.params, ltsa.record)),
        RiskSource(name="baseline", scorer=ModelScorer(base.params, base.record)),
        test_eyes, cohort.grid, t_years=T_GRID, dt_years=DT_GRID,
        n_bootstrap=1000, seed=args.seed)
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r.t_years, r.dt_years), {})[r.model] = r

    cells, ahead, significant, empty = [], 0, 0, 0
    print(f"{'cell':>10} {'LTSA':>7} {'base':>7} {'margin':>8} {'P_adj':>9} anchors")
    truth = build_risk_cells(OracleScorer(), test_eyes, cohort.grid,
                             t_years=T_GRID, dt_years=DT_GRID)
    for t in T_GRID:
        if t < 2.0:
            continue
        for dt in DT_GRID:
            anchors = truth[(t, dt)].n_anchors
            lt, bs = by_cell[(t, dt)]["longitudinal"], by_cell[(t, dt)]["baseline"]
            cell = {"t": t, "dt": dt, "anchors": anchors, "ltsa": lt.boot_mean,
                    "baseline": bs.boot_mean, "p_adjusted": lt.p_adjusted}
            if lt.boot_mean is None or bs.boot_mean is None:
                empty += 1
                print(f"{str((t, dt)):>10}   empty{'':>26} {anchors:>3}")
            else:
                margin = lt.boot_mean - bs.boot_mean
                cell["margin"] = margin
                ahead += margin > 0
                sig = lt.p_adjusted is not None and lt.p_adjusted <= 0.05
                significant += sig
                print(f"{str((t, dt)):>10} {lt.boot_mean:7.4f} {bs.boot_mean:7.4f} "
                      f"{margin:+8.4f} {lt.p_adjusted:9.2e} {anchors:>3}"
                      f"{'' if margin > 0 else '  <- behind'}")
            cells.append(cell)
    n_cells = len(cells) - empty
    print(f"ahead {ahead}/{n_cells} non-empty cells, significant {significant}, "
          f"empty {empty}", flush=True)

    result = {"seed": args.seed, "baseline_max_epochs": args.baseline_max_epochs,
              "ltsa": _summary(ltsa, ltsa_epochs, ltsa_s),
              "baseline": _summary(base, base_epochs, base_s),
              "cells": cells, "ahead": ahead, "non_empty": n_cells,
              "significant": significant, "empty": empty}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
