"""The directional-replication protocol of acceptance criterion 1, on any seed.

Simulates the desk cohort (1,000 patients) from ``--seed``, splits it, trains
the longitudinal model (lr 5e-4) and then the baseline (lr 1e-3) in float32,
compares them on the test split with 1,000 shared bootstrap draws, and judges
the 16 cells with t >= 2 years: both bootstrap means, the margin, the
Bonferroni-adjusted P and the anchors (uncensored events inside the cell's
window). The acceptance fixture runs ``run`` and ``judge`` at its seed; this
script runs them on any seed, prints the grid and writes it as JSON.

    PYTHONPATH=src python replicate/protocol.py --seed 2024 --out runs/rep2024.json
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from longisurv.metrics import ModelScorer, build_risk_cells
from longisurv.model import ModelConfig
from longisurv.reports import RiskSource, compare_sources
from longisurv.synthcohort import CohortConfig, generate_cohort, split_patients
from longisurv.trainer import TrainConfig, train

N_PATIENTS = 1000
DTYPE = "float32"
LR = {"longitudinal": 5e-4, "baseline": 1e-3}
N_BOOTSTRAP = 1000
LATE_T = 2.0          # criterion 1 judges the cells with t >= 2 years
ALPHA = 0.05          # a cell is significant at Bonferroni-adjusted P <= ALPHA


def run(seed: int) -> dict:
    """Simulate, train both kinds at the recipe, compare on the test split; timed end to end."""
    t_start = time.time()
    cohort = CohortConfig(n_patients=N_PATIENTS, seed=seed)
    eyes = generate_cohort(cohort)
    train_eyes, val_eyes, test_eyes = split_patients(eyes, seed=seed)
    ltsa, base = (train(train_eyes, val_eyes, ModelConfig(kind=kind, dtype=DTYPE),
                        TrainConfig(seed=seed, lr=LR[kind]))
                  for kind in ("longitudinal", "baseline"))
    src_l = RiskSource(name="longitudinal", scorer=ModelScorer(ltsa.params, ltsa.record))
    src_b = RiskSource(name="baseline", scorer=ModelScorer(base.params, base.record))
    rows = compare_sources(src_l, src_b, test_eyes, cohort.grid,
                           n_bootstrap=N_BOOTSTRAP, seed=seed)
    return {"cohort": cohort, "eyes": eyes, "test_eyes": test_eyes, "ltsa": ltsa,
            "base": base, "rows": rows, "elapsed": time.time() - t_start, "src_l": src_l}


def judge(rows, eyes, grid) -> list[dict]:
    """One record per t >= LATE_T cell of ``compare_sources``' rows (LTSA then
    baseline per cell). A cell is empty when either mean is undefined, else
    ahead or behind; a non-empty cell has its P_adj, since ``compare_sources``
    tests every cell with samples. Anchors come from the outcomes of ``eyes`` alone."""
    truth = build_risk_cells(None, eyes, grid)
    cells = []
    for lt, bs in zip(rows[::2], rows[1::2]):
        if lt.t_years < LATE_T:
            continue
        empty = lt.boot_mean is None or bs.boot_mean is None
        cells.append({
            "t": lt.t_years, "dt": lt.dt_years,
            "anchors": truth[(lt.t_years, lt.dt_years)].n_anchors,
            "ltsa": lt.boot_mean, "baseline": bs.boot_mean, "p_adjusted": lt.p_adjusted,
            "margin": None if empty else lt.boot_mean - bs.boot_mean,
            "verdict": ("empty" if empty else
                        "behind" if lt.boot_mean <= bs.boot_mean else "ahead"),
            "significant": bool(not empty and lt.p_adjusted <= ALPHA)})
    return cells


def cell_line(cell: dict) -> str:
    """The cell as one line of the printed grid."""
    where = (cell["t"], cell["dt"])
    if cell["verdict"] == "empty":
        return f"  {where}: empty, {cell['anchors']} anchors"
    return (f"  {where}: longitudinal {cell['ltsa']:.4f} baseline {cell['baseline']:.4f} "
            f"P_adj {cell['p_adjusted']:.2e} anchors {cell['anchors']}"
            f"{'  <- not ahead' if cell['verdict'] == 'behind' else ''}")


def _summary(res) -> dict:
    return {"best_epoch": res.best_epoch, "best_val_c": res.best_metric,
            "stopped_epoch": res.stopped_epoch, "epochs": res.history}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default=None, help="JSON file for the run (default: print only)")
    args = ap.parse_args(argv)

    result = run(args.seed)
    for name, res in (("ltsa", result["ltsa"]), ("baseline", result["base"])):
        print(f"{name}: best epoch {res.best_epoch} val C {res.best_metric:.4f}, "
              f"stopped {res.stopped_epoch}")
    cells = judge(result["rows"], result["test_eyes"], result["cohort"].grid)
    print("\n".join(cell_line(c) for c in cells))
    tally = Counter(c["verdict"] for c in cells)
    n_significant = sum(c["significant"] for c in cells)
    print(f"ahead {tally['ahead']}/{tally['ahead'] + tally['behind']} non-empty cells, "
          f"significant {n_significant}, empty {tally['empty']}; "
          f"end-to-end {result['elapsed']:.0f}s")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "elapsed_s": round(result["elapsed"], 1),
                       "ltsa": _summary(result["ltsa"]), "baseline": _summary(result["base"]),
                       "cells": cells, "ahead": tally["ahead"], "behind": tally["behind"],
                       "empty": tally["empty"], "significant": n_significant}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
