"""Command-line surface: simulate, train, evaluate, compare, attention, plot.

Every subcommand is reproducible from its inputs and --seed alone and
writes deterministic bytes. Times on the command line are years; they are
converted to grid steps internally. Exit codes: 0 success, 2 config error,
3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .errors import ConfigError, DataError, LongisurvError, NumericalError
from .losses import LossConfig
from .metrics import visits_seen, write_report, write_samples
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .reports import (SPECIAL_SOURCES, attention_analysis, compare_sources,
                      evaluate_source, source_from_token, write_attention,
                      write_attention_summary)
from .svgplot import grid_box_figure, survival_curves_figure
from .synthcohort import (CohortConfig, generate_cohort, load_dataset,
                          save_dataset, split_patients, summary_stats)
from .trainer import TrainConfig, train, write_history

log = logging.getLogger(__name__)

COHORT_PRESETS = {
    # 6-month grid, 13-year horizon, high censoring
    "areds_like": {},
    # annual grid, 14-year horizon
    "ohts_like": {"step_months": 12, "j_max": 15, "target_censoring": 0.888,
                  "min_gap_steps": 1, "max_gap_steps": 2, "drift_mean": 0.24,
                  "drift_sd": 0.28, "severity_noise_sd": 0.10,
                  "min_admin_steps": 2},
}


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config file {path} is not valid JSON: {ex}")


def _known_keys(cls, section: str, values: dict) -> dict:
    """The overrides for one config class, rejecting any key it does not have."""
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {section} config key(s): {', '.join(unknown)}")
    return values


def _years_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated years, got {text!r}")


def _split_eyes(eyes, cohort_cfg, which: str):
    if which == "all":
        return eyes
    train_eyes, val_eyes, test_eyes = split_patients(eyes, seed=cohort_cfg.seed)
    return {"train": train_eyes, "val": val_eyes, "test": test_eyes}[which]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    overrides = dict(COHORT_PRESETS[args.preset])
    if args.config:
        overrides.update(_read_json(args.config))
    if args.patients is not None:
        overrides["n_patients"] = args.patients
    overrides["seed"] = args.seed
    cfg = CohortConfig(**_known_keys(CohortConfig, "cohort", overrides))
    eyes = generate_cohort(cfg)
    save_dataset(args.out, eyes, cfg)
    stats = summary_stats(eyes, cfg.grid)
    print(f"wrote {stats['n_eyes']} eyes / {stats['n_images']} images to {args.out}")
    print(f"  patients            {stats['n_patients']}")
    print(f"  visits, mean (sd)   {stats['visits_mean']:.2f} ({stats['visits_sd']:.2f})")
    print(f"  years observed      {stats['years_observed_mean']:.2f} "
          f"({stats['years_observed_sd']:.2f})")
    print(f"  censored            {stats['censored_pct']:.1f}%"
          f"  ({stats['n_events']} events)")
    print(f"  years to disease    {stats['years_to_event_mean']:.2f} "
          f"({stats['years_to_event_sd']:.2f})")
    return 0


def cmd_train(args) -> int:
    eyes, cohort_cfg = load_dataset(args.dataset)
    train_eyes, val_eyes, _ = split_patients(eyes, seed=cohort_cfg.seed)
    file_cfg = _read_json(args.config) if args.config else {}

    model_over = {"kind": args.kind, "j_max": cohort_cfg.j_max,
                  "step_months": cohort_cfg.step_months,
                  "image_size": cohort_cfg.image_size,
                  "image_channels": cohort_cfg.image_channels,
                  "dtype": args.dtype}
    model_over.update(file_cfg.get("model", {}))
    model_cfg = ModelConfig.from_dict(_known_keys(ModelConfig, "model", model_over))

    train_over = {"seed": args.seed}
    train_over.update(file_cfg.get("train", {}))
    if args.max_epochs is not None:
        train_over["max_epochs"] = args.max_epochs
    if args.lr is not None:
        train_over["lr"] = args.lr
    train_cfg = TrainConfig(**_known_keys(TrainConfig, "train", train_over))
    loss_cfg = LossConfig(**_known_keys(LossConfig, "loss", file_cfg.get("loss", {})))

    warm = None
    if args.init_from:
        warm, warm_record = load_checkpoint(args.init_from)
        if warm_record["model"] != model_cfg.to_dict():
            raise ConfigError("--init-from checkpoint has a different architecture")

    result = train(train_eyes, val_eyes, model_cfg, train_cfg, loss_cfg,
                   warm_start=warm)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(args.out, result.params, result.record)
    write_history(os.path.join(args.out, "history.tsv"), result.history)
    print(f"checkpoint written to {args.out}")
    print(f"  best epoch {result.best_epoch} "
          f"(val mean concordance {result.best_metric:.4f}), "
          f"stopped at epoch {result.stopped_epoch}")
    if result.diverged:
        raise NumericalError(
            f"training diverged; best checkpoint from epoch {result.best_epoch} "
            f"was saved to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    eyes, cohort_cfg = load_dataset(args.dataset)
    subset = _split_eyes(eyes, cohort_cfg, args.split)
    source = source_from_token(args.ckpt, seed=args.seed)
    rows = evaluate_source(source, subset, cohort_cfg.grid,
                           t_years=_years_list(args.t_years),
                           dt_years=_years_list(args.dt_years),
                           n_bootstrap=args.bootstrap, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "report.tsv"), rows)
    write_samples(os.path.join(args.out, "samples.tsv"), rows)
    print(f"report written to {args.out}/report.tsv "
          f"({args.split} split, {len(subset)} eyes)")
    for r in rows:
        if r.metric != "concordance":
            continue
        est = "empty" if r.estimate is None else f"{r.estimate:.4f}"
        ci = ("" if r.ci_lo is None
              else f"  [{r.ci_lo:.4f}, {r.ci_hi:.4f}]")
        print(f"  C(t={r.t_years:g}, dt={r.dt_years:g}) = {est}{ci}")
    return 0


def cmd_compare(args) -> int:
    eyes, cohort_cfg = load_dataset(args.dataset)
    subset = _split_eyes(eyes, cohort_cfg, args.split)
    source_a = source_from_token(args.ckpt_a, seed=args.seed)
    # a second random source gets its own stream so random-vs-random is a
    # genuine comparison, not an identity
    seed_b = args.seed + 1 if args.ckpt_b == "random" else args.seed
    source_b = source_from_token(args.ckpt_b, seed=seed_b)
    if source_a.name == source_b.name:
        source_a.name += "_a"
        source_b.name += "_b"
    rows = compare_sources(source_a, source_b, subset, cohort_cfg.grid,
                           t_years=_years_list(args.t_years),
                           dt_years=_years_list(args.dt_years),
                           n_bootstrap=args.bootstrap, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "compare.tsv"), rows)
    write_samples(os.path.join(args.out, "samples.tsv"), rows)
    print(f"comparison written to {args.out}/compare.tsv")
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r.t_years, r.dt_years), []).append(r)
    for (t, dt), cell_rows in by_cell.items():
        ra = cell_rows[0]
        parts = []
        for r in cell_rows:
            est = "empty" if r.estimate is None else f"{r.estimate:.4f}"
            parts.append(f"{r.model}={est}")
        sig = ra.significance if ra.p_adjusted is not None else "NA"
        print(f"  C(t={t:g}, dt={dt:g}): {'  '.join(parts)}  [{sig}]")
    return 0


def cmd_attention(args) -> int:
    eyes, cohort_cfg = load_dataset(args.dataset)
    subset = _split_eyes(eyes, cohort_cfg, args.split)
    params, record = load_checkpoint(args.ckpt)
    report = attention_analysis(params, record, subset)
    os.makedirs(args.out, exist_ok=True)
    write_attention(os.path.join(args.out, "attention.tsv"), report)
    write_attention_summary(os.path.join(args.out, "attention_summary.tsv"), report)
    print(f"attention tables written to {args.out}")
    print(f"  eyes analyzed                  {len(subset)}")
    print(f"  last visit holds max score in  {100 * report.fraction_last_max:.1f}%")
    for label, med in zip(report.offset_labels, report.offset_medians):
        print(f"  median score, {label:>3} visits back  {med:.3f}")
    r = "NA" if report.pearson_r is None else f"{report.pearson_r:.3f}"
    print(f"  offset/median correlation      {r}")
    return 0


def _read_table(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(
            f"report {path} has no data rows; run `longisurv evaluate` or "
            f"`longisurv compare` first")
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def cmd_plot(args) -> int:
    if args.report:
        if not args.samples:
            raise ConfigError("--samples is required with --report "
                              "(bootstrap distributions feed the boxes)")
        rows = _read_table(args.report)
        sample_rows = _read_table(args.samples)
        groups: dict = {}
        for r in sample_rows:
            if r["metric"] != args.metric:
                continue
            key = (r["model"], (float(r["t_years"]), float(r["dt_years"])))
            groups.setdefault(key, []).append(float(r["value"]))
        if not groups:
            raise ConfigError(f"no {args.metric} samples in {args.samples}")
        groups = {k: np.array(v) for k, v in groups.items()}
        models = sorted({m for m, _ in groups})
        cells = sorted({c for _, c in groups})
        significance = {}
        for r in rows:
            if (r["metric"] == args.metric and r["p_adjusted"] != "NA"
                    and r["significance"] != "NA"):
                significance[(float(r["t_years"]), float(r["dt_years"]))] = \
                    r["significance"]
        svg = grid_box_figure(groups, cells, models, significance,
                              ylabel=f"time-dependent {args.metric}")
    elif args.curves:
        if not (args.ckpt and args.dataset and args.eyes):
            raise ConfigError("--curves needs --ckpt, --dataset and --eyes")
        eyes, cohort_cfg = load_dataset(args.dataset)
        wanted = args.eyes.split(",")
        by_id = {e.eye_id: e for e in eyes}
        missing = [w for w in wanted if w not in by_id]
        if missing:
            raise DataError(f"eye ids not in dataset: {missing}")
        chosen = [by_id[w] for w in wanted]
        seen = visits_seen(chosen, cohort_cfg.grid,
                           cohort_cfg.grid.time_to_step(args.at_years))[None, :]
        unseen = [w for w, c in zip(wanted, seen[0]) if c == 0]
        if unseen:
            raise DataError(f"no visit by year {args.at_years:g} for eyes {unseen}")
        curves = {}
        for token in args.ckpt:
            source = source_from_token(token, seed=args.seed)
            if source.scorer is None:
                raise ConfigError("random source has no survival curves")
            for eye_id, s in zip(wanted, source.scorer.curves(chosen, seen)[0]):
                curves[f"{source.name}: {eye_id}"] = s
        svg = survival_curves_figure(curves,
                                     step_years=cohort_cfg.step_months / 12.0)
    else:
        raise ConfigError("choose a mode: --report REPORT.tsv or --curves")
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"figure written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longisurv",
        description="Discrete-time survival analysis from longitudinal image "
                    "sequences: synthetic cohorts, sequence/baseline models, and "
                    "time-dependent evaluation reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_required=True):
        p.add_argument("--seed", type=int, required=seed_required, default=None,
                       help="run seed; all randomness derives from it")
        p.add_argument("--out", required=True, help="output directory or file")

    p = sub.add_parser("simulate", help="generate a synthetic cohort dataset")
    add_common(p)
    p.add_argument("--preset", choices=sorted(COHORT_PRESETS), default="areds_like",
                   help="cohort shape preset (grid, censoring, visit schedule)")
    p.add_argument("--config", help="JSON file of cohort config overrides")
    p.add_argument("--patients", type=int, help="number of patients")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model on a simulated dataset")
    add_common(p)
    p.add_argument("--kind", choices=["longitudinal", "baseline"],
                   default="longitudinal")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON with model/train/loss overrides")
    p.add_argument("--dtype", choices=["float32", "float64"], default="float32",
                   help="training precision (float32 is ~2x faster)")
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--init-from", help="checkpoint directory to warm-start from")
    p.set_defaults(func=cmd_train)

    def add_eval_args(p):
        p.add_argument("--dataset", required=True)
        p.add_argument("--split", choices=["train", "val", "test", "all"],
                       default="test")
        p.add_argument("--t-years", default="1,2,3,5,8")
        p.add_argument("--dt-years", default="1,2,5,8")
        p.add_argument("--bootstrap", type=int, default=1000)

    p = sub.add_parser("evaluate", help="grid metrics with bootstrap CIs")
    add_common(p)
    p.add_argument("--ckpt", required=True,
                   help=f"checkpoint dir or one of {SPECIAL_SOURCES}")
    add_eval_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="head-to-head comparison with stars")
    add_common(p)
    p.add_argument("--ckpt-a", required=True)
    p.add_argument("--ckpt-b", required=True)
    add_eval_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("attention", help="temporal attention analysis")
    add_common(p, seed_required=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"],
                   default="test")
    p.set_defaults(func=cmd_attention)

    p = sub.add_parser("plot", help="emit a standalone SVG figure")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="report.tsv from evaluate/compare")
    p.add_argument("--samples", help="samples.tsv matching --report")
    p.add_argument("--metric", default="concordance",
                   choices=["concordance", "brier"])
    p.add_argument("--curves", action="store_true",
                   help="plot predicted survival curves instead of boxes")
    p.add_argument("--ckpt", action="append", default=None,
                   help="checkpoint (repeatable) for --curves")
    p.add_argument("--dataset", help="dataset for --curves")
    p.add_argument("--eyes", help="comma-separated eye ids for --curves")
    p.add_argument("--at-years", type=float, default=4.0,
                   help="prediction time for --curves")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args) or 0
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except DataError as ex:
        print(f"data error: {ex}", file=sys.stderr)
        return 3
    except NumericalError as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return 4
    except LongisurvError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
