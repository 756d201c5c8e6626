"""Command-line surface: simulate, train, evaluate, compare, attention, plot.

Every subcommand is reproducible from its inputs and --seed alone and
writes deterministic bytes; times on the command line are years. Presets and
`--config` sections are read by the config classes' ``from_dict``, as saved
configs are. Exit codes: 0 success, else the error class's ``exit_code`` (errors.py).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import (ConfigError, DataError, LongisurvError, NumericalError, read_table,
                     reading)
from .losses import LossConfig
from .metrics import (DEFAULT_DT_YEARS, DEFAULT_T_YEARS, REPORT_HEADER, SAMPLES_HEADER,
                      visits_seen, write_report, write_samples)
from .model import (KIND_BASELINE, KIND_LONGITUDINAL, RECORD_NAME, ModelConfig,
                    load_checkpoint, save_checkpoint)
from .reports import (SPECIAL_SOURCES, RiskSource, attention_analysis, compare_sources,
                      evaluate_source, source_from_token, write_attention,
                      write_attention_summary)
from .svgplot import grid_box_figure, survival_curves_figure
from .synthcohort import (CohortConfig, generate_cohort, load_dataset,
                          save_dataset, split_patients, summary_stats)
from .trainer import TrainConfig, train, write_history

# the model settings its dataset fixes: the time grid and the image shape
DATASET_KEYS = ("step_months", "j_max", "image_size", "image_channels")
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
            values = json.load(fh)
    except OSError as ex:
        raise ConfigError(f"cannot read config file {path}: {ex.strerror}")
    except ValueError as ex:                # JSON or, before it, UTF-8 decoding
        raise ConfigError(f"config file {path} is not valid JSON: {ex}")
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {values!r}")
    return values


def _years_list(text: str) -> tuple:
    try:
        years = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated years, got {text!r}")
    if len(set(years)) < len(years):
        raise ConfigError(f"a year repeats in {text!r}")
    return years


def _agreeing(path: str, section: dict, fixed: dict, where: str) -> dict:
    """A ``--config`` section over what the dataset or a flag sets, which it must agree with."""
    clash = [f"{where}{k} {section[k]!r} is not {v!r}" for k, v in fixed.items()
             if section.get(k, v) != v]
    if clash:
        raise ConfigError(f"{path}: {', '.join(clash)}, which the dataset or a flag sets")
    return {**fixed, **section}


def _load_split(args):
    """The eyes of ``--dataset`` in ``--split``, and the dataset's config."""
    eyes, cohort_cfg = load_dataset(args.dataset)
    if args.split != "all":
        train_eyes, val_eyes, test_eyes = split_patients(eyes, seed=cohort_cfg.seed)
        eyes = {"train": train_eyes, "val": val_eyes, "test": test_eyes}[args.split]
    return eyes, cohort_cfg


def _source(token: str, seed: int, cohort_cfg) -> RiskSource:
    """``source_from_token``; a checkpoint must have the dataset's time grid and image shape."""
    source = source_from_token(token, seed=seed)
    cfg = getattr(source.scorer, "cfg", None)           # None but for a checkpoint
    misfit = [f"{k} {getattr(cfg, k)}, the dataset's {getattr(cohort_cfg, k)}"
              for k in DATASET_KEYS if cfg and getattr(cfg, k) != getattr(cohort_cfg, k)]
    if misfit:
        raise DataError(f"{os.path.join(token, RECORD_NAME)} has {'; '.join(misfit)}")
    return source


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    overrides = {**COHORT_PRESETS[args.preset], **_agreeing(
        args.config, _read_json(args.config) if args.config else {}, {"seed": args.seed}, "")}
    if args.patients is not None:
        overrides["n_patients"] = args.patients
    cfg = CohortConfig.from_dict(overrides, "cohort")
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
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} exists and is not a directory")
    eyes, cohort_cfg = load_dataset(args.dataset)
    train_eyes, val_eyes, _ = split_patients(eyes, seed=cohort_cfg.seed)
    file_cfg = _read_json(args.config) if args.config else {}
    bad = sorted(k for k, v in file_cfg.items()
                 if k not in ("model", "train", "loss") or not isinstance(v, dict))
    if bad:
        raise ConfigError(f"{args.config}: unknown or non-object config section(s): "
                          f"{', '.join(bad)}")

    fixed = {k: getattr(cohort_cfg, k) for k in DATASET_KEYS}
    model_cfg = ModelConfig.from_dict(_agreeing(args.config, file_cfg.get("model", {}), {
        **fixed, "kind": args.kind, "dtype": args.dtype}, "model."), "model")
    train_over = _agreeing(args.config, file_cfg.get("train", {}), {"seed": args.seed}, "train.")
    if args.max_epochs is not None:
        train_over["max_epochs"] = args.max_epochs
    if args.lr is not None:
        train_over["lr"] = args.lr
    train_cfg = TrainConfig.from_dict(train_over, "train")
    loss_cfg = LossConfig.from_dict(file_cfg.get("loss", {}), "loss")

    warm = None
    if args.init_from:
        warm, warm_record = load_checkpoint(args.init_from)
        if ModelConfig.from_dict(warm_record["model"], "model") != model_cfg:
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
    subset, cohort_cfg = _load_split(args)
    source = _source(args.ckpt, args.seed, cohort_cfg)
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
    subset, cohort_cfg = _load_split(args)
    source_a = _source(args.ckpt_a, args.seed, cohort_cfg)
    # only a random source reads its seed: a second one gets its own stream, so
    # random-vs-random is a genuine comparison, not an identity
    source_b = _source(args.ckpt_b, args.seed + 1, cohort_cfg)
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
    for ra, rb in zip(rows[::2], rows[1::2]):
        est_a, est_b = ("empty" if r.estimate is None else f"{r.estimate:.4f}" for r in (ra, rb))
        print(f"  C(t={ra.t_years:g}, dt={ra.dt_years:g}): {ra.model}={est_a}  "
              f"{rb.model}={est_b}  [{ra.significance}]")
    return 0


def cmd_attention(args) -> int:
    subset, cohort_cfg = _load_split(args)
    report = attention_analysis(_source(args.ckpt, args.seed, cohort_cfg).scorer, subset)
    os.makedirs(args.out, exist_ok=True)
    write_attention(os.path.join(args.out, "attention.tsv"), report)
    write_attention_summary(os.path.join(args.out, "attention_summary.tsv"), report)
    print(f"attention tables written to {args.out}")
    print(f"  eyes analyzed                  {len(subset)}")
    frac = report.fraction_last_max
    share = "NA" if frac is None else f"{100 * frac:.1f}%"
    print(f"  last visit holds max score in  {share} of multi-visit eyes")
    for label, med in zip(report.offset_labels, report.offset_medians):
        print(f"  median score, {label:>3} visits back  {med:.3f}")
    r = "NA" if report.pearson_r is None else f"{report.pearson_r:.3f}"
    print(f"  offset/median correlation      {r}")
    return 0


def cmd_plot(args) -> int:
    if args.report:
        if not args.samples:
            raise ConfigError("--samples is required with --report "
                              "(bootstrap distributions feed the boxes)")
        tables = []
        for path, header in ((args.report, REPORT_HEADER), (args.samples, SAMPLES_HEADER)):
            tables.append(read_table(path, header))
            if not tables[-1]:
                raise ConfigError(f"report {path} has no data rows; run "
                                  f"`longisurv evaluate` or `longisurv compare` first")
        rows, sample_rows = tables
        groups: dict = {}                     # the plotted metric's samples by (model, cell)
        with reading(args.samples):           # every metric's numbers, not just the plotted one
            for line_no, (model, metric, t, dt, _, value) in enumerate(sample_rows, start=2):
                cell, sample = (float(t), float(dt)), float(value)
                if not 0.0 <= sample <= 1.0:
                    raise ValueError(f"line {line_no}: sample {value} is outside [0, 1]")
                if metric == args.metric:
                    groups.setdefault((model, cell), []).append(sample)
        if not groups:
            raise ConfigError(f"no {args.metric} samples in {args.samples}")
        significance = {}
        with reading(args.report):
            for row in (dict(zip(REPORT_HEADER, fields)) for fields in rows):
                stars = row["significance"]
                if row["metric"] == args.metric and "NA" not in (row["p_adjusted"], stars):
                    significance[(float(row["t_years"]), float(row["dt_years"]))] = stars
        svg = grid_box_figure(groups, significance, ylabel=f"time-dependent {args.metric}")
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
            source = _source(token, args.seed, cohort_cfg)
            if source.scorer is None or source.anti:   # anti-oracle: 1 - r, window risks only
                raise ConfigError(f"{source.name} source has no survival curves")
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
    p.add_argument("--kind", choices=[KIND_LONGITUDINAL, KIND_BASELINE],
                   default=KIND_LONGITUDINAL)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON with model/train/loss overrides")
    p.add_argument("--dtype", choices=["float32", "float64"], default="float32",
                   help="training precision (float32 trains ~1.2x faster: its "
                        "backward pass runs in float64, see README)")
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--init-from", help="checkpoint directory to warm-start from")
    p.set_defaults(func=cmd_train)

    def add_eval_args(p, grid=True):
        p.add_argument("--dataset", required=True)
        p.add_argument("--split", choices=["train", "val", "test", "all"],
                       default="test")
        if grid:             # strings: a ConfigError from a type= would escape main
            p.add_argument("--t-years", default=",".join(f"{t:g}" for t in DEFAULT_T_YEARS))
            p.add_argument("--dt-years", default=",".join(f"{dt:g}" for dt in DEFAULT_DT_YEARS))
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
    add_eval_args(p, grid=False)
    p.set_defaults(func=cmd_attention)

    p = sub.add_parser("plot", help="emit a standalone SVG figure")
    add_common(p, seed_required=False)
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
        if (args.seed or 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args) or 0
    except LongisurvError as ex:
        print(f"{ex.label}: {ex}", file=sys.stderr)
        return ex.exit_code
    except OSError as ex:        # inputs are read through errors.reading, so this is an output
        print(f"config error: cannot write {ex.filename}: {ex.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
