"""Seeded desk benchmark for longisurv.

    python3 perfbench/run.py --workload train-seq --seed 2024 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. One
invocation caps the BLAS thread count at the CPU count before numpy loads,
sets the workload up three times from ``--seed`` (``setup_s`` is the import
time plus the median set-up), then repeats the workload's unit of work as
many times as its nominal unit time fits in ``--seconds``, at least twice
(``wall_s`` is the median unit). Every unit's output digest must equal the
first one's, and a tiny float64 gradient check of each model kind runs
after the timed region; failures count against ``success_rate``.

With ``--trace 1`` the last set-up and the last unit run under the tracer, and the result line holds the
per-layer metrics instead. The line before the result is the environment
block. The full result, and a traced run's spans, are written under
``.perfbench/results/``.

Exit codes: 0 on a completed run (``correct`` says whether the checks held),
2 when the package cannot be imported or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
RESULTS = os.path.join(".perfbench", "results")
SETUP_REPEATS = 3
MIN_UNITS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("train-seq", "train-single", "compare")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return ref[5:]


def timed(fn, *args):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run(args, import_s: float, workdir: str) -> dict:
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.make(args.workload, args.seed, workdir)

    setup_times = []
    for i in range(SETUP_REPEATS):
        traced = tracer is not None and i == SETUP_REPEATS - 1
        with tracer.installed() if traced else contextlib.nullcontext():
            setup_times.append(timed(wl.setup)[1])

    # a fixed unit count per --seconds keeps the median over the same
    # units on every run and commit; a traced run swaps its last unit for a
    # traced one
    n_units = max(MIN_UNITS, int(args.seconds // wl.unit_s))
    units, unit_times = [], []
    for i in range(n_units - (tracer is not None)):
        unit, dt = timed(wl.run_unit, i)
        units.append(unit)
        unit_times.append(dt)
    traced_unit_s = None
    if tracer is not None:
        with tracer.installed():
            unit, traced_unit_s = timed(wl.run_unit, len(units))
        units.append(unit)

    grad_errors = workloads.grad_check_errors(args.seed)
    grad_failed = sum(not err < workloads.GRAD_TOLERANCE for err in grad_errors.values())
    digest_failed = sum(u.digest != units[0].digest for u in units[1:])
    attempted = sum(u.attempted for u in units) + len(grad_errors)
    failed = sum(u.failed for u in units) + digest_failed + grad_failed

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_times_s": setup_times, "unit_times_s": unit_times,
        "traced_unit_s": traced_unit_s, "c_index": units[0].c_index,
        "grad_check_max_rel_error": grad_errors,
        "digests": [u.digest for u in units],
        "error_rate": failed / attempted,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(unit_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        result["trace_report"] = tracer.report()
        flat = tracing.flat_metrics(result["trace_report"])
        flat["trace.overhead_s"] = traced_unit_s - statistics.median(unit_times)
        quality = "reports.compare_c_mean" if args.workload == "compare" else "trainer.val_c_best"
        flat[quality] = units[0].c_index
        result["metrics"] = {name: (flat.get(name, 0), tracing.metric_unit(name))
                             for name in tracing.PER_LAYER}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write_spans(os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}.spans.tsv"))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    sys.path[:0] = [HERE, SRC]
    try:
        import numpy  # noqa: F401  (timed as part of set-up)
        import longisurv.cli  # noqa: F401
    except ImportError as ex:
        print(f"perfbench: cannot import longisurv from {SRC}: {ex}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workdir = os.path.join(".perfbench", f"work-{args.workload}-{os.getpid()}")
    try:
        result = run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(nproc)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)
        fh.write("\n")
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
