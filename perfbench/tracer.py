"""Span tracer that times longisurv's public functions from outside the package.

``Tracer.installed()`` replaces every function listed in ``TRACED`` with a
wrapper, in its defining module and in every ``longisurv`` module that bound
it with ``from .x import y``, and puts the originals back on exit. Each call
records a span (name, start, end, parent) in memory; the report turns them
into per-function self time (span time minus the time its child spans
cover), call counts and the work counts below, per-layer totals, and the
part of the traced wall time that no span covers.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

PACKAGE = "longisurv"

# the package modules timed as layers (survival and errors are too thin)
LAYERS = ("synthcohort", "encoders", "diffgraph", "model", "losses", "trainer",
          "metrics", "reports", "svgplot", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _path_mb(path: str) -> float:
    """Size of a file, or of every file under a directory, in MB."""
    if os.path.isfile(path):
        return os.path.getsize(path) / 1e6
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 1e6


def _mb_of_path_arg(span, args, kwargs, result):
    # sized when the report is built, so the walk stays outside every span
    path = _arg(args, kwargs, 0, "path")
    span.deferred = lambda: {"mb": _path_mb(path)}


def _images_of_array(span, args, kwargs, result):
    span.counts = {"images": int(_arg(args, kwargs, 0, "images").shape[0])}


def _images_of_node(span, args, kwargs, result):
    span.counts = {"images": int(_arg(args, kwargs, 0, "images").value.shape[0])}


def _conv_block(span, args, kwargs, result):
    """Key conv2d by encoder block (from the weight leaf's name), count GFLOP.

    The GFLOP figure is computed from shapes, forward pass only: two flops
    per multiply-add of the im2col product.
    """
    w = _arg(args, kwargs, 1, "w")
    span.name = f"diffgraph.conv2d.b{w.op.split('.')[1].removeprefix('conv')}"
    f, c, kh, kw = w.value.shape
    n, _, oh, ow = result.value.shape
    span.counts = {"gflop": 2.0 * n * oh * ow * f * c * kh * kw / 1e9}


def _eyes_of_batch(span, args, kwargs, result):
    span.counts = {"eyes": int(_arg(args, kwargs, 2, "batch").valid.shape[0])}


def _images_of_single(span, args, kwargs, result):
    span.counts = {"images": int(_arg(args, kwargs, 2, "images").shape[0])}


def _epochs_of_train(span, args, kwargs, result):
    span.counts = {"epochs": len(result.history)}


def _bootstrap_draws(span, args, kwargs, result):
    span.counts = {"samples": len(result.samples), "redraws": int(result.n_redraws)}


# (module, attribute, count hook); a hook may rename the span and sets counts
TRACED = (
    ("synthcohort", "generate_cohort", None),
    ("synthcohort", "save_dataset", _mb_of_path_arg),
    ("synthcohort", "load_dataset", _mb_of_path_arg),
    ("synthcohort", "pad_and_batch", None),
    ("encoders", "augment_images", _images_of_array),
    ("encoders", "encode_images", _images_of_node),
    ("encoders", "standardize", None),
    ("diffgraph", "conv2d", _conv_block),
    ("diffgraph", "avg_pool2", None),
    ("diffgraph", "relu", None),
    ("diffgraph", "backward", None),
    ("diffgraph", "matmul", None),
    ("diffgraph", "layer_norm", None),
    ("diffgraph", "masked_softmax", None),
    ("model", "forward_sequences", _eyes_of_batch),
    ("model", "forward_single_images", _images_of_single),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("losses", "sequence_loss", None),
    ("losses", "baseline_loss", None),
    ("trainer", "adam_step", None),
    ("trainer", "train", _epochs_of_train),
    ("metrics", "build_risk_cells", None),
    ("metrics", "ModelScorer.curves", None),
    ("metrics", "window_risks", None),
    ("metrics", "bootstrap_ci", _bootstrap_draws),
    ("metrics", "concordance_td", None),
    ("metrics", "welch_one_sided", None),
    ("metrics", "write_report", None),
    ("metrics", "write_samples", _mb_of_path_arg),
    ("reports", "compare_sources", None),
    ("reports", "attention_analysis", None),
    ("svgplot", "grid_box_figure", None),
    ("cli", "cmd_compare", None),
    ("cli", "cmd_attention", None),
    ("cli", "cmd_plot", None),
)

FORWARD_SPANS = ("model.forward_sequences", "model.forward_single_images")

# the per-layer metrics a traced run reports; absent spans read as 0
PER_LAYER = (
    "synthcohort.generate_cohort.self_s",
    "synthcohort.save_dataset.self_s", "synthcohort.save_dataset.mb",
    "synthcohort.load_dataset.self_s", "synthcohort.load_dataset.mb",
    "synthcohort.pad_and_batch.self_s", "synthcohort.pad_and_batch.calls",
    "encoders.augment_images.self_s", "encoders.augment_images.images",
    "encoders.encode_images.self_s", "encoders.encode_images.images",
    "encoders.standardize.self_s",
    *(f"diffgraph.conv2d.b{b}.{key}" for b in range(3)
      for key in ("self_s", "calls", "gflop", "gflop_per_s")),
    "diffgraph.avg_pool2.self_s", "diffgraph.relu.self_s",
    "diffgraph.backward.self_s", "diffgraph.backward.calls",
    "diffgraph.matmul.self_s", "diffgraph.matmul.calls",
    "diffgraph.layer_norm.self_s", "diffgraph.masked_softmax.self_s",
    "model.forward_sequences.self_s", "model.forward_sequences.calls",
    "model.forward_sequences.eyes",
    "model.forward_single_images.self_s", "model.forward_single_images.calls",
    "model.forward_single_images.images",
    "model.save_checkpoint.self_s", "model.load_checkpoint.self_s",
    "losses.sequence_loss.self_s", "losses.baseline_loss.self_s",
    "trainer.adam_step.self_s", "trainer.adam_step.calls",
    "trainer.steps_per_epoch", "trainer.train.self_s",
    "metrics.build_risk_cells.self_s", "metrics.build_risk_cells.calls",
    "metrics.ModelScorer.curves.self_s", "metrics.ModelScorer.curves.calls",
    "metrics.ModelScorer.curves.forward_passes",
    "metrics.window_risks.self_s",
    "metrics.bootstrap_ci.self_s", "metrics.bootstrap_ci.samples",
    "metrics.bootstrap_ci.redraws", "metrics.bootstrap_ci.useful_ratio",
    "metrics.concordance_td.self_s", "metrics.concordance_td.calls",
    "metrics.welch_one_sided.self_s", "metrics.write_report.self_s",
    "metrics.write_samples.self_s", "metrics.write_samples.mb",
    "reports.compare_sources.self_s", "reports.attention_analysis.self_s",
    "svgplot.grid_box_figure.self_s",
    "cli.cmd_compare.self_s", "cli.cmd_attention.self_s", "cli.cmd_plot.self_s",
    *(f"layer.{layer}.self_s" for layer in LAYERS),
    "trace.wall_s", "trace.untraced_remainder_s", "trace.overhead_s",
    # the concordance the traced unit produced (train-* and compare)
    "trainer.val_c_best", "reports.compare_c_mean",
)

_UNITS = {"mb": "MB", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s",
          "useful_ratio": "ratio", "val_c_best": "C", "compare_c_mean": "C"}


def metric_unit(name: str) -> str:
    key = name.rsplit(".", 1)[1]
    if key.endswith("_s") and key != "gflop_per_s":
        return "s"
    return _UNITS.get(key, "count")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts",
                 "deferred", "forwards")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = None
        self.deferred = None
        self.forwards = 0          # direct child forward passes

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans around the ``TRACED`` functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.wall_s = 0.0          # total time spent inside ``installed()``
        self._stack: list[Span] = []

    def _wrap(self, qualname: str, fn, hook):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(qualname, parent)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            if parent is not None and span.name in FORWARD_SPANS:
                parent.forwards += 1
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function for the duration of the block."""
        importlib.import_module(f"{PACKAGE}.cli")      # loads every layer
        modules = _package_modules()
        undo = []
        try:
            for mod_name, attr, hook in TRACED:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                qualname = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(qualname, original, hook))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(qualname, original, hook)
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
            start = time.perf_counter()
            try:
                yield self
            finally:
                self.wall_s += time.perf_counter() - start
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def report(self) -> dict:
        """Aggregate spans: per function, per layer, and the uncovered rest."""
        funcs: dict[str, dict] = {}
        root_s = 0.0
        for span in self.spans:
            row = funcs.setdefault(span.name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += span.self_s
            row["calls"] += 1
            counts = dict(span.counts or {})
            if span.deferred is not None:
                counts.update(span.deferred())
            if span.name == "metrics.ModelScorer.curves":
                counts["forward_passes"] = span.forwards
            for key, value in counts.items():
                row[key] = row.get(key, 0) + value
            if span.parent is None:
                root_s += span.duration
        layers = {layer: 0.0 for layer in LAYERS}
        for name, row in funcs.items():
            layers[name.split(".")[0]] += row["self_s"]
        return {"functions": funcs, "layers": layers,
                "traced_wall_s": self.wall_s,
                "untraced_remainder_s": self.wall_s - root_s}

    def write_spans(self, path: str) -> None:
        """One line per span: index, parent index, name, start, end (seconds)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(f"{i}\t{parent}\t{s.name}\t{s.start - t0:.9f}"
                         f"\t{s.end - t0:.9f}\n")


def flat_metrics(rep: dict) -> dict:
    """Flat name -> value from ``Tracer.report()``, with the derived ratios."""
    flat = {f"{fn}.{key}": value for fn, row in rep["functions"].items()
            for key, value in row.items()}
    for b in range(3):
        conv = rep["functions"].get(f"diffgraph.conv2d.b{b}")
        if conv:
            flat[f"diffgraph.conv2d.b{b}.gflop_per_s"] = conv["gflop"] / conv["self_s"]
    epochs = flat.get("trainer.train.epochs", 0)
    if epochs:
        flat["trainer.steps_per_epoch"] = flat.get("trainer.adam_step.calls", 0) / epochs
    draws = flat.get("metrics.bootstrap_ci.samples", 0)
    if draws:
        flat["metrics.bootstrap_ci.useful_ratio"] = draws / (
            draws + flat["metrics.bootstrap_ci.redraws"])
    flat.update({f"layer.{layer}.self_s": v for layer, v in rep["layers"].items()})
    flat["trace.wall_s"] = rep["traced_wall_s"]
    flat["trace.untraced_remainder_s"] = rep["untraced_remainder_s"]
    return flat
