"""Tests of the benchmark's tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from longisurv import metrics  # noqa: E402


def _bindings():
    """Every (owner, attribute, object) the traced names are bound to."""
    found = []
    for mod in tracing._package_modules():
        for _, attr, _ in tracing.TRACED:
            if "." not in attr and attr in vars(mod):
                found.append((mod, attr, vars(mod)[attr]))
    found.append((metrics.ModelScorer, "curves", metrics.ModelScorer.__dict__["curves"]))
    return found


def test_install_leaves_no_listed_binding_unwrapped():
    with tracing.Tracer().installed():
        imported = tracing._package_modules()
        for mod_name, attr, _ in tracing.TRACED:
            home = sys.modules[f"longisurv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                fn = vars(getattr(home, cls_name))[meth]
                assert getattr(fn, "__wrapped_by_perfbench__", False), attr
                continue
            original = getattr(home, attr).__wrapped__
            for mod in imported:
                assert vars(mod).get(attr) is not original, (mod.__name__, attr)
        # the names bound by ``from .model import forward_sequences``
        for user in ("trainer", "metrics", "reports"):
            fn = vars(sys.modules[f"longisurv.{user}"])["forward_sequences"]
            assert fn.__wrapped_by_perfbench__


def test_originals_restored_on_exit_and_on_error():
    before = _bindings()
    with tracing.Tracer().installed():
        pass
    assert [(o, a, f) for o, a, f in _bindings()] == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert len(after) == len(before)
    for (o1, a1, f1), (o2, a2, f2) in zip(before, after):
        assert (o1, a1) == (o2, a2) and f1 is f2


def test_self_times_of_nested_spans_add_up():
    rng = np.random.default_rng(0)
    risks = rng.random(60)
    steps = rng.integers(1, 20, size=60)
    censored = rng.random(60) < 0.5
    tracer = tracing.Tracer()
    with tracer.installed():
        metrics.bootstrap_ci(60, lambda idx: metrics.concordance_td(
            risks[idx], steps[idx], censored[idx], 15), n_samples=50, seed=1)
    children = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "metrics.bootstrap_ci"
    kids = children[id(root)]
    assert {k.name for k in kids} == {"metrics.concordance_td"}
    assert len(kids) >= 50
    assert root.self_s + sum(k.duration for k in kids) == pytest.approx(root.duration, abs=1e-9)
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(root.duration, abs=1e-9)
    report = tracer.report()
    assert (sum(report["layers"].values()) + report["untraced_remainder_s"]
            == pytest.approx(tracer.wall_s, abs=1e-9))
    assert report["functions"]["metrics.bootstrap_ci"]["samples"] == 50


@pytest.fixture
def small_cohort(monkeypatch):
    monkeypatch.setattr(workloads, "DESK_PATIENTS", 200)


@pytest.mark.parametrize("name", ["train-seq", "train-single", "compare"])
def test_traced_outputs_are_byte_identical(name, small_cohort, tmp_path):
    wl = workloads.make(name, 5, str(tmp_path))
    wl.setup()
    plain = wl.run_unit(0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = wl.run_unit(1)
    assert plain.failed == 0 and traced.failed == 0
    assert traced.digest == plain.digest
    assert traced.c_index == plain.c_index
    layers = tracer.report()["layers"]
    expected = {"train-seq": ("encoders", "diffgraph", "model", "losses", "trainer",
                              "metrics", "synthcohort"),
                "train-single": ("encoders", "diffgraph", "model", "losses", "trainer",
                                 "metrics"),
                "compare": ("synthcohort", "encoders", "diffgraph", "model", "metrics",
                            "reports", "svgplot", "cli")}[name]
    assert all(layers[layer] > 0 for layer in expected), layers


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, tracing.metric_unit(name)) for name in tracing.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
