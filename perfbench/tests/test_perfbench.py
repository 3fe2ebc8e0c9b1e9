"""Tests for the benchmark's tracing: self time, wrapping, metric coverage."""

from __future__ import annotations

import ast
import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from layers import HOOKS, layer_metrics, neumann_residual  # noqa: E402
from tracing import LAYERS, Span, Tracer, self_times, summarize, traced_attributes  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0, "r"),
        Span(1, 0, "a", 1.0, 4.0, "r"),
        Span(2, 0, "b", 3.0, 6.0, "r"),    # overlaps a: the union 1..6 counts once
        Span(3, 1, "a1", 2.0, 3.0, "r"),
        Span(4, 0, "c", 8.0, 12.0, "r"),   # ends after its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0})
    self_s, calls = summarize(spans + [Span(5, None, "a", 20.0, 20.5, "r")])
    assert self_s["a"] == pytest.approx(2.5)
    assert calls["a"] == 2


def _snapshot():
    return {(m.__name__, attr): getattr(m, attr) for m, attr, _ in traced_attributes()}


def test_install_restores_every_attribute_even_on_error():
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError), tracer.install():
        during = _snapshot()
        assert all(during[k] is not v and during[k].__wrapped__ is v
                   for k, v in before.items())
        raise RuntimeError("leave the block early")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_by_name_imports_are_wrapped_under_the_owner_name():
    traced = {(m.__name__.split(".")[-1], attr): name
              for m, attr, name in traced_attributes()}
    assert traced[("pipeline", "track_sequence")] == "tracker.track_sequence"
    assert traced[("recognition", "extract_descriptors")] == "vocab.extract_descriptors"
    # Every `from .<layer> import <public function>` in the package is covered.
    package = ROOT / "src" / "vvtrack"
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module in LAYERS):
                continue
            owner = __import__(f"vvtrack.{node.module}", fromlist=["_"])
            for alias in node.names:
                value = getattr(owner, alias.name)
                if callable(value) and not isinstance(value, type) \
                        and not alias.name.startswith("_"):
                    assert (path.stem, alias.asname or alias.name) in traced, \
                        f"{path.name} imports {node.module}.{alias.name} by name"


def test_spans_nest_through_module_lookups():
    from vvtrack import metrics as met

    tracks = [{"frame": 0, "id": 0, "cx": 5.0, "cy": 5.0, "w": 4.0, "h": 4.0}]
    truth = [{"frame": 0, "objects": [{"id": 0, "box": [3.0, 3.0, 4.0, 4.0]}]}]
    tracer = Tracer()
    with tracer.install():
        met.evaluate_tracks(tracks, truth)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["metrics.evaluate_tracks"].parent is None
    assert by_name["metrics.box_iou"].parent == by_name["metrics.evaluate_tracks"].id


def test_neumann_residual_is_zero_only_for_a_solution():
    from vvtrack.shadows import forward_gradient

    s = np.random.default_rng(0).random((9, 13))
    g = forward_gradient(s)
    assert neumann_residual(g, s - s.mean()) < 1e-12
    assert neumann_residual(g, np.zeros_like(s)) == pytest.approx(1.0)


# Which workload each per-layer metric is listed for (first matching prefix).
LISTED = [
    ("shadows.extract_blobs", {"pipeline_2obj"}),
    ("shadows.blobs", {"pipeline_2obj"}),
    ("shadows.", {"shadow_detect"}),
    ("frames.", {"pipeline_2obj"}),
    ("background.", {"pipeline_2obj", "shadow_detect"}),
    ("tracker.", {"pipeline_2obj", "track_cross2"}),
    ("vocab.", {"recognition"}),
    ("svm.", {"recognition"}),
    ("recognition.", {"recognition"}),
    ("cli.", {"recognition"}),
    ("pipeline.", {"pipeline_2obj"}),
    ("metrics.", {"pipeline_2obj"}),
]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if not m["name"].endswith(".share") and not m["name"].startswith("trace.")]


@pytest.fixture(scope="module")
def traced_workloads(tmp_path_factory):
    """One traced pass of every workload: name -> per-layer metric values."""
    from run import ReferenceClock, run_passes
    from workloads import WORKLOADS

    values = {}
    for name, cls in WORKLOADS.items():
        workload = cls(tmp_path_factory.mktemp(name), seed=0)
        workload.setup()
        tracer = Tracer(HOOKS)
        with tracer.install(), contextlib.ExitStack() as stack:
            for p in workload.probes():
                stack.enter_context(p)
            passes = run_passes(workload, 0.0, ReferenceClock())
        assert passes.failed == 0, f"{name}: {passes.failed} jobs failed"
        values[name] = layer_metrics(LAYER_METRICS, tracer.spans, tracer.counts,
                                     passes, passes.times[0])
    return values


@pytest.mark.parametrize("metric", LAYER_METRICS)
def test_layer_metric_is_recorded_on_a_listed_workload(metric, traced_workloads):
    listed = next((w for prefix, w in LISTED if metric.startswith(prefix)), None)
    assert listed, f"{metric} is listed for no workload"
    assert any(traced_workloads[w][metric] > 0 for w in listed), \
        f"{metric} recorded nothing on {sorted(listed)}"
