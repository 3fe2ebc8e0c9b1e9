"""Spans around vvtrack's public functions, recorded from outside the program.

A traced run replaces every public function of the layer modules with a
wrapper that records a span (id, parent, name, start, end, run id).  The
replacement happens on the module attribute that callers look up: the
owning module's attribute, and every alias that another vvtrack module
made with ``from .x import name`` (``pipeline.track_sequence``,
``recognition.extract_descriptors``, ...).  Every attribute is put back
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("frames", "background", "shadows", "tracker", "vocab", "svm",
          "recognition", "pipeline", "metrics", "cli")
# Modules that may hold by-name aliases of layer functions.
ALIAS_HOLDERS = LAYERS + ("config", "scenes")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str


def traced_attributes():
    """(module, attribute, span name) for each public layer function and alias."""
    owners = {f"vvtrack.{layer}": layer for layer in LAYERS}
    found = []
    for holder in ALIAS_HOLDERS:
        module = importlib.import_module(f"vvtrack.{holder}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            layer = owners.get(value.__module__)
            if layer is not None and not value.__name__.startswith("_"):
                found.append((module, attr, f"{layer}.{value.__name__}"))
    return found


class Tracer:
    """Collects spans and counters; ``install`` wraps, ``write_jsonl`` saves.

    ``hooks`` maps a span name to ``fn(counts, args, kwargs, result)``,
    called after the wrapped function returns, to add counts that the
    span alone cannot give (items returned, bytes written, ...).
    """

    def __init__(self, hooks=None):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = ""
        self._hooks = hooks or {}
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name, fn):
        hook = self._hooks.get(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end, self.run))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Wrap every traced attribute; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name in traced_attributes():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "run": s.run})
                         + "\n")


@contextmanager
def probe(module, attr, check):
    """Pass each result of ``module.attr`` to ``check(args, kwargs, result)``.

    Used by untraced runs to verify intermediate results (Poisson
    residuals, competition shares) that the program does not return.
    """
    original = getattr(module, attr)

    @functools.wraps(original)
    def probed(*args, **kwargs):
        result = original(*args, **kwargs)
        check(args, kwargs, result)
        return result

    setattr(module, attr, probed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def summarize(spans):
    """Per span name: (total self seconds, call count)."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
    return self_s, calls
