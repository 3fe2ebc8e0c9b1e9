"""Per-layer metrics derived from a traced run's spans and counters.

Metric names follow ``BENCHMARK.json``: ``<layer>.<function>.s`` is self
seconds and ``<layer>.<function>.n`` is the call count, both per pass of
the workload; other names are counters filled by the hooks below.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracing import LAYERS, summarize


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def neumann_residual(g, s) -> float:
    """Relative residual of lap(s) = div(g), 5-point Neumann Laplacian.

    Recomputed here, independently of the solver, from the gradient field
    it was given and the solution it returned.
    """
    gx = g.gx.copy()
    gy = g.gy.copy()
    gx[:, -1] = 0.0
    gy[-1, :] = 0.0
    b = gx + gy
    b[:, 1:] -= gx[:, :-1]
    b[1:, :] -= gy[:-1, :]
    b -= b.mean()
    lap = np.zeros_like(s)
    lap[1:, :] += s[:-1, :] - s[1:, :]
    lap[:-1, :] += s[1:, :] - s[:-1, :]
    lap[:, 1:] += s[:, :-1] - s[:, 1:]
    lap[:, :-1] += s[:, 1:] - s[:, :-1]
    b_norm = float(np.linalg.norm(b))
    r_norm = float(np.linalg.norm(lap - b))
    return r_norm / b_norm if b_norm > 0 else r_norm


def _bytes_in(counts, args, kwargs, result):
    counts["frames.bytes_in"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_out(counts, args, kwargs, result):
    counts["frames.bytes_out"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _background_frame(counts, args, kwargs, result):
    counts["background.frames"] += 1


def _blobs(counts, args, kwargs, result):
    counts["shadows.blobs"] += len(result)


def _poisson(counts, args, kwargs, result):
    rel = neumann_residual(_arg(args, kwargs, 0, "g"), result)
    counts["shadows.poisson.rel_residual"] = max(
        counts["shadows.poisson.rel_residual"], rel)


def _tracked(counts, args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    species_frames = sum(1 for r in result if r.frame > 0)
    counts["tracker.species_frames"] += species_frames
    counts["tracker.iter_budget"] += config.n_iters * species_frames


def _descriptors(counts, args, kwargs, result):
    counts["vocab.descriptors"] += len(result)
    counts["vocab.nonzero"] += sum(1 for d in result if np.any(d.vector))


def _support_vectors(counts, args, kwargs, result):
    counts["svm.support_vectors"] += sum(len(m.support_vectors)
                                         for m in result.machines.values())


def _votes(counts, args, kwargs, result):
    counts["recognition.votes"] += len(result)


def _modes(counts, args, kwargs, result):
    counts["recognition.seeds"] += len(_arg(args, kwargs, 0, "votes"))
    counts["recognition.modes"] += len(result)


HOOKS = {
    "frames.read_pnm": _bytes_in,
    "frames.write_pnm": _bytes_out,
    "background.motion_masks": _background_frame,
    "shadows.extract_blobs": _blobs,
    "shadows.poisson_reconstruct": _poisson,
    "tracker.track_sequence": _tracked,
    "vocab.extract_descriptors": _descriptors,
    "svm.train_svm": _support_vectors,
    "recognition.cast_votes": _votes,
    "recognition.meanshift_modes": _modes,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(names, spans, counts, traced, untraced_wall):
    """Value of each per-layer metric in ``names``, averaged per traced pass.

    ``traced`` holds the traced passes' times (reference and raw seconds);
    span seconds are rescaled by the passes' reference-to-raw ratio, and a
    layer's share is its raw self time over the raw traced pass time.
    """
    passes = len(traced.times)
    traced_wall = statistics.median(traced.times)
    scale = sum(traced.times) / sum(traced.raw_times)
    self_s, calls = summarize(spans)
    c = counts.get
    derived = {
        "shadows.poisson.rel_residual": c("shadows.poisson.rel_residual", 0.0),
        "tracker.iter_use": _ratio(calls["tracker.step_particles"],
                                   c("tracker.iter_budget", 0)),
        "tracker.observe_per_frame": _ratio(calls["tracker.observe"],
                                            c("tracker.species_frames", 0)),
        "vocab.nonzero_ratio": _ratio(c("vocab.nonzero", 0),
                                      c("vocab.descriptors", 0)),
        "recognition.modes_kept_ratio": _ratio(c("recognition.modes", 0),
                                               c("recognition.seeds", 0)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(spans) / passes,
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        derived[f"{layer}.share"] = _ratio(layer_self, sum(traced.raw_times))
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0) * scale / passes
        elif name.endswith(".n"):
            out[name] = calls.get(name[:-2], 0) / passes
        else:
            out[name] = c(name, 0.0) / passes
    return out
