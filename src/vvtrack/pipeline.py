"""End-to-end orchestration: motion detection -> recognition -> tracking."""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import background as bg
from . import frames as fio
from . import metrics as met
from . import recognition, shadows, svm, vocab
from .config import tracker_config
from .tracker import track_sequence

ID_COLORS = [
    (1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.2, 0.4, 1.0), (1.0, 1.0, 0.2),
    (1.0, 0.2, 1.0), (0.2, 1.0, 1.0), (1.0, 0.6, 0.2), (0.6, 0.2, 1.0),
]
MAX_OBJECTS = 8  # trackers seeded at most, from the seed frame's largest blobs


class PipelineError(Exception):
    pass


@dataclass
class DetectionResult:
    frame: int
    mask: np.ndarray
    blobs: list
    T_b: float


def iter_detections(frames, cfg) -> Iterator[DetectionResult]:
    """Motion mask and blobs of each frame of a gray or RGB sequence, as it arrives.

    Holds one frame at a time: the background state, the previous gray
    frame and that frame's box moments carry over to the next.  Each frame
    is converted to gray once; with cfg["shadow"]["enabled"] that gray is
    the shadow-free reconstruction, which needs RGB frames.
    """
    bcfg = cfg["background"]
    scfg = cfg["shadow"]
    w = bcfg["window_radius"]
    state = moments = None
    for t, f in enumerate(frames):
        if scfg["enabled"]:
            if f.ndim != 3:
                raise PipelineError(f"frame {t}: shadow removal needs RGB input, "
                                    f"got a grayscale frame; disable shadow.enabled")
            _, gray, _ = shadows.remove_shadow(f, sigma=scfg["sigma"], t1=scfg["t1"],
                                               t2=scfg["t2"], penumbra=scfg["penumbra"])
        else:
            gray = fio.to_grayscale(f)
        prev_moments, moments = moments, bg.box_moments(gray, w)
        if state is None:
            state = bg.init_background(gray, a=bcfg["a"], b=bcfg["b"],
                                       T_sim=bcfg["T_sim"], window_radius=w)
            result = DetectionResult(frame=0, mask=np.zeros_like(gray, bool),
                                     blobs=[], T_b=state.T_b)
        else:
            hist = bg.diff_histogram(gray, prev)
            state.T_b = bg.fit_adaptive_threshold(hist).T_b
            masks = bg.motion_masks(gray, prev, state, (moments, prev_moments))
            clean = bg.clean_mask(masks.M)
            blobs = shadows.extract_blobs(clean, min_area=scfg["min_blob_area"])
            result = DetectionResult(frame=t, mask=clean, blobs=blobs, T_b=state.T_b)
            bg.update_background(state, gray)
        prev = gray
        yield result


def detect_sequence(frames, cfg, stop=None) -> list[DetectionResult]:
    """iter_detections as a list, ending with the first result that ``stop`` accepts.

    No frame after that result is read.
    """
    results = []
    for result in iter_detections(frames, cfg):
        results.append(result)
        if stop is not None and stop(result):
            break
    return results


def _is_seed(result: DetectionResult, burn_in: int) -> bool:
    """The seed frame is the first frame at or after burn-in with any blob.

    Blobs are not checked for persistence (ROADMAP open item 3).
    """
    return result.frame >= burn_in and bool(result.blobs)


def load_models(cfg):
    """The codebook and SVM that cfg["recognition"] names, or (None, None).

    Naming one without the other is an error here, not in the config
    check, so a config may name a codebook before its model is trained.
    """
    rcfg = cfg["recognition"]
    if not (rcfg["codebook_path"] or rcfg["svm_path"]):
        return None, None
    if not (rcfg["codebook_path"] and rcfg["svm_path"]):
        raise PipelineError("recognition needs both codebook_path and svm_path, "
                            "or neither")
    codebook = vocab.load_codebook(rcfg["codebook_path"])
    model = svm.load_model(rcfg["svm_path"])
    dims = {m.support_vectors.shape[1] for m in model.machines.values()}
    if dims - {codebook.K}:
        raise PipelineError(f"{rcfg['svm_path']}: model takes {sorted(dims)}-bin "
                            f"histograms, codebook {rcfg['codebook_path']} has "
                            f"K={codebook.K} words")
    return codebook, model


def classify_boxes(gray, boxes, codebook, model, cfg):
    """BoW + SVM label per detection box; None without trained models."""
    if codebook is None or model is None:
        return [None] * len(boxes)
    vcfg = cfg["vocabulary"]
    descs = recognition.extract_descriptors(gray, grid_stride=vcfg["grid_stride"],
                                            patch=vcfg["patch"])
    return [recognition.classify_box(descs, (x, y, x + w, y + h), codebook, model)
            for x, y, w, h in boxes]


def run_pipeline(in_dir, out_dir, cfg, seed: int | None = None):
    """detect -> recognize -> track; returns (records, report or None).

    Detection reads frames only up to the seed frame; tracking and the
    annotated copies each stream the sequence again, one frame at a time.
    """
    if seed is None:
        seed = cfg["seed"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    burn_in = cfg["background"]["burn_in"]
    codebook, model = load_models(cfg)
    last = detect_sequence(fio.read_sequence(in_dir), cfg,
                           stop=lambda res: _is_seed(res, burn_in))[-1]
    if not _is_seed(last, burn_in):
        raise PipelineError("no blobs detected after burn-in; nothing to track")
    start = last.frame
    boxes = [b.bbox for b in last.blobs[:MAX_OBJECTS]]
    grays = map(fio.to_grayscale, fio.read_sequence(in_dir, start=start))
    first = next(grays)
    labels = classify_boxes(first, boxes, codebook, model, cfg)

    records = track_sequence(itertools.chain([first], grays), boxes,
                             config=tracker_config(cfg), seed=seed)
    for r in records:
        r.frame += start

    # tracks.jsonl is written last: a frame that fails to read leaves none.
    write_annotated(out_dir / "annotated", fio.read_sequence(in_dir), records)
    fio.write_jsonl(out_dir / "tracks.jsonl",
                    (asdict(r) | {"label": None if labels[r.id] is None
                                  else str(labels[r.id])} for r in records))

    report = None
    truth_path = Path(in_dir) / "truth.jsonl"
    if truth_path.exists():
        truth = fio.read_jsonl(truth_path)
        report = met.evaluate_tracks(records, truth)
        met.write_report_csv(out_dir / "metrics.csv", report)
    return records, report


def write_annotated(directory, frames, records) -> None:
    """One PPM per frame with each track's box drawn in its id's color.

    A box is clipped to the frame; one that misses the frame is not drawn.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_frame: dict[int, list] = {}
    for r in records:
        by_frame.setdefault(r.frame, []).append(r)
    for t, frame in enumerate(frames):
        canvas = fio.gray_to_rgb(frame) if frame.ndim == 2 else frame.copy()
        fh, fw = frame.shape[:2]
        for r in by_frame.get(t, []):
            color = ID_COLORS[r.id % len(ID_COLORS)]
            left, right = r.cx - r.w / 2, r.cx + r.w / 2
            top, bottom = r.cy - r.h / 2, r.cy + r.h / 2
            if not (right >= 0 and bottom >= 0 and left <= fw - 1 and top <= fh - 1):
                continue
            x0, x1 = int(max(0, left)), int(min(fw - 1, right))
            y0, y1 = int(max(0, top)), int(min(fh - 1, bottom))
            canvas[y0, x0:x1 + 1] = color
            canvas[y1, x0:x1 + 1] = color
            canvas[y0:y1 + 1, x0] = color
            canvas[y0:y1 + 1, x1] = color
        fio.write_pnm(directory / f"frame_{t:04d}.ppm", canvas)
