"""End-to-end orchestration: motion detection -> recognition -> tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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


class PipelineError(Exception):
    pass


@dataclass
class DetectionResult:
    frame: int
    mask: np.ndarray
    blobs: list
    T_b: float


def detect_sequence(frames, cfg) -> list[DetectionResult]:
    """Motion masks and blobs over a gray or RGB sequence with the adaptive background.

    Optionally runs the shadow-removal reconstruction per frame before
    differencing (cfg["shadow"]["enabled"]); that needs RGB frames.
    """
    bcfg = cfg["background"]
    scfg = cfg["shadow"]
    grays = []
    for t, f in enumerate(frames):
        if scfg["enabled"]:
            if f.ndim != 3:
                raise PipelineError(f"frame {t}: shadow removal needs RGB input, "
                                    f"got a grayscale frame; disable shadow.enabled")
            _, R, _ = shadows.remove_shadow(f, sigma=scfg["sigma"], t1=scfg["t1"],
                                            t2=scfg["t2"], penumbra=scfg["penumbra"])
            grays.append(R)
        else:
            grays.append(fio.to_grayscale(f))
    state = bg.init_background(grays[0], a=bcfg["a"], b=bcfg["b"],
                               T_sim=bcfg["T_sim"],
                               window_radius=int(bcfg["window_radius"]))
    results = [DetectionResult(frame=0, mask=np.zeros_like(grays[0], bool),
                               blobs=[], T_b=state.T_b)]
    for t in range(1, len(grays)):
        hist = bg.diff_histogram(grays[t], grays[t - 1])
        state.T_b = bg.fit_adaptive_threshold(hist).T_b
        masks = bg.motion_masks(grays[t], grays[t - 1], state)
        clean = bg.clean_mask(masks.M)
        blobs = shadows.extract_blobs(clean, min_area=int(scfg["min_blob_area"]))
        results.append(DetectionResult(frame=t, mask=clean, blobs=blobs,
                                       T_b=state.T_b))
        bg.update_background(state, grays[t])
    return results


def initial_detections(results: list[DetectionResult], burn_in: int,
                       max_objects: int = 8):
    """(frame, boxes of its largest blobs) for the first frame >= burn_in with any blob.

    Blobs are not checked for persistence (ROADMAP open item 2).
    """
    for res in results:
        if res.frame < burn_in:
            continue
        if res.blobs:
            boxes = [b.bbox for b in res.blobs[:max_objects]]
            return res.frame, boxes
    raise PipelineError("no blobs detected after burn-in; nothing to track")


def load_models(cfg):
    rcfg = cfg["recognition"]
    codebook = model = None
    if rcfg["codebook_path"]:
        codebook = vocab.load_codebook(rcfg["codebook_path"])
    if rcfg["svm_path"]:
        model = svm.load_model(rcfg["svm_path"])
    return codebook, model


def classify_boxes(gray, boxes, codebook, model, cfg):
    """BoW + SVM label per detection box; None without trained models."""
    if codebook is None or model is None:
        return [None] * len(boxes)
    vcfg = cfg["vocabulary"]
    descs = recognition.extract_descriptors(gray, grid_stride=int(vcfg["grid_stride"]),
                                            patch=int(vcfg["patch"]))
    return [recognition.classify_box(descs, (x, y, x + w, y + h), codebook, model)
            for x, y, w, h in boxes]


def run_pipeline(in_dir, out_dir, cfg, seed: int | None = None):
    """detect -> recognize -> track; returns (records, report or None)."""
    if seed is None:
        seed = int(cfg["seed"])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = fio.read_sequence(in_dir)
    grays = [fio.to_grayscale(f) for f in frames]

    results = detect_sequence(frames, cfg)
    start, boxes = initial_detections(results, int(cfg["background"]["burn_in"]))
    codebook, model = load_models(cfg)
    labels = classify_boxes(grays[start], boxes, codebook, model, cfg)

    records = track_sequence(grays[start:], boxes,
                             config=tracker_config(cfg), seed=seed)
    for r in records:
        r.frame += start

    fio.write_jsonl(out_dir / "tracks.jsonl",
                    ({"frame": r.frame, "id": r.id, "cx": r.cx, "cy": r.cy,
                      "s": r.s, "w": r.w, "h": r.h, "fit": r.fit,
                      "label": None if labels[r.id] is None else str(labels[r.id])}
                     for r in records))
    write_annotated(out_dir / "annotated", frames, records)

    report = None
    truth_path = Path(in_dir) / "truth.jsonl"
    if truth_path.exists():
        truth = fio.read_jsonl(truth_path)
        report = met.evaluate_tracks(records, truth)
        met.write_report_csv(out_dir / "metrics.csv", report)
    return records, report


def write_annotated(directory, frames, records) -> None:
    """One PPM per frame with each track's box drawn in its id's color."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_frame: dict[int, list] = {}
    for r in records:
        by_frame.setdefault(r.frame, []).append(r)
    for t, frame in enumerate(frames):
        canvas = fio.gray_to_rgb(frame) if frame.ndim == 2 else frame.copy()
        for r in by_frame.get(t, []):
            color = ID_COLORS[r.id % len(ID_COLORS)]
            x0 = int(max(0, r.cx - r.w / 2))
            x1 = int(min(frame.shape[1] - 1, r.cx + r.w / 2))
            y0 = int(max(0, r.cy - r.h / 2))
            y1 = int(min(frame.shape[0] - 1, r.cy + r.h / 2))
            canvas[y0, x0:x1 + 1] = color
            canvas[y1, x0:x1 + 1] = color
            canvas[y0:y1 + 1, x0] = color
            canvas[y0:y1 + 1, x1] = color
        fio.write_pnm(directory / f"frame_{t:04d}.ppm", canvas)
