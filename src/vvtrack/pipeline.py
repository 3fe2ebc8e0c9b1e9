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

ID_COLORS = np.array([  # 8-bit RGB box color per track id, repeating
    (255, 51, 51), (51, 255, 51), (51, 102, 255), (255, 255, 51),
    (255, 51, 255), (51, 255, 255), (255, 153, 51), (153, 51, 255),
], dtype=np.uint8)
MAX_OBJECTS = 8  # trackers seeded at most, from the seed frame's largest blobs


class PipelineError(Exception):
    pass


@dataclass
class DetectionResult:
    frame: int
    pixels: np.ndarray  # the input frame as it was read
    mask: np.ndarray
    blobs: list
    T_b: float | None  # the fitted threshold; frame 0 has no predecessor to fit it to


def iter_detections(frames, cfg, first: int = 0) -> Iterator[DetectionResult]:
    """Motion mask and blobs of each frame from ``first`` on, as it arrives.

    Holds one frame at a time: the background state, the previous gray
    frame and its box moments (computed from frame ``first - 1`` on) carry
    over to the next.  Each frame is converted to gray once; with
    cfg["shadow"]["enabled"] that gray is the shadow-free reconstruction,
    which needs RGB frames.  A frame before ``first`` only trains the
    background (frame 0 initializes it) and yields nothing; the background
    and every result from ``first`` on are those of a run from frame 0.
    A result comes before the background learns its frame.
    """
    bcfg = cfg["background"]
    scfg = cfg["shadow"]
    w = bcfg["window_radius"]
    moments = None
    for t, f in enumerate(frames):
        if scfg["enabled"]:
            if f.ndim != 3:
                raise PipelineError(f"frame {t}: shadow removal needs RGB input, "
                                    f"got a grayscale frame; disable shadow.enabled")
            gray = shadows.remove_shadow(f, sigma=scfg["sigma"], t1=scfg["t1"],
                                         t2=scfg["t2"], penumbra=scfg["penumbra"])
        else:
            gray = fio.to_grayscale(f)
        if t >= first - 1:
            prev_moments, moments = moments, bg.box_moments(gray, w)
        if t == 0:
            state = bg.BackgroundState(B=gray, a=bcfg["a"], b=bcfg["b"],
                                       T_sim=bcfg["T_sim"], window_radius=w)
            if first <= 0:
                yield DetectionResult(frame=0, pixels=f, mask=np.zeros_like(gray, bool),
                                      blobs=[], T_b=None)
        else:
            if t >= first:
                T_b = bg.fit_adaptive_threshold(bg.diff_histogram(gray, prev)).T_b
                masks = bg.motion_masks(gray, prev, state, T_b, (moments, prev_moments))
                clean = bg.clean_mask(masks.M)
                blobs = shadows.extract_blobs(clean, min_area=scfg["min_blob_area"])
                yield DetectionResult(frame=t, pixels=f, mask=clean, blobs=blobs, T_b=T_b)
            bg.update_background(state, gray)
        prev = gray


def detect_sequence(frames, cfg, stop=None, first: int = 0) -> list[DetectionResult]:
    """iter_detections from ``first`` as a list.

    With ``stop``, the list holds only the first result that ``stop``
    accepts, or nothing if it accepts none; no frame after that result is
    read, and no result before it is kept.
    """
    results = iter_detections(frames, cfg, first)
    return list(results if stop is None else itertools.islice(filter(stop, results), 1))


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
    return [recognition.classify_box(descs, box, codebook, model) for box in boxes]


def run_pipeline(in_dir, out_dir, cfg, seed: int | None = None):
    """detect -> recognize -> track; returns (records, report or None).

    The seed search reads frames up to the seed frame and tracking reads
    on from there; the annotated copies (drawn on the 8-bit pixels)
    stream the sequence again, one frame at a time.
    """
    if seed is None:
        seed = cfg["seed"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codebook, model = load_models(cfg)
    frames = fio.read_sequence(in_dir)
    # The seed frame is the first frame at or after burn-in with any blob;
    # blobs are not checked for persistence (ROADMAP open item 1).
    found = detect_sequence(frames, cfg, stop=lambda res: bool(res.blobs),
                            first=cfg["background"]["burn_in"])
    if not found:
        raise PipelineError("no blobs detected after burn-in; nothing to track")
    start = found[0].frame
    boxes = [b.bbox for b in found[0].blobs[:MAX_OBJECTS]]
    first = fio.to_grayscale(found[0].pixels)
    labels = classify_boxes(first, boxes, codebook, model, cfg)

    records = track_sequence(itertools.chain([first], map(fio.to_grayscale, frames)),
                             boxes, config=tracker_config(cfg), seed=seed)
    for r in records:
        r.frame += start

    # The truth is read after tracking, so it is not held meanwhile, and
    # scored before any output is written, so a truth file that fails to
    # read or score leaves no tracks.jsonl.
    report = None
    truth_path = Path(in_dir) / "truth.jsonl"
    if truth_path.exists():
        report = met.evaluate_tracks(records, fio.read_jsonl(truth_path))
    # tracks.jsonl is written after the annotated frames: a frame that fails
    # to read leaves none.
    write_annotated(out_dir / "annotated", fio.read_sequence(in_dir), records)
    fio.write_jsonl(out_dir / "tracks.jsonl",
                    (asdict(r) | {"label": None if labels[r.id] is None
                                  else str(labels[r.id])} for r in records))
    if report is not None:
        met.write_report_csv(out_dir / "metrics.csv", report)
    else:  # an earlier run's scores describe other tracks
        (out_dir / "metrics.csv").unlink(missing_ok=True)
    return records, report


def write_annotated(directory, frames, records) -> None:
    """One PPM per uint8 frame with each track's box drawn in its id's color.

    A box is clipped to the frame; one that misses the frame is not drawn.
    The frames of an earlier, longer sequence are then deleted.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_frame: dict[int, list] = {}
    for r in records:
        by_frame.setdefault(r.frame, []).append(r)
    names = set()
    for t, frame in enumerate(frames):
        canvas = (np.repeat(frame[..., None], 3, axis=2) if frame.ndim == 2
                  else frame.copy())
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
        name = f"frame_{t:04d}.ppm"
        names.add(name)
        fio.write_pnm(directory / name, canvas)
    fio.remove_others(directory, "frame_[0-9]*.ppm", names)
