"""Detection and tracking quality metrics against ground truth."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np

IOU_THRESHOLD = 0.5  # a box matches a truth box only above this IoU


class MetricsError(Exception):
    pass


def box_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    x0 = max(ax, bx)
    y0 = max(ay, by)
    x1 = min(ax + aw, bx + bw)
    y1 = min(ay + ah, by + bh)
    if x1 <= x0 or y1 <= y0:
        return 0.0
    inter = (x1 - x0) * (y1 - y0)
    return inter / (aw * ah + bw * bh - inter)


def mask_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, bool)
    truth = np.asarray(truth, bool)
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def blob_precision_recall(pred_boxes, truth_boxes):
    """Greedy IoU matching of detection boxes to truth boxes (see _greedy_match)."""
    matches = _greedy_match(pred_boxes, truth_boxes)
    tp = len(matches)
    precision = tp / len(pred_boxes) if pred_boxes else 1.0
    recall = tp / len(truth_boxes) if truth_boxes else 1.0
    return precision, recall


def _greedy_match(boxes_a, boxes_b):
    """Greedy descending-IoU matching of pairs above IOU_THRESHOLD; ties by
    higher IoU then lower index."""
    pairs = []
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            iou = box_iou(a, b)
            if iou > IOU_THRESHOLD:
                pairs.append((iou, i, j))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_a: set = set()
    used_b: set = set()
    matches = []
    for iou, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        matches.append((i, j, iou))
    return matches


# Field checks for evaluate_tracks. A bool (JSON true/false) is no number.
def _integer(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _finite(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


def _size(v) -> bool:
    return _finite(v) and v > 0


def _box(v) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) == 4 and all(map(_finite, v))
            and v[2] > 0 and v[3] > 0)


@dataclass
class TrackingReport:
    success_rate: float | None  # None when truth holds no box
    mean_center_error: float | None  # None when no box matched
    fp_per_frame: float
    id_switches: int
    n_frames: int
    n_matches: int


def evaluate_tracks(tracks, truth) -> TrackingReport:
    """Per-frame greedy IoU matching of track boxes to truth boxes.

    tracks: records with frame/id/cx/cy/w/h (objects with attributes or
    dicts). truth: per-frame records with "frame" and "objects" [{id, box}],
    at most one record per frame. Frames and ids are integers, coordinates
    finite and sizes positive; any other value raises MetricsError.
    Success rate counts truth boxes matched above IOU_THRESHOLD (None
    without any truth box), and the mean center error averages over those
    matches (None without any); an identity switch is a change in the track
    id matched to a truth object.
    """
    def rec_get(r, key, valid):
        try:
            value = r[key] if isinstance(r, dict) else getattr(r, key)
        except (KeyError, AttributeError):
            raise MetricsError(f"record {r!r} has no field {key!r}") from None
        if not valid(value):
            raise MetricsError(f"record {r!r}: field {key!r} is malformed")
        return value

    tracks_by_frame: dict[int, list] = {}
    for r in tracks:
        frame, tid = (int(rec_get(r, key, _integer)) for key in ("frame", "id"))
        cx, cy = (rec_get(r, key, _finite) for key in ("cx", "cy"))
        w, h = (rec_get(r, key, _size) for key in ("w", "h"))
        box = (cx - w / 2.0, cy - h / 2.0, w, h)
        tracks_by_frame.setdefault(frame, []).append((tid, box))

    truth_by_frame: dict[int, tuple] = {}
    for t in truth:
        frame = int(rec_get(t, "frame", _integer))
        if frame in truth_by_frame:
            raise MetricsError(f"truth lists frame {frame} more than once")
        objects = rec_get(t, "objects", lambda v: isinstance(v, (list, tuple)))
        truth_by_frame[frame] = ([tuple(rec_get(o, "box", _box)) for o in objects],
                                 [int(rec_get(o, "id", _integer)) for o in objects])
    common = sorted(set(tracks_by_frame) & set(truth_by_frame))
    if not common:
        raise MetricsError("tracks and truth share no frame range")

    n_truth = 0
    n_matched = 0
    center_errors = []
    fp_total = 0
    switches = 0
    last_id: dict[int, int] = {}
    for f in common:
        trk = tracks_by_frame[f]
        tboxes, tids = truth_by_frame[f]
        matches = _greedy_match([b for _, b in trk], tboxes)
        n_truth += len(tboxes)
        n_matched += len(matches)
        fp_total += len(trk) - len(matches)
        for i, j, _ in matches:
            tid = trk[i][0]
            obj = tids[j]
            bx, by, bw, bh = trk[i][1]
            ox, oy, ow, oh = tboxes[j]
            center_errors.append(np.hypot((bx + bw / 2) - (ox + ow / 2),
                                          (by + bh / 2) - (oy + oh / 2)))
            if obj in last_id and last_id[obj] != tid:
                switches += 1
            last_id[obj] = tid

    return TrackingReport(
        success_rate=n_matched / n_truth if n_truth else None,
        mean_center_error=float(np.mean(center_errors)) if center_errors else None,
        fp_per_frame=fp_total / len(common),
        id_switches=switches,
        n_frames=len(common),
        n_matches=n_matched,
    )


def write_report_csv(path, report: TrackingReport) -> None:
    """One metric,value row per report field; a None value is an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(asdict(report).items())
