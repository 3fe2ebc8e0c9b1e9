"""Object localization and recognition: probabilistic occurrence voting,
scale-adaptive mean-shift mode finding, and exact star-shaped part-model
matching via generalized distance transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import svm, vocab
from .vocab import Codebook, extract_descriptors

SCORE_FRACTION = 0.25  # hypotheses below this share of the best score are dropped
SHIFT_MAX_ITER = 100  # mean-shift steps per seed; the last position is its mode
SHIFT_TOL = 1e-3  # a seed has converged once a step moves it less than this


class RecognitionError(Exception):
    pass


# One record per (training feature, word): object centre minus feature location,
# object over descriptor scale, descriptor scale, soft weight (sums to 1 per word).
OCCURRENCE = np.dtype([("word", np.intp), ("dx", np.float64), ("dy", np.float64),
                       ("scale_ratio", np.float64), ("desc_scale", np.float64),
                       ("weight", np.float64)])


@dataclass
class ObjectHypothesis:
    label: object
    x: float
    y: float
    s: float
    score: float


def learn_occurrences(examples, codebook: Codebook, grid_stride: int = 8) -> dict:
    """OCCURRENCE records per class, in first-seen class order.

    examples: iterable of (gray frame, class, (cx, cy), scale); scale is
    the object box side in px.  Each frame gives extract_descriptors'
    default patches every grid_stride px.  Records are sorted by word, in
    learning order within a word, and their weights sum to 1 per word.
    """
    parts: dict = {}
    for frame, cls, (cx, cy), scale in examples:
        descs = extract_descriptors(frame, grid_stride=grid_stride)
        soft = vocab.quantize(descs.vector, codebook)
        feat, word = np.nonzero(soft)
        s = descs.scale[feat]
        parts.setdefault(cls, []).append(np.rec.fromarrays(
            [word, cx - descs.x[feat], cy - descs.y[feat], scale / s, s,
             soft[feat, word]], dtype=OCCURRENCE))
    table = {}
    for cls, occs in parts.items():
        occ = np.concatenate(occs)
        table[cls] = occ = occ[np.argsort(occ["word"], kind="stable")]
        occ["weight"] /= np.bincount(occ["word"], weights=occ["weight"])[occ["word"]]
    if not any(len(occ) for occ in table.values()):
        raise RecognitionError("no descriptors in any training example")
    return table


def cast_votes(descriptors, codebook: Codebook, occurrences: np.ndarray) -> np.ndarray:
    """Weighted (x, y, s, w) votes for object centers from one class's records.

    Each feature spreads its soft word probability over that word's
    records; offsets scale with the feature/training scale ratio.  Votes
    run by feature, then word, then record.
    """
    soft = vocab.quantize(descriptors.vector, codebook)
    feat, word = np.nonzero(soft)
    words = occurrences["word"]
    first = np.searchsorted(words, word)
    count = np.searchsorted(words, word, side="right") - first
    pair = np.repeat(np.arange(len(word)), count)
    start = np.cumsum(count) - count  # each pair's first vote
    occ = occurrences[first[pair] + np.arange(len(pair)) - start[pair]]
    f = feat[pair]
    s = descriptors.scale[f]
    rel = s / occ["desc_scale"]
    return np.column_stack([descriptors.x[f] + occ["dx"] * rel,
                            descriptors.y[f] + occ["dy"] * rel,
                            occ["scale_ratio"] * s,
                            occ["weight"] * soft[feat, word][pair]])


# ---------------------------------------------------------------------------
# Scale-adaptive mean-shift
# ---------------------------------------------------------------------------

def balloon_density(point, votes: np.ndarray, b0: float) -> float:
    """Epanechnikov balloon estimate at (x, y, s), bandwidth b0 * s."""
    x = np.asarray(point, dtype=np.float64)
    b = b0 * x[2]
    if b <= 0:
        return 0.0
    d2 = ((votes[:, :3] - x) ** 2).sum(axis=1) / (b * b)
    inside = d2 < 1.0
    ball = (4.0 / 3.0) * np.pi * b ** 3
    return float((votes[inside, 3] * (1.0 - d2[inside])).sum()) / ball


def meanshift_modes(votes: np.ndarray, b0: float = 0.1) -> list[ObjectHypothesis]:
    """Mean-shift from each distinct vote; modes within b/2 merged keeping the best.

    A seed stops after SHIFT_MAX_ITER steps or a step shorter than
    SHIFT_TOL.  The weights of the votes at each distinct (x, y, s) are
    summed once, and the window sums and the density run over the
    distinct positions only.  Equal seeds follow equal trajectories, so
    each distinct position is started once, in order of first occurrence.
    """
    if b0 <= 0:
        raise RecognitionError("bandwidth factor must be > 0")
    votes = np.asarray(votes, dtype=np.float64).reshape(-1, 4)
    if votes.shape[0] == 0:
        return []
    points, first, inverse = np.unique(votes[:, :3], axis=0, return_index=True,
                                       return_inverse=True)
    weight = np.bincount(inverse.ravel(), weights=votes[:, 3], minlength=len(points))
    moments = points * weight[:, None]
    collapsed = np.column_stack([points, weight])
    modes = []
    for seed in points[np.argsort(first)]:
        x = seed.copy()
        for _ in range(SHIFT_MAX_ITER):
            b = b0 * x[2]
            if b <= 0:
                break
            inside = ((points - x) ** 2).sum(axis=1) < b * b
            w = weight[inside].sum()
            if w <= 0:
                break
            new_x = moments[inside].sum(axis=0) / w
            if np.linalg.norm(new_x - x) < SHIFT_TOL:
                x = new_x
                break
            x = new_x
        score = balloon_density(x, collapsed, b0)
        if score > 0:
            modes.append((x, score))
    merged: list[tuple[np.ndarray, float]] = []
    for x, score in sorted(modes, key=lambda m: -m[1]):
        radius = 0.5 * b0 * x[2]
        if all(np.linalg.norm(x - mx) > radius for mx, _ in merged):
            merged.append((x, score))
    return [ObjectHypothesis(label=None, x=float(m[0]), y=float(m[1]),
                             s=float(m[2]), score=sc) for m, sc in merged]


# ---------------------------------------------------------------------------
# Pictorial structures
# ---------------------------------------------------------------------------

@dataclass
class PartEdge:
    anchor: tuple[int, int]  # child offset (dx, dy) from the root
    cov: tuple[float, float]  # diagonal deformation covariance (Mx, My)

    def __post_init__(self):
        if self.cov[0] <= 0 or self.cov[1] <= 0:
            raise RecognitionError("deformation covariance entries must be > 0")


@dataclass
class PartModel:
    """Star graph: part 0 is the root, edges connect root to each child."""

    n_parts: int
    edges: list[PartEdge]  # one per child, in part order 1..n-1

    def __post_init__(self):
        if len(self.edges) != self.n_parts - 1:
            raise RecognitionError("star model needs one edge per child part")


def distance_transform_1d(cost: np.ndarray, a: float):
    """min_q cost[q] + a (p - q)^2 per position, with argmins.

    Direct O(n^2) evaluation; ties resolve to the lowest q.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[-1]
    grid = np.arange(n, dtype=np.float64)
    # (..., p, q) table of candidate values
    table = cost[..., None, :] + a * (grid[:, None] - grid[None, :]) ** 2
    arg = table.argmin(axis=-1)
    val = np.take_along_axis(table, arg[..., None], axis=-1)[..., 0]
    return val, arg


def distance_transform_2d(cost: np.ndarray, ax: float, ay: float):
    """Separable generalized distance transform under diagonal weights.

    Returns (values, argy, argx) so that for each p the minimizing q is
    (argy[p], argx[p]) and values[p] = cost[q] + ay dy^2 + ax dx^2.
    """
    cost = np.asarray(cost, dtype=np.float64)
    # Pass 1 along y (per column), pass 2 along x (per row).
    v1, qy1 = distance_transform_1d(cost.T, ay)  # rows of cost.T are columns
    v1 = v1.T
    qy1 = qy1.T
    val, qx = distance_transform_1d(v1, ax)
    rows = np.arange(cost.shape[0])[:, None]
    qy = qy1[rows, qx]
    return val, qy, qx


def match_parts(model: PartModel, costmaps: list[np.ndarray]):
    """Exact star-model energy minimization via distance transforms.

    costmaps[i] is the appearance cost of part i over the pixel grid.
    Returns (locations, energy) with locations[i] = (y, x); ties in the
    root argmin resolve to the lowest scan-order location.
    """
    if len(costmaps) != model.n_parts:
        raise RecognitionError("one cost map per part required")
    maps = [np.asarray(m, dtype=np.float64) for m in costmaps]
    shape = maps[0].shape
    if any(m.shape != shape for m in maps) or 0 in shape:
        raise RecognitionError("cost maps must share a non-empty grid")
    h, w = shape
    energy = maps[0].copy()
    transforms = []
    for edge, child_map in zip(model.edges, maps[1:]):
        ax = 1.0 / edge.cov[0]
        ay = 1.0 / edge.cov[1]
        val, qy, qx = distance_transform_2d(child_map, ax, ay)
        dx, dy = edge.anchor
        shifted = np.full(shape, np.inf)
        ys, xs = np.mgrid[0:h, 0:w]
        ty = ys + dy
        tx = xs + dx
        ok = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
        shifted[ok] = val[ty[ok], tx[ok]]
        energy = energy + shifted
        transforms.append((qy, qx, dy, dx))
    root_flat = int(energy.argmin())  # row-major = lowest scan order on ties
    ry, rx = divmod(root_flat, w)
    locations = [(ry, rx)]
    for qy, qx, dy, dx in transforms:
        ty, tx = ry + dy, rx + dx
        locations.append((int(qy[ty, tx]), int(qx[ty, tx])))
    return locations, float(energy[ry, rx])


# ---------------------------------------------------------------------------
# Frame-level recognition
# ---------------------------------------------------------------------------

def classify_box(descriptors, box, codebook: Codebook, svm_model):
    """SVM label of the BoW of the descriptors centred in box (x, y, w, h).

    None when no descriptor in the box has a gradient.
    """
    x, y, w, h = box
    xs, ys = descriptors.x, descriptors.y
    inside = (x <= xs) & (xs < x + w) & (y <= ys) & (ys < y + h)
    hist = vocab.bow_histogram(descriptors[inside], codebook)
    if not np.any(hist):
        return None
    return svm.predict(svm_model, hist)[0]


def recognize_frame(frame: np.ndarray, codebook: Codebook,
                    table: dict, b0: float = 0.1, grid_stride: int = 8):
    """Vote and find modes per class.

    Descriptors are extract_descriptors' default patches every
    grid_stride px, as learn_occurrences takes them.  Returns
    (ObjectHypothesis, label) pairs, strongest first (ties by label),
    scoring at least SCORE_FRACTION of the best; each label is the class
    that voted for its hypothesis.  Part models (match_parts) are not
    matched here.
    """
    descs = extract_descriptors(frame, grid_stride=grid_stride)
    hypotheses = []
    for cls, occurrences in table.items():
        for mode in meanshift_modes(cast_votes(descs, codebook, occurrences), b0=b0):
            mode.label = cls
            hypotheses.append(mode)
    if not hypotheses:
        return []
    top = max(h.score for h in hypotheses)
    return [(hyp, hyp.label)
            for hyp in sorted(hypotheses, key=lambda h: (-h.score, str(h.label)))
            if hyp.score >= SCORE_FRACTION * top]
