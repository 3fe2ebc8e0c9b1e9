"""Dense local descriptors, visual-word codebooks, BoW histograms and the
pyramid match kernel.

Descriptors are 128-d gradient-orientation histograms (4x4 spatial cells
x 8 orientation bins, magnitude weighted with bilinear binning) sampled
on a dense grid, L2-normalized with the usual 0.2 clip.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DESCRIPTOR_DIM = 128
CLIP = 0.2
SOFT_NEIGHBORS = 5  # words a vector is soft-assigned to
SOFT_SIGMA = 0.2  # width of the Gaussian of the distance that weighs them
KMEANS_MAX_ITER = 100  # Lloyd steps per restart at most

# One record per grid point: the descriptor and its centre and patch side in px.
DESCRIPTOR = np.dtype([("vector", np.float64, (DESCRIPTOR_DIM,)), ("x", np.float64),
                       ("y", np.float64), ("scale", np.float64)])


class VocabularyError(Exception):
    pass


@dataclass
class Codebook:
    words: np.ndarray  # (K, dim)
    seed: int

    @property
    def K(self) -> int:
        return self.words.shape[0]


# ---------------------------------------------------------------------------
# Descriptor extraction
# ---------------------------------------------------------------------------

@lru_cache
def _cell_weights(patch: int) -> np.ndarray:
    """Bilinear weight of each pixel row (or column) into the 4 cell rows.

    Returns (patch, 4); the 2-D weight of pixel (i, j) into cell
    (cy, cx) is the product of row i's weight for cy and column j's for cx.
    """
    coords = (np.arange(patch) + 0.5) / (patch / 4.0) - 0.5  # cell coordinate
    lo = np.floor(coords)[:, None]
    frac = coords[:, None] - lo
    cells = np.arange(4)
    return np.where(lo == cells, 1.0 - frac, 0.0) + np.where(lo == cells - 1, frac, 0.0)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, norm, out=np.zeros_like(vectors), where=norm > 0)


def extract_descriptors(frame: np.ndarray, grid_stride: int = 8,
                        patch: int = 16) -> np.recarray:
    """Dense grid of 128-d orientation-histogram descriptors as DESCRIPTOR records.

    Centers are placed every grid_stride px wherever the patch fits
    entirely inside the frame, in row-major order.  A flat patch gives
    the all-zero vector.
    """
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    if patch > min(h, w):
        raise VocabularyError(f"frame {frame.shape} smaller than patch {patch}")
    gy, gx = np.gradient(frame)
    mag = np.hypot(gx, gy)
    obin = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) / (2.0 * np.pi) * 8.0
    lo = np.floor(obin)
    f1 = obin - lo
    # Magnitude split bilinearly between orientation bins lo and lo + 1 (mod 8).
    planes = np.zeros((8, h, w))
    cell = lo.astype(np.intp) % 8 * (h * w) + np.arange(h * w).reshape(h, w)
    planes.reshape(-1)[cell] = mag * (1.0 - f1)  # a view: flat indices into planes
    planes.reshape(-1)[(cell + h * w) % planes.size] = mag * f1

    # Separable cell pooling: rows of each window, then its columns.
    weights = _cell_weights(patch)
    rows = sliding_window_view(planes, patch, axis=1)[:, ::grid_stride] @ weights
    cells = sliding_window_view(rows, patch, axis=2)[:, :, ::grid_stride] @ weights
    ny, nx = cells.shape[1:3]  # cells: (bin, grid y, grid x, cell y, cell x)
    vectors = cells.transpose(1, 2, 3, 4, 0).reshape(ny * nx, DESCRIPTOR_DIM)
    vectors = _unit_rows(np.minimum(_unit_rows(vectors), CLIP))

    half = patch // 2
    descs = np.recarray(ny * nx, dtype=DESCRIPTOR)
    descs.vector = vectors
    descs.y = np.repeat(half + grid_stride * np.arange(ny), nx)
    descs.x = np.tile(half + grid_stride * np.arange(nx), ny)
    descs.scale = patch
    return descs


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _sse(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diff = centroids[assign]
    return float(np.square(np.subtract(points, diff, out=diff), out=diff).sum())


def _sq_sums(vectors: np.ndarray, words: np.ndarray, vector_sq=None) -> np.ndarray:
    """(n, K) sums ‖x‖² − 2x·c + ‖c‖² (vector_sq: ‖x‖² per row, if known),
    built in place; −2c is exact, so the product holds the bits of −2x·c."""
    if vector_sq is None:
        vector_sq = (vectors ** 2).sum(axis=1)
    d2 = vectors @ (words * -2.0).T
    d2 += vector_sq[:, None]
    d2 += (words ** 2).sum(axis=1)
    return d2


def _sq_dist(vectors: np.ndarray, words: np.ndarray, vector_sq=None) -> np.ndarray:
    """(n, K) squared distances: _sq_sums clamped at 0, which rounding can
    undershoot for x equal to a word."""
    return np.maximum(d2 := _sq_sums(vectors, words, vector_sq), 0.0, out=d2)


def _nearest(pts: np.ndarray, centroids: np.ndarray, sq_norms=None) -> np.ndarray:
    """Index of each point's nearest centroid by _sq_dist; ties go to the lowest index."""
    d2 = _sq_sums(pts, centroids, sq_norms)
    nearest = d2.argmin(axis=1)
    low = d2[np.arange(len(d2)), nearest] < 0  # clamped, the first entry <= 0 is nearest
    nearest[low] = (d2[low] <= 0).argmax(axis=1)
    return nearest


def kmeans(points, k: int, seed: int = 0, n_init: int = 5) -> Codebook:
    """Seeded k-means++ then Lloyd iterations until assignments fix.

    Runs n_init restarts, seeded by _seed in turn from one generator, and
    keeps the lowest-SSE one.  Once every centroid has moved to its cluster
    mean, each empty cluster in turn is re-seeded to the point then farthest
    from its centroid; a step that returns to the assignment it started from
    also ends the iterations.  The within-cluster SSE is asserted non-increasing.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < k:
        raise VocabularyError(f"need at least {k} points, got {pts.shape}")
    if k < 1:
        raise VocabularyError("k must be >= 1")
    if n_init < 1:
        raise VocabularyError("n_init must be >= 1")
    sq_norms = (pts ** 2).sum(axis=1)
    if not np.isfinite(sq_norms).all():
        raise VocabularyError("k-means points and their squared norms must be finite")
    rng = np.random.default_rng(seed)
    best_words, best_sse = None, np.inf
    for _ in range(n_init):  # Lloyd steps draw nothing: each seeding goes on from the last
        words, sse = _lloyd(pts, sq_norms, _seed(pts, sq_norms, k, rng))
        if sse < best_sse:
            best_words, best_sse = words, sse
    return Codebook(words=best_words, seed=seed)


def _seed(pts, sq_norms, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds: k rows of pts, the first drawn by rng.integers(n).

    Each later pick is drawn with weight D² (the squared distance to the
    nearest pick so far) by inverse CDF on one rng.random(), as
    rng.choice(n, p=d2 / total) draws it.  Once the weights run out (every
    distinct row picked), each pick left is rng.integers(n).
    """
    n = pts.shape[0]
    picks = [rng.integers(n)]
    d2 = np.full(n, np.inf)  # D² to the nearest pick so far: none yet
    for _ in range(1, k):
        d = pts @ (pts[picks[-1]] * -2.0)  # _sq_dist to the last pick, one product
        d += sq_norms
        d += sq_norms[picks[-1]]
        np.minimum(d2, np.maximum(d, 0.0, out=d), out=d2)
        if (total := d2.sum()) <= 0:
            picks.append(rng.integers(n))
        else:
            cdf = (d2 / total).cumsum()
            picks.append((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))
    return pts[picks]


def _lloyd(pts, sq_norms, centroids: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd steps from the seed centroids, updated in place: (centroids, their SSE)."""
    k, dim = centroids.shape
    assign = _nearest(pts, centroids, sq_norms)
    sse = _sse(pts, centroids, assign)
    for _ in range(KMEANS_MAX_ITER):
        # Per-cluster row sums, added in row order as a mean over axis 0 adds them.
        counts = np.bincount(assign, minlength=k)
        cells = (assign[:, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(cells, weights=pts.ravel(), minlength=k * dim)
        full = counts > 0
        start = assign if full.all() else assign.copy()
        centroids[full] = sums.reshape(k, dim)[full] / counts[full, None]
        # A cluster of equal rows takes that row: their mean can be an ulp off.
        first = np.zeros(k, dtype=np.intp)
        first[full] = np.unique(assign, return_index=True)[1]
        equal = full.copy()
        equal[assign[(pts != pts[first[assign]]).any(axis=1)]] = False
        centroids[equal] = pts[first[equal]]
        for c in np.flatnonzero(~full):
            worst = int(((pts - centroids[assign]) ** 2).sum(axis=1).argmax())
            centroids[c] = pts[worst]
            assign[worst] = c
        step_sse = _sse(pts, centroids, assign)
        new_assign = _nearest(pts, centroids, sq_norms)
        sse = _sse(pts, centroids, new_assign)
        assert sse <= step_sse + 1e-9, "k-means SSE increased"
        # A step is a function of the assignment it starts from, so one that
        # gives that assignment back would repeat itself every later step.
        if np.array_equal(new_assign, assign) or np.array_equal(new_assign, start):
            break
        assign = new_assign
    return centroids, sse


# ---------------------------------------------------------------------------
# Quantization and BoW
# ---------------------------------------------------------------------------

def quantize(vectors, codebook: Codebook) -> np.ndarray:
    """Soft word weights (n, K) for each row of (n, dim) vectors.

    The weights are a Gaussian (width SOFT_SIGMA) of the distance over the
    SOFT_NEIGHBORS nearest words, normalized to sum 1 per row; when all of
    them underflow the row is one-hot at the nearest word.  An all-zero row
    (a flat patch) carries no word: its weights are all zero.  Ties go to
    the lowest index.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[1] != codebook.words.shape[1]:
        raise VocabularyError(f"{vectors.shape[1]}-d vectors against a codebook "
                              f"of {codebook.words.shape[1]}-d words")
    d2 = _sq_dist(vectors, codebook.words)
    if not np.isfinite(d2).all():
        raise VocabularyError("vectors, words and their squared distances must be finite")
    left = d2.copy()  # finite, so a pick set to +inf is never picked again
    rows = np.arange(len(d2))[:, None]
    nearest = np.empty((len(d2), min(SOFT_NEIGHBORS, codebook.K)), dtype=np.intp)
    for j in range(nearest.shape[1]):  # argmin passes: ties go to the lowest index
        nearest[:, j] = left.argmin(axis=1)
        left[rows[:, 0], nearest[:, j]] = np.inf
    weights = np.exp(-d2[rows, nearest] / (2.0 * SOFT_SIGMA * SOFT_SIGMA))
    total = weights.sum(axis=1, keepdims=True)
    soft = np.zeros_like(d2)
    soft[rows, nearest] = weights / np.where(total > 0, total, 1.0)
    underflow = total[:, 0] == 0
    soft[underflow, nearest[underflow, 0]] = 1.0
    soft[~vectors.any(axis=1)] = 0.0
    return soft


def bow_histogram(descriptors, codebook: Codebook) -> np.ndarray:
    """Soft-assignment word counts of DESCRIPTOR records, L1-normalized.

    All-zero descriptors (flat patches) count nothing; a featureless image
    yields the all-zero histogram.
    """
    counts = quantize(descriptors.vector, codebook).sum(axis=0)
    total = counts.sum()
    return counts / total if total > 0 else counts


# ---------------------------------------------------------------------------
# Pyramid match kernel
# ---------------------------------------------------------------------------

@dataclass
class HistogramPyramid:
    """Histograms over point space, unit bins at level 0 and doubling per level."""

    levels: list[Counter]
    dim: int


def build_pyramid(points, n_levels: int) -> HistogramPyramid:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if n_levels < 1:
        raise VocabularyError("need at least one pyramid level")
    levels = [Counter(map(tuple, np.floor(pts / 2.0 ** i).astype(np.int64).tolist()))
              for i in range(n_levels)]
    return HistogramPyramid(levels=levels, dim=pts.shape[1])


def pmk(py: HistogramPyramid, pz: HistogramPyramid) -> float:
    """New-match counting kernel: sum_i 2^-i (I_i - I_{i-1}), I_{-1} = 0."""
    if len(py.levels) != len(pz.levels) or py.dim != pz.dim:
        raise VocabularyError("pyramid geometries differ")
    score = 0.0
    prev = 0
    for i, (y, z) in enumerate(zip(py.levels, pz.levels)):
        inter = (y & z).total()
        score += (2.0 ** -i) * (inter - prev)
        prev = inter
    return score


# ---------------------------------------------------------------------------
# Codebook serialization
# ---------------------------------------------------------------------------

def save_codebook(path, codebook: Codebook) -> None:
    with open(path, "w") as fh:
        fh.write("vvtrack-codebook v1\n")
        fh.write(f"{codebook.K} {codebook.words.shape[1]} {codebook.seed}\n")
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in codebook.words.tolist())


def load_codebook(path) -> Codebook:
    with open(path) as fh:
        try:  # a ValueError here includes bytes that do not decode as text
            header = fh.readline().strip()
            if header != "vvtrack-codebook v1":
                raise VocabularyError(f"{path}: bad codebook header {header!r}")
            k, dim, seed = (int(t) for t in fh.readline().split())
            rows = list(islice(fh, k))  # at most k: the file may claim more than it has
            if k < 1 or len(rows) < k or not all(map(str.strip, rows)) or fh.read().strip():
                raise ValueError(f"need {k} non-blank centroid rows and nothing after")
            words = np.loadtxt(rows, ndmin=2, comments=None)  # parsed in C
        except ValueError as exc:
            raise VocabularyError(f"{path}: malformed codebook: {exc}") from None
    if words.shape != (k, dim):
        raise VocabularyError(f"{path}: codebook centroid block has wrong shape")
    if not np.isfinite(words).all():
        raise VocabularyError(f"{path}: codebook has non-finite values")
    return Codebook(words=words, seed=seed)
