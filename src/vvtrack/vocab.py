"""Dense local descriptors, visual-word codebooks, BoW histograms and the
pyramid match kernel.

Descriptors are 128-d gradient-orientation histograms (4x4 spatial cells
x 8 orientation bins, magnitude weighted with bilinear binning) sampled
on a dense grid, L2-normalized with the usual 0.2 clip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DESCRIPTOR_DIM = 128
CLIP = 0.2
SOFT_NEIGHBORS = 5
SOFT_SIGMA = 0.2


class VocabularyError(Exception):
    pass


@dataclass
class Descriptor:
    vector: np.ndarray
    x: float
    y: float
    scale: float


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

def _cell_weights(patch: int) -> np.ndarray:
    """Bilinear spatial weights of each pixel into the 4x4 cell grid.

    Returns (16, patch, patch); depends only on the patch size, cached.
    """
    coords = (np.arange(patch) + 0.5) / (patch / 4.0) - 0.5  # cell coordinate
    lo = np.floor(coords).astype(int)
    frac = coords - lo
    w = np.zeros((16, patch, patch))
    for cy in range(4):
        wy = np.where(lo == cy, 1.0 - frac, 0.0) + np.where(lo == cy - 1, frac, 0.0)
        for cx in range(4):
            wx = np.where(lo == cx, 1.0 - frac, 0.0) + np.where(lo == cx - 1, frac, 0.0)
            w[cy * 4 + cx] = wy[:, None] * wx[None, :]
    return w


_CELL_CACHE: dict[int, np.ndarray] = {}


def extract_descriptors(frame: np.ndarray, grid_stride: int = 8,
                        patch: int = 16) -> list[Descriptor]:
    """Dense grid of 128-d orientation-histogram descriptors.

    Centers are placed every grid_stride px wherever the patch fits
    entirely inside the frame.
    """
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    if patch > min(h, w):
        raise VocabularyError(f"frame {frame.shape} smaller than patch {patch}")
    gy, gx = np.gradient(frame)
    mag = np.hypot(gx, gy)
    ori = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)

    if patch not in _CELL_CACHE:
        _CELL_CACHE[patch] = _cell_weights(patch)
    cell_w = _CELL_CACHE[patch]

    half = patch // 2
    xs = range(half, w - half + 1, grid_stride)
    ys = range(half, h - half + 1, grid_stride)
    obin = ori / (2.0 * np.pi) * 8.0
    b0 = np.floor(obin).astype(int) % 8
    b1 = (b0 + 1) % 8
    f1 = obin - np.floor(obin)
    f0 = 1.0 - f1

    descs = []
    for cy in ys:
        for cx in xs:
            sl = (slice(cy - half, cy - half + patch),
                  slice(cx - half, cx - half + patch))
            m = mag[sl]
            vec = np.zeros((16, 8))
            pm0 = m * f0[sl]
            pm1 = m * f1[sl]
            pb0 = b0[sl]
            pb1 = b1[sl]
            for c in range(16):
                cw = cell_w[c]
                np.add.at(vec[c], pb0.ravel(), (cw * pm0).ravel())
                np.add.at(vec[c], pb1.ravel(), (cw * pm1).ravel())
            vec = vec.ravel()
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec = np.minimum(vec / norm, CLIP)
                norm2 = np.linalg.norm(vec)
                if norm2 > 0:
                    vec = vec / norm2
            descs.append(Descriptor(vector=vec, x=float(cx), y=float(cy),
                                    scale=float(patch)))
    return descs


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _sse(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    return float(((points - centroids[assign]) ** 2).sum())


def _nearest(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, from one (n, K) matrix product.

    ‖x‖² is the same for every centroid of a row, so it is left out.  The
    argmin can differ from that of the direct differences only where two
    distances agree to rounding.
    """
    return ((centroids ** 2).sum(axis=1) - 2.0 * pts @ centroids.T).argmin(axis=1)


def kmeans(points, k: int, seed: int = 0, max_iter: int = 100,
           n_init: int = 5) -> Codebook:
    """Seeded k-means++ then Lloyd iterations until assignments fix.

    Runs n_init restarts and keeps the lowest-SSE solution.  Empty
    clusters are re-seeded to the point currently farthest from its
    centroid.  The within-cluster SSE is asserted non-increasing.
    """
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], Descriptor):
        points = [d.vector for d in points]
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < k:
        raise VocabularyError(f"need at least {k} points, got {pts.shape}")
    if k < 1:
        raise VocabularyError("k must be >= 1")
    if n_init < 1:
        raise VocabularyError("n_init must be >= 1")
    rng = np.random.default_rng(seed)
    best_words = None
    best_sse = np.inf
    for _ in range(n_init):
        words = _lloyd(pts, k, rng, max_iter)
        sse = _sse(pts, words, _nearest(pts, words))
        if sse < best_sse:
            best_sse = sse
            best_words = words
    return Codebook(words=best_words, seed=seed)


def _lloyd(pts: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int) -> np.ndarray:
    n = pts.shape[0]

    # k-means++ seeding
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = pts[rng.integers(n)]
        else:
            centroids[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centroids[i]) ** 2).sum(axis=1))

    assign = None
    prev_sse = np.inf
    for _ in range(max_iter):
        new_assign = _nearest(pts, centroids)
        sse = _sse(pts, centroids, new_assign)
        assert sse <= prev_sse + 1e-9, "k-means SSE increased"
        prev_sse = sse
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                worst = int(((pts - centroids[assign]) ** 2).sum(axis=1).argmax())
                centroids[c] = pts[worst]
                assign[worst] = c
        prev_sse = _sse(pts, centroids, assign)  # centroid step also lowers SSE
    return centroids


# ---------------------------------------------------------------------------
# Quantization and BoW
# ---------------------------------------------------------------------------

def quantize(vector, codebook: Codebook, m: int = SOFT_NEIGHBORS,
             sigma: float = SOFT_SIGMA):
    """Hard and soft word assignment for a descriptor vector.

    Returns (hard index, soft weights over all K words).  Soft weights
    are a Gaussian of the distance over the m nearest words, normalized
    to sum 1; ties in the hard assignment go to the lowest index.
    """
    if isinstance(vector, Descriptor):
        vector = vector.vector
    vector = np.asarray(vector, dtype=np.float64)
    d2 = ((codebook.words - vector) ** 2).sum(axis=1)
    hard = int(d2.argmin())
    m = min(m, codebook.K)
    nearest = np.argsort(d2, kind="stable")[:m]
    weights = np.exp(-d2[nearest] / (2.0 * sigma * sigma))
    soft = np.zeros(codebook.K)
    total = weights.sum()
    if total > 0:
        soft[nearest] = weights / total
    else:
        soft[hard] = 1.0
    return hard, soft


def bow_histogram(descriptors, codebook: Codebook, idf=None,
                  m: int = SOFT_NEIGHBORS, sigma: float = SOFT_SIGMA) -> np.ndarray:
    """Soft-assignment word counts, optionally idf-weighted, L1-normalized.

    All-zero descriptors (flat patches) are dropped; a featureless image
    yields the all-zero histogram.
    """
    counts = np.zeros(codebook.K)
    for desc in descriptors:
        vec = desc.vector if isinstance(desc, Descriptor) else np.asarray(desc)
        if not np.any(vec):
            continue
        _, soft = quantize(vec, codebook, m=m, sigma=sigma)
        counts += soft
    if idf is not None:
        counts = counts * np.asarray(idf, dtype=np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def idf_weights(histograms, n_images: int | None = None) -> np.ndarray:
    """idf_i = log(N / (1 + n_i)) with n_i = images containing word i."""
    hs = np.asarray(histograms, dtype=np.float64)
    if n_images is None:
        n_images = hs.shape[0]
    n_i = (hs > 0).sum(axis=0)
    return np.log(n_images / (1.0 + n_i))


# ---------------------------------------------------------------------------
# Pyramid match kernel
# ---------------------------------------------------------------------------

@dataclass
class HistogramPyramid:
    """Multi-resolution histograms over point space, bin side doubling per level."""

    levels: list[dict]
    cell0: float
    dim: int
    n_points: int

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def build_pyramid(points, n_levels: int, cell0: float = 1.0) -> HistogramPyramid:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if n_levels < 1:
        raise VocabularyError("need at least one pyramid level")
    levels = []
    for i in range(n_levels):
        side = cell0 * (2.0 ** i)
        hist: dict = {}
        for p in pts:
            key = tuple(int(v) for v in np.floor(p / side))
            hist[key] = hist.get(key, 0) + 1
        levels.append(hist)
    return HistogramPyramid(levels=levels, cell0=cell0, dim=pts.shape[1],
                            n_points=pts.shape[0])


def _intersection(h1: dict, h2: dict) -> int:
    return sum(min(c, h2[k]) for k, c in h1.items() if k in h2)


def pmk(py: HistogramPyramid, pz: HistogramPyramid) -> float:
    """New-match counting kernel: sum_i 2^-i (I_i - I_{i-1}), I_{-1} = 0."""
    if (py.n_levels != pz.n_levels or py.cell0 != pz.cell0 or py.dim != pz.dim):
        raise VocabularyError("pyramid geometries differ")
    score = 0.0
    prev = 0
    for i in range(py.n_levels):
        inter = _intersection(py.levels[i], pz.levels[i])
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
        for row in codebook.words:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_codebook(path) -> Codebook:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "vvtrack-codebook v1":
            raise VocabularyError(f"{path}: bad codebook header {header!r}")
        try:
            k, dim, seed = (int(t) for t in fh.readline().split())
            words = np.asarray([[float(t) for t in fh.readline().split()]
                                for _ in range(k)])
        except ValueError as exc:
            raise VocabularyError(f"{path}: malformed codebook: {exc}") from None
    if words.shape != (k, dim):
        raise VocabularyError(f"{path}: codebook centroid block has wrong shape")
    return Codebook(words=words, seed=seed)
