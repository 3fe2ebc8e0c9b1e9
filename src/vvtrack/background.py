"""Adaptive background model and per-frame moving-pixel masks.

The motion mask fuses a temporal test (windowed radiometric similarity
between consecutive frames) with a background-difference test against a
recursively updated background image, thresholded by an adaptive level
fitted to the frame-difference noise histogram.

scipy is imported inside the functions that call it, so importing this
module loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import validate_gray

EPS_VAR = 1e-12
EPS_MEAN = 1e-6


class BackgroundError(Exception):
    pass


@dataclass
class BackgroundState:
    """Running background image plus the adaptive-rate bookkeeping.

    B is the current background, built from a copy of the first frame;
    V the six most recent frame means (newest first), seeded with that
    frame's; a the base learning rate and b the gain slope.
    """

    B: np.ndarray
    V: list[float] = field(init=False)
    a: float = 0.05
    b: float = 0.1
    T_sim: float = 0.3
    window_radius: int = 1

    def __post_init__(self):
        self.B = validate_gray(np.array(self.B))
        self.V = [float(self.B.mean())]
        if not 0.04 <= self.a <= 0.06:
            raise BackgroundError(f"base rate a={self.a} outside [0.04, 0.06]")


@dataclass
class NoiseModel:
    """Zero-mean noise fit over a 256-bin absolute gray-difference histogram."""

    p_B: float
    sigma: float  # gray levels
    threshold: int  # gray level T
    errors: np.ndarray  # fit error per candidate T

    @property
    def T_b(self) -> float:
        return self.threshold / 255.0


@dataclass
class MotionMasks:
    I_m: np.ndarray  # temporal (frame-to-frame) mask
    F_m: np.ndarray  # background-difference mask
    M: np.ndarray  # fused mask


def box_moments(f: np.ndarray, w: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the (2w+1)^2 window at every pixel (reflect borders)."""
    from scipy import ndimage

    size = 2 * w + 1
    m = ndimage.uniform_filter(f, size=size, mode="reflect")
    v = ndimage.uniform_filter(f * f, size=size, mode="reflect") - m * m
    return m, np.maximum(v, 0.0)


def similarity_map(f1: np.ndarray, f2: np.ndarray, w: int = 1,
                   moments=None) -> np.ndarray:
    """Windowed NCC of the (2w+1)^2 windows at every pixel (reflect borders).

    A flat window scores 0, or 1 where both are flat with equal means.
    ``moments`` is ``(box_moments(f1, w), box_moments(f2, w))`` when the
    caller has them already: along a sequence each frame's are computed
    once and serve as f1 of one pair and f2 of the next.
    """
    from scipy import ndimage

    if moments is None:
        moments = box_moments(f1, w), box_moments(f2, w)
    (m1, v1), (m2, v2) = moments
    sim = ndimage.uniform_filter(f1 * f2, size=2 * w + 1, mode="reflect")
    sim -= m1 * m2  # the covariance
    denom = np.maximum(v1 * v2, EPS_VAR**2)
    sim /= np.sqrt(denom, out=denom)
    flat1, flat2 = v1 < EPS_VAR, v2 < EPS_VAR
    flat = flat1 | flat2
    if flat.any():  # rare on real frames: skip the fixes when no window is flat
        sim[flat] = 0.0
        both = flat1 & flat2
        both &= np.abs(m1 - m2) < EPS_MEAN
        sim[both] = 1.0
    return np.clip(sim, -1.0, 1.0, out=sim)


def motion_masks(curr: np.ndarray, prev: np.ndarray, state: BackgroundState,
                 T_b: float, moments=None) -> MotionMasks:
    """Temporal, background-difference and fused masks for the current frame.

    The temporal mask fires on window DISSIMILARITY, (1 - R) > T_sim; the
    printed similarity inequality reads backwards physically and is
    treated as a typo.  The background-difference mask fires on
    |curr - B| > T_b, this frame's fitted threshold on [0, 1] intensities.
    ``moments`` is passed on to similarity_map.
    """
    curr = validate_gray(curr)
    prev = validate_gray(prev)
    if state.B.shape != curr.shape or prev.shape != curr.shape:
        raise BackgroundError("frame dimensions do not match state")
    sim = similarity_map(curr, prev, state.window_radius, moments)
    i_m = (1.0 - sim) > state.T_sim
    f_m = np.abs(curr - state.B) > T_b
    return MotionMasks(I_m=i_m, F_m=f_m, M=i_m & f_m)


def update_background(state: BackgroundState, curr: np.ndarray) -> None:
    """First-order recursive update B <- B + alpha (I - B) with adaptive alpha.

    alpha = a + b |E(t) - E(t-5)| / max(E(t), E(t-5)); the gain is zero
    when both means are zero or fewer than six means are available yet.
    """
    curr = validate_gray(curr)
    if state.B.shape != curr.shape:
        raise BackgroundError("frame dimensions do not match state")
    e_t = float(curr.mean())
    history = [e_t] + state.V
    alpha = state.a
    if len(history) >= 6:
        e_old = history[5]
        denom = max(e_t, e_old)
        if denom > 0:
            alpha = state.a + state.b * abs(e_t - e_old) / denom
    alpha = min(alpha, 1.0)
    state.B = state.B + alpha * (curr - state.B)
    state.V = history[:6]


def diff_histogram(curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """256-bin histogram of |curr - prev| in gray levels (bin k holds |d| = k)."""
    if curr.shape != prev.shape:
        raise BackgroundError(f"frame dimensions differ: {curr.shape} vs {prev.shape}")
    d = np.clip(np.rint(np.abs(curr - prev) * 255.0), 0, 255).astype(np.intp)
    return np.bincount(d.ravel(), minlength=256).astype(np.float64)


def fit_adaptive_threshold(hist: np.ndarray) -> NoiseModel:
    """Exhaustive scan for the threshold minimizing the Gaussian-fit error.

    For each candidate T the zero-mean Gaussian noise model is fitted to
    the bins within [-T, T] (bin k >= 1 aggregates the +/-k sides) and
    the squared deviation between the modelled mass and the observed
    histogram is accumulated over all 256 levels; the smallest T among
    minimizers wins.

    An empty bin T adds exactly 0.0 to both cumulative sums, so its model
    and error equal those of T - 1 bit for bit: the model is evaluated only
    at T = 0 and the occupied bins, and each error is carried forward.
    """
    from scipy.special import erf

    hist = np.asarray(hist, dtype=np.float64)
    if hist.shape != (256,):
        raise BackgroundError("histogram must have exactly 256 bins")
    total = hist.sum()
    if total <= 0:
        raise BackgroundError("all-zero histogram")
    h = hist / total
    d = np.arange(256, dtype=np.float64)

    p_b = np.cumsum(h)  # p(B) as a function of T
    var = np.cumsum(d * d * h)
    sigma = np.sqrt(var / np.maximum(p_b, EPS_VAR))
    sigma = np.maximum(sigma, EPS_MEAN)

    occupied = hist != 0
    occupied[0] = True
    rows = np.flatnonzero(occupied)
    # Folded bin-integrated model mass at |d|: the erf at the upper edge
    # d + 0.5 minus the erf at the lower edge max(d - 0.5, 0), which is
    # exactly the upper edge of bin d - 1 for d >= 1 (the d = 0 bin spans
    # [-0.5, 0.5], so its lower edge is erf(0) = 0).  erf rounds to 1.0 from
    # x = 6 on (erfc(6) < 2**-54): only the columns below 6 sigma sqrt(2) of
    # the widest row, plus one, need it (a NaN sigma keeps every column).
    scale = sigma[rows, None] * np.sqrt(2.0)
    n = min(256, 257 - np.count_nonzero(d + 0.5 >= 6.0 * scale.max()))
    upper = np.ones((rows.size, 256))
    erf((d[:n] + 0.5) / scale, out=upper[:, :n])
    model = p_b[rows, None] * np.diff(upper, axis=1, prepend=0.0)
    row_errors = ((model - h[None, :]) ** 2).sum(axis=1)
    errors = row_errors[np.searchsorted(rows, np.arange(256), "right") - 1]
    t_best = int(np.argmin(errors))  # argmin takes the first (smallest T) tie
    return NoiseModel(p_B=float(p_b[t_best]), sigma=float(sigma[t_best]),
                      threshold=t_best, errors=errors)


def _window(pad: np.ndarray, r: int, op) -> np.ndarray:
    """op over each (2r+1)^2 window of an array padded by r on every side:
    2r calls along the rows, then 2r along the columns."""
    h, w = pad.shape[0] - 2 * r, pad.shape[1] - 2 * r
    rows = op(pad[:h], pad[1:h + 1])
    for k in range(2, 2 * r + 1):
        op(rows, pad[k:k + h], out=rows)
    out = op(rows[:, :w], rows[:, 1:w + 1])
    for k in range(2, 2 * r + 1):
        op(out, rows[:, k:k + w], out=out)
    return out


def _padded(mask: np.ndarray, r: int, fill: bool) -> np.ndarray:
    pad = np.full((mask.shape[0] + 2 * r, mask.shape[1] + 2 * r), fill)
    pad[r:-r, r:-r] = mask
    return pad


def clean_mask(mask: np.ndarray) -> np.ndarray:
    """3x3 median filter, then opening, then closing (3x3 square element).

    On a binary mask the 3x3 median is "at least 5 of the 9 set", counted
    by two 3-tap uint8 sums over an edge-repeated border: the median
    filter's reflect border at size 3.  Erosion is an AND of slices over a
    border of 1s and dilation an OR over a border of 0s, so blobs touching
    the frame edge are not eaten by the structuring element; the closing's
    two 3x3 dilations are one 5x5 dilation.
    """
    mask = np.asarray(mask, bool)
    if mask.ndim != 2:
        raise BackgroundError(f"mask must be 2-D, got shape {mask.shape}")
    if not mask.size:
        return mask.copy()
    pad = np.empty((mask.shape[0] + 2, mask.shape[1] + 2), np.uint8)
    pad[1:-1, 1:-1] = mask
    pad[0, 1:-1], pad[-1, 1:-1] = mask[0], mask[-1]
    pad[:, 0], pad[:, -1] = pad[:, 1], pad[:, -2]
    out = _window(pad, 1, np.add) >= 5
    out = _window(_padded(out, 1, True), 1, np.logical_and)
    out = _window(_padded(out, 2, False), 2, np.logical_or)
    return _window(_padded(out, 1, True), 1, np.logical_and)
