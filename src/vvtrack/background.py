"""Adaptive background model and per-frame moving-pixel masks.

The motion mask fuses a temporal test (windowed radiometric similarity
between consecutive frames) with a background-difference test against a
recursively updated background image, thresholded by an adaptive level
fitted to the frame-difference noise histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.special import erf

from .frames import validate_gray

EPS_VAR = 1e-12
EPS_MEAN = 1e-6


class BackgroundError(Exception):
    pass


@dataclass
class BackgroundState:
    """Running background image plus the adaptive-rate bookkeeping.

    B is the current background, V the six most recent frame means
    (newest first), a the base learning rate, b the gain slope and T_b
    the adaptive threshold on [0, 1] intensities.
    """

    B: np.ndarray
    V: list[float] = field(default_factory=list)
    a: float = 0.05
    b: float = 0.1
    T_b: float = 0.1
    T_sim: float = 0.3
    window_radius: int = 1

    def __post_init__(self):
        self.B = validate_gray(self.B)
        if not 0.04 <= self.a <= 0.06:
            raise BackgroundError(f"base rate a={self.a} outside [0.04, 0.06]")
        if not 0.0 <= self.T_b <= 1.0:
            raise BackgroundError(f"T_b={self.T_b} outside [0, 1]")


@dataclass
class NoiseModel:
    """Zero-mean noise fit over a 256-bin absolute gray-difference histogram."""

    p_B: float
    sigma: float  # gray levels
    histogram: np.ndarray
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


def init_background(first_frame: np.ndarray, **kwargs) -> BackgroundState:
    """First frame becomes the background verbatim; V seeded with its mean."""
    first_frame = validate_gray(first_frame)
    state = BackgroundState(B=first_frame.copy(), **kwargs)
    state.V = [float(first_frame.mean())]
    return state


def similarity_map(f1: np.ndarray, f2: np.ndarray, w: int = 1) -> np.ndarray:
    """Windowed NCC of the (2w+1)^2 windows at every pixel (reflect borders).

    A flat window scores 0, or 1 where both are flat with equal means.
    """
    size = 2 * w + 1
    mean = lambda f: ndimage.uniform_filter(f, size=size, mode="reflect")
    m1, m2 = mean(f1), mean(f2)
    v1 = mean(f1 * f1) - m1 * m1
    v2 = mean(f2 * f2) - m2 * m2
    cov = mean(f1 * f2) - m1 * m2
    v1 = np.maximum(v1, 0.0)
    v2 = np.maximum(v2, 0.0)
    both_flat = (v1 < EPS_VAR) & (v2 < EPS_VAR)
    one_flat = ((v1 < EPS_VAR) | (v2 < EPS_VAR)) & ~both_flat
    denom = np.sqrt(np.maximum(v1 * v2, EPS_VAR**2))
    sim = cov / denom
    sim = np.where(both_flat, np.where(np.abs(m1 - m2) < EPS_MEAN, 1.0, 0.0), sim)
    sim = np.where(one_flat, 0.0, sim)
    return np.clip(sim, -1.0, 1.0)


def motion_masks(curr: np.ndarray, prev: np.ndarray,
                 state: BackgroundState) -> MotionMasks:
    """Temporal, background-difference and fused masks for the current frame.

    The temporal mask fires on window DISSIMILARITY, (1 - R) > T_sim; the
    printed similarity inequality reads backwards physically and is
    treated as a typo.
    """
    curr = validate_gray(curr)
    prev = validate_gray(prev)
    if state.B.shape != curr.shape or prev.shape != curr.shape:
        raise BackgroundError("frame dimensions do not match state")
    if not state.V:
        raise BackgroundError("background state not initialized")
    sim = similarity_map(curr, prev, state.window_radius)
    i_m = (1.0 - sim) > state.T_sim
    f_m = np.abs(curr - state.B) > state.T_b
    return MotionMasks(I_m=i_m, F_m=f_m, M=i_m & f_m)


def update_background(state: BackgroundState, curr: np.ndarray) -> BackgroundState:
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
    return state


def diff_histogram(curr: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """256-bin histogram of |curr - prev| in gray levels (bin k holds |d| = k)."""
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
    # [-0.5, 0.5], so its lower edge is erf(0) = 0).
    upper = erf((d + 0.5)[None, :] / (sigma[rows, None] * np.sqrt(2.0)))
    model = p_b[rows, None] * np.diff(upper, axis=1, prepend=0.0)
    row_errors = ((model - h[None, :]) ** 2).sum(axis=1)
    errors = row_errors[np.searchsorted(rows, np.arange(256), "right") - 1]
    t_best = int(np.argmin(errors))  # argmin takes the first (smallest T) tie
    return NoiseModel(p_B=float(p_b[t_best]), sigma=float(sigma[t_best]),
                      histogram=hist, threshold=t_best, errors=errors)


def clean_mask(mask: np.ndarray) -> np.ndarray:
    """3x3 median filter, then opening, then closing (3x3 square element).

    On a binary mask the 3x3 median is "at least 5 of the 9 set", counted
    by two separable box sums with the median filter's reflect border.
    Erosion pads with 1s and dilation with 0s, so blobs touching the frame
    edge are not eaten by the structuring element; the closing's two 3x3
    dilations are one 5x5 maximum.
    """
    out = np.asarray(mask, bool).astype(np.uint8)
    ones = np.ones(3, np.uint8)
    count = ndimage.correlate1d(out, ones, axis=0, mode="reflect")
    count = ndimage.correlate1d(count, ones, axis=1, mode="reflect")
    out = (count >= 5).view(np.uint8)
    out = ndimage.minimum_filter(out, size=3, mode="constant", cval=1)
    out = ndimage.maximum_filter(out, size=5, mode="constant", cval=0)
    out = ndimage.minimum_filter(out, size=3, mode="constant", cval=1)
    return out.view(bool)
