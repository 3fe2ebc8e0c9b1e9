"""Shadow-edge detection and shadow-free reconstruction in the gradient domain.

Chromaticity (L2-normalized RGB) images are invariant to intensity
scaling, so edges present in the original frame but absent from the
invariant channels are illumination edges.  Integrating only those
gradients of the log image through a Poisson solve yields the shadow
image; the log image less it is the shadow-free image.

scipy is imported inside the functions that call it, so importing this
module loads none of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .frames import _luma, _validate, validate_rgb

LOG_OFFSET = 1.0 / 256.0
POISSON_TOL = 1e-6  # largest relative residual poisson_reconstruct accepts


class ShadowError(Exception):
    pass


class PoissonConvergenceError(ShadowError):
    def __init__(self, residual: float):
        super().__init__(f"Poisson solve failed: relative residual {residual:.3e}")
        self.residual = residual


@dataclass
class GradientField:
    gx: np.ndarray
    gy: np.ndarray


@dataclass
class ShadowMasks:
    HS: np.ndarray  # hard-shadow edges
    VS: np.ndarray  # penumbra band: HS dilated, so it contains HS
    gray: np.ndarray  # the gray frame they were found on


@dataclass
class Blob:
    bbox: tuple[int, int, int, int]  # x, y, w, h
    area: int
    centroid: tuple[float, float]


def invariant_images(frame: np.ndarray) -> np.ndarray:
    """(H, W, 2) L2-normalized r and g channels; black pixels map to zero."""
    frame = validate_rgb(frame)
    return np.moveaxis(_invariants(frame, np.empty((2,) + frame.shape[:2])), 0, -1)


def _invariants(frame: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The invariant r and g planes of an RGB frame that validate_rgb has
    checked, divided straight into the (2, H, W) ``out``."""
    r, g, b = np.moveaxis(frame, -1, 0)
    # Summed in the order sum(axis=2) adds, so the bits match a reduction,
    # which costs four times as much over an axis of length 3.
    norm = np.sqrt(r * r + g * g + b * b)
    norm[norm == 0] = 1.0
    np.divide(r, norm, out=out[0])
    np.divide(g, norm, out=out[1])
    return out


@functools.lru_cache(maxsize=16)
def _border_weight(shape: tuple[int, int], sigma: float) -> np.ndarray:
    """The truncated Gaussian's mass inside a frame of this shape, per pixel."""
    from scipy import ndimage

    weight = ndimage.gaussian_filter(np.ones(shape), sigma, truncate=3.0, mode="constant")
    weight.flags.writeable = False
    return weight


def edge_strength(frame: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Gaussian-smoothed Sobel gradient magnitude of each (H, W) plane of a
    (..., H, W) stack, each plane normalized to peak 1 (a flat plane stays 0).

    The Sobel is a central difference along one image axis, then [1, 2, 1]
    along the other, summed as 2c + (l + r): ndimage.sobel's order, so the
    bits match it plane by plane.  ndimage.sobel on the stack itself would
    also smooth across planes.
    """
    frame = _validate(frame, "grayscale", "(..., H, W)", np.shape(frame)[2:])
    return _edge_strength(frame, sigma)


def _edge_strength(frame: np.ndarray, sigma: float) -> np.ndarray:
    """edge_strength on a float stack whose pixels are already checked."""
    from scipy import ndimage

    if not (np.isfinite(sigma) and sigma >= 0):
        raise ShadowError(f"sigma must be finite and >= 0, got {sigma!r}")
    if sigma > 1e-15:  # gaussian_filter's cut-off: it copies a narrower blur
        # Truncate at 3 sigma and renormalize the kernel at the borders, by
        # gaussian_filter(axes=(-2, -1))'s own two passes, in one buffer.
        blur = ndimage.gaussian_filter1d(frame, sigma, -2, truncate=3.0, mode="constant")
        ndimage.gaussian_filter1d(blur, sigma, -1, output=blur, truncate=3.0, mode="constant")
        frame = np.divide(blur, _border_weight(frame.shape[-2:], sigma), out=blur)
    # np.pad(mode="edge")'s array, built at a third of its cost.
    pad = np.concatenate([frame[..., :1, :], frame, frame[..., -1:, :]], axis=-2)
    pad = np.concatenate([pad[..., :1], pad, pad[..., -1:]], axis=-1)
    dx = pad[..., 2:] - pad[..., :-2]
    dy = pad[..., 2:, :] - pad[..., :-2, :]
    # (l + r) + 2c, 2c doubled in place: the bits of 2c + (l + r), exactly.
    gx = dx[..., :-2, :] + dx[..., 2:, :]
    gx += np.multiply(dx[..., 1:-1, :], 2.0, out=dx[..., 1:-1, :])
    gy = dy[..., :-2] + dy[..., 2:]
    gy += np.multiply(dy[..., 1:-1], 2.0, out=dy[..., 1:-1])
    # shadow_masks only thresholds the result, so the magnitude need not be
    # hypot's, which costs five times as much: the root of the summed
    # squares is within 4 ulp of it once normalized.  Pixels in [0, 1]
    # bound each Sobel output by 8, so no square overflows; a square
    # underflows only where an output is below 1e-154, far under an 8-bit
    # step.
    mag = np.sqrt(np.add(np.square(gx, out=gx), np.square(gy, out=gy), out=gx), out=gx)
    peak = mag.max(axis=(-2, -1), keepdims=True)
    mag /= np.where(peak > 0, peak, 1.0)
    return mag


def hard_shadow_mask(e_ori: np.ndarray, e_inv1: np.ndarray, e_inv2: np.ndarray,
                     t1: float = 0.3, t2: float = 0.1) -> np.ndarray:
    """Strong in the original, absent in both invariants => illumination edge."""
    if not 0.0 <= t2 < t1 <= 1.0:
        raise ShadowError(f"need 0 <= t2 < t1 <= 1, got t1={t1}, t2={t2}")
    return (e_ori > t1) & (np.minimum(e_inv1, e_inv2) < t2)


def shadow_masks(frame: np.ndarray, sigma: float = 1.0, t1: float = 0.3,
                 t2: float = 0.1, penumbra: int = 2) -> ShadowMasks:
    """Hard shadow edges, the penumbra band dilated from them, and the gray frame."""
    if not (isinstance(penumbra, (int, np.integer)) and penumbra >= 0):
        raise ShadowError(f"penumbra must be an int >= 0, got {penumbra!r}")
    frame = validate_rgb(frame)
    planes = np.empty((3,) + frame.shape[:2])
    planes[0] = _luma(frame)
    np.clip(_invariants(frame, planes[1:]), 0.0, 1.0, out=planes[1:])
    e_ori, e1, e2 = _edge_strength(planes, sigma)
    hs = hard_shadow_mask(e_ori, e1, e2, t1, t2)
    vs = hs.copy()
    for _ in range(penumbra):  # ndimage.binary_dilation's cross, zero border
        prev = vs.copy()
        vs[1:] |= prev[:-1]
        vs[:-1] |= prev[1:]
        vs[:, 1:] |= prev[:, :-1]
        vs[:, :-1] |= prev[:, 1:]
    return ShadowMasks(HS=hs, VS=vs, gray=planes[0])


def forward_gradient(frame: np.ndarray) -> GradientField:
    """Forward differences; the last column/row of gx/gy is zero."""
    gx = np.zeros_like(frame)
    gy = np.zeros_like(frame)
    gx[:, :-1] = frame[:, 1:] - frame[:, :-1]
    gy[:-1, :] = frame[1:, :] - frame[:-1, :]
    return GradientField(gx=gx, gy=gy)


def masked_gradient(g: GradientField, mask: np.ndarray) -> GradientField:
    """The samples of the forward-difference field g under the mask, 0 elsewhere.

    A gradient sample spans two pixels; it is under the mask when either
    endpoint is masked, so a one-pixel-wide edge mask still keeps the step.
    """
    mask = np.asarray(mask, bool)
    if g.gx.shape != mask.shape:
        raise ShadowError("mask dimensions do not match frame")
    keep_x = mask.copy()
    keep_x[:, :-1] |= mask[:, 1:]
    keep_y = mask.copy()
    keep_y[:-1, :] |= mask[1:, :]
    return GradientField(gx=np.where(keep_x, g.gx, 0.0), gy=np.where(keep_y, g.gy, 0.0))


def divergence(g: GradientField) -> np.ndarray:
    """Backward-difference divergence of a forward-difference field, read
    on its support: gx without its last column, gy without its last row."""
    gx, gy = g.gx[:, :-1], g.gy[:-1, :]
    div = np.zeros_like(g.gx)
    div[:, :-1] += gx
    div[:, 1:] -= gx
    div[:-1, :] += gy
    div[1:, :] -= gy
    return div


@functools.lru_cache(maxsize=16)
def _eigenvalues(shape: tuple[int, int]) -> np.ndarray:
    """DCT-II eigenvalues of the 5-point Neumann Laplacian (constant mode: 1)."""
    h, w = shape
    eig = (2.0 * np.cos(np.pi * np.arange(h) / h)[:, None]
           + 2.0 * np.cos(np.pi * np.arange(w) / w) - 4.0)
    eig[0, 0] = 1.0
    eig.flags.writeable = False
    return eig


def poisson_reconstruct(g: GradientField) -> np.ndarray:
    """Solve lap(s) = div g with Neumann boundaries by a direct DCT solve.

    DCT-II diagonalizes the 5-point Neumann Laplacian, so the solve is a
    forward transform, a divide by its eigenvalues and an inverse
    transform.  Zeroing the constant mode gauge-fixes s to zero mean.
    Raises unless the relative residual is within POISSON_TOL (NaN raises).
    """
    from scipy import fft  # lazy, like every scipy import: other commands never load it

    b = divergence(g)
    b -= b.mean()  # Neumann compatibility
    b_norm = float(np.sqrt((b ** 2).sum()))
    if b_norm == 0.0:
        return np.zeros_like(b)
    coef = fft.dctn(b, type=2, norm="ortho")
    coef /= _eigenvalues(b.shape)
    coef[0, 0] = 0.0
    s = fft.idctn(coef, type=2, norm="ortho", overwrite_x=True)
    residual = divergence(forward_gradient(s))  # div grad = Neumann Laplacian
    residual -= b
    rel = float(np.sqrt((residual ** 2).sum())) / b_norm
    if not rel <= POISSON_TOL:
        raise PoissonConvergenceError(rel)
    return s


def split_shadow(masks: ShadowMasks):
    """Decompose the log of masks.gray into shadow (S) and shadow-free (R) images.

    s integrates only the gradients under the shadow-edge mask and
    r = i - s.  S is max-normalized so max(S) = 1; R = exp(r) keeps the
    frame's own brightness, since a per-frame normalization would show
    each frame's global brightness jump to the background model.  R is
    clipped at 1 so it stays a valid intensity image.
    """
    i_log = masks.gray + LOG_OFFSET
    np.log(i_log, out=i_log)
    s = poisson_reconstruct(masked_gradient(forward_gradient(i_log), masks.VS))
    i_log -= s  # R and S are formed in the buffers of i_log and s
    R = np.minimum(np.exp(i_log, out=i_log), 1.0, out=i_log)
    s -= s.max()
    return np.exp(s, out=s), R


def remove_shadow(frame: np.ndarray, sigma: float = 1.0, t1: float = 0.3,
                  t2: float = 0.1, penumbra: int = 2) -> np.ndarray:
    """Shadow-free image R of an RGB frame (see split_shadow), split from
    the gray frame that shadow_masks made: checked and converted once."""
    return split_shadow(shadow_masks(frame, sigma=sigma, t1=t1, t2=t2,
                                     penumbra=penumbra))[1]


def extract_blobs(mask: np.ndarray, min_area: int = 25) -> list[Blob]:
    """8-connected components >= min_area, largest first (ties: scan order)."""
    from scipy import ndimage

    mask = np.asarray(mask, bool)
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), bool))
    blobs = []
    for index, slc in enumerate(ndimage.find_objects(labels), start=1):
        component = labels[slc] == index
        area = int(component.sum())
        if area < min_area:
            continue
        y0, x0 = slc[0].start, slc[1].start
        ys, xs = np.nonzero(component)
        centroid = (x0 + float(xs.mean()), y0 + float(ys.mean()))
        bbox = (x0, y0, slc[1].stop - x0, slc[0].stop - y0)
        blobs.append(Blob(bbox=bbox, centroid=centroid, area=area))
    blobs.sort(key=lambda b: (-b.area, b.bbox[1], b.bbox[0]))
    return blobs
