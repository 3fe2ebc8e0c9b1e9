"""Frame I/O, grayscale conversion and synthetic ground-truthed sequences.

Frames are numpy float64 arrays with intensities in [0, 1], or the uint8
pixels that read_pnm gives: grayscale frames are (H, W), RGB frames are
(H, W, 3).  Files on disk are binary 8-bit PGM (P5) / PPM (P6) with
maxval 255.  The frame checks (validate_gray, validate_rgb, to_grayscale)
return float64, decoding uint8 pixels as pixels / 255.
"""

from __future__ import annotations

import json
import os
import re
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

GRAY_WEIGHTS = (0.299, 0.587, 0.114)
SHADOW_ATTENUATION = 0.5  # a cast shadow multiplies the background by this
FRAME_GLOB = "frame_*.p?m"  # the files of a sequence directory (see read_sequence)


class FrameError(Exception):
    """Bad frame data or an unreadable/malformed image file."""


def _validate(frame, kind: str, form: str, channels: tuple) -> np.ndarray:
    """frame as float64, checked to be (H, W) + channels with pixels in [0, 1]
    (uint8 pixels are decoded as frame / 255, in range by their type)."""
    frame = np.asarray(frame)
    if frame.ndim < 2 or frame.shape[2:] != channels:
        raise FrameError(f"{kind} frame must be {form}, got shape {frame.shape}")
    decoded = frame.dtype == np.uint8
    frame = frame / 255.0 if decoded else frame.astype(np.float64, copy=False)
    if not (frame.size and (decoded or frame.min() >= 0.0 and frame.max() <= 1.0)):
        raise FrameError(f"{kind} frame needs pixels, with intensities in [0, 1]")
    return frame


def validate_gray(frame: np.ndarray) -> np.ndarray:
    return _validate(frame, "grayscale", "2-D", ())


def validate_rgb(frame: np.ndarray) -> np.ndarray:
    return _validate(frame, "RGB", "(H, W, 3)", (3,))


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """Luma conversion: 0.299 R + 0.587 G + 0.114 B, clamped to [0, 1].

    A 2-D frame is already grayscale: it is validated and returned as is.
    """
    if np.ndim(frame) == 2:
        return validate_gray(frame)
    return _luma(validate_rgb(frame))


def _luma(frame: np.ndarray) -> np.ndarray:
    """to_grayscale of an RGB frame that validate_rgb has checked."""
    wr, wg, wb = GRAY_WEIGHTS
    return np.clip(wr * frame[..., 0] + wg * frame[..., 1] + wb * frame[..., 2], 0.0, 1.0)


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

# One header token: skip whitespace and '#' comments (each ends at a
# newline), then take a run of non-whitespace that does not start with '#'.
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)")


def _read_pnm_header(data: bytes, path):
    tokens, pos = [], 0
    while len(tokens) < 4 and (m := _PNM_TOKEN.match(data, pos)):
        tokens.append(m[1])
        pos = m.end()
    if len(tokens) < 4 or pos == len(data):  # no whitespace byte after maxval
        raise FrameError(f"{path}: truncated PNM header")
    magic = tokens[0]
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FrameError(f"{path}: non-numeric PNM header fields") from None
    return magic, width, height, maxval, pos + 1


def read_pnm(path) -> np.ndarray:
    """Read a binary P5 (gray) or P6 (RGB) file into a read-only uint8 array."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FrameError(f"{path}: cannot read file: {exc}") from exc
    magic, width, height, maxval, pos = _read_pnm_header(data, path)
    if magic not in (b"P5", b"P6"):
        raise FrameError(f"{path}: unsupported magic {magic!r} (need binary P5/P6)")
    if maxval != 255:
        raise FrameError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise FrameError(f"{path}: image dimensions must be >= 1, got {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    n = width * height * channels
    raw = np.frombuffer(data, dtype=np.uint8, count=-1, offset=pos)
    if raw.size < n:
        raise FrameError(f"{path}: truncated pixel data ({raw.size} of {n} bytes)")
    return raw[:n].reshape((height, width) if channels == 1 else (height, width, 3))


def write_pnm(path, frame: np.ndarray) -> None:
    """Write a frame as binary P5 (2-D) or P6 (3-D) with maxval 255.

    A uint8 array is written as it is; any other array holds [0, 1]
    intensities, rounded to the nearest of the 256 levels.
    """
    frame = np.asarray(frame)
    if frame.ndim == 2:
        magic = b"P5"
        h, w = frame.shape
    elif frame.ndim == 3 and frame.shape[2] == 3:
        magic = b"P6"
        h, w = frame.shape[:2]
    else:
        raise FrameError(f"cannot write frame of shape {frame.shape}")
    if frame.dtype != np.uint8:
        frame = np.multiply(frame, 255.0, dtype=np.float64)
        np.rint(frame, out=frame)
        frame = np.clip(frame, 0, 255, out=frame).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(frame.tobytes())


def write_mask_pgm(path, mask: np.ndarray) -> None:
    write_pnm(path, np.asarray(mask, bool) * np.uint8(255))


def remove_others(directory, pattern, keep) -> None:
    """Delete the files of directory that match pattern and are not named in keep."""
    for p in Path(directory).glob(pattern):
        if p.name not in keep:
            p.unlink()


def read_sequence(directory) -> Iterator[np.ndarray]:
    """Frames of a numbered PGM/PPM sequence in increasing index order, read lazily.

    The numeric index is the last run of digits in the file name, and the
    indices must be 0, 1, ..., n - 1, so that frame positions match them.
    The paths are listed and ordered at the call, so a sequence with no
    frames, an unindexed file name, two files with the same index, a gap
    or a first index above 0 fails there; each frame is read only when
    the iterator reaches it, and one whose dimensions differ from the
    first frame raises FrameError then.  Each frame is read by read_pnm.
    """
    directory = Path(directory)
    indexed = []
    for p in sorted(directory.glob(FRAME_GLOB)):
        nums = re.findall(r"\d+", p.stem)
        if not nums:
            raise FrameError(f"{p}: file name carries no frame index")
        indexed.append((int(nums[-1]), p))
    if not indexed:
        raise FrameError(f"{directory}: no frames matching {FRAME_GLOB!r}")
    indexed.sort()
    for (i, p), (j, q) in zip(indexed, indexed[1:]):
        if i == j:
            raise FrameError(f"{p} and {q} carry the same frame index {i}")
    for k, (i, p) in enumerate(indexed):
        if i != k:
            raise FrameError(f"{p}: frame index {i}, expected {k} (indices run 0 to n - 1)")
    return _read_frames([p for _, p in indexed])


def _read_frames(paths):
    shape = None
    for p in paths:
        frame = read_pnm(p)
        if shape is None:
            shape = frame.shape[:2]
        elif frame.shape[:2] != shape:
            raise FrameError(f"{p}: mixed dimensions {frame.shape[:2]} vs {shape}")
        yield frame


# ---------------------------------------------------------------------------
# Run-length encoding for truth masks
# ---------------------------------------------------------------------------

def rle_encode(mask: np.ndarray) -> list[int]:
    """Flat row-major run lengths, first run counts zeros (may be 0)."""
    flat = np.asarray(mask, bool).ravel()
    if flat.size == 0:
        return []
    starts = np.flatnonzero(np.diff(flat, prepend=False))  # runs after the first
    return np.diff(starts, prepend=0, append=flat.size).tolist()


def rle_decode(runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    """Inverse of rle_encode; an empty run list decodes to an all-False mask."""
    if not len(runs):
        return np.zeros(shape, dtype=bool)
    runs = np.asarray(runs)
    if runs.min() < 0 or runs.sum() != shape[0] * shape[1]:
        raise FrameError(f"RLE runs (sum {runs.sum()}, min {runs.min()}) "
                         f"do not cover {shape}")
    return np.repeat(np.arange(runs.size) % 2 == 1, runs).reshape(shape)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

@dataclass
class SceneObject:
    """One moving shape with an optional cast shadow.

    trajectory holds one (cx, cy, w, h) box per frame; albedo is an RGB
    triple; the shadow is the object silhouette shifted by shadow_offset,
    rounded to whole pixels, multiplying the background by
    SHADOW_ATTENUATION.
    """

    shape: str  # "rect" | "ellipse"
    trajectory: list[tuple[float, float, float, float]]
    albedo: tuple[float, float, float] = (0.9, 0.9, 0.9)
    shadow_offset: tuple[float, float] | None = None

    def __post_init__(self):
        if self.shape not in ("rect", "ellipse"):
            raise FrameError(f"unknown shape {self.shape!r}")


@dataclass
class SyntheticScene:
    width: int
    height: int
    background: float = 0.5
    objects: list[SceneObject] = field(default_factory=list)
    noise_sigma: float = 0.0
    seed: int = 0


def linear_trajectory(start, velocity, size, n_frames):
    """Constant-velocity (cx, cy, w, h) boxes for n_frames frames."""
    cx, cy = start
    vx, vy = velocity
    w, h = size
    return [(cx + vx * t, cy + vy * t, w, h) for t in range(n_frames)]


def _silhouette(obj: SceneObject, box, width, height, dx=0, dy=0) -> np.ndarray:
    """Pixels of the frame covered by the object at box, moved by whole
    pixels (dx, dy)."""
    cx, cy, w, h = box
    yy, xx = np.ogrid[-dy:height - dy, -dx:width - dx]
    if obj.shape == "rect":
        return (np.abs(xx - cx) <= w / 2) & (np.abs(yy - cy) <= h / 2)
    return ((xx - cx) / (w / 2)) ** 2 + ((yy - cy) / (h / 2)) ** 2 <= 1.0


def _check_in_bounds(scene: SyntheticScene, n_frames: int) -> None:
    for k, obj in enumerate(scene.objects):
        if len(obj.trajectory) < n_frames:
            raise FrameError(f"object {k}: trajectory shorter than {n_frames} frames")
        for t in range(n_frames):
            cx, cy, w, h = obj.trajectory[t]
            if (cx - w / 2 < 0 or cx + w / 2 > scene.width - 1
                    or cy - h / 2 < 0 or cy + h / 2 > scene.height - 1):
                raise FrameError(f"object {k} leaves frame at frame {t}")


def generate_synthetic(scene: SyntheticScene, n_frames: int):
    """Render a scene into RGB frames plus per-frame ground truth.

    Returns (frames, truth) where each truth record carries the frame
    index, per-object boxes and RLE motion/shadow masks.  Deterministic
    for a given scene (seeded RNG drives the noise).
    """
    if n_frames < 1:
        raise FrameError("n_frames must be >= 1")
    _check_in_bounds(scene, n_frames)
    rng = np.random.default_rng(scene.seed)
    bg_rgb = np.full((scene.height, scene.width, 3), float(scene.background))

    frames = []
    truth = []
    for t in range(n_frames):
        frame = bg_rgb.copy()
        motion = np.zeros((scene.height, scene.width), dtype=bool)
        shadow = np.zeros_like(motion)
        boxes = []
        # Shadows first so objects draw on top of any cast shadow.
        for obj in scene.objects:
            if obj.shadow_offset is None:
                continue
            dx, dy = (int(round(v)) for v in obj.shadow_offset)
            cast = _silhouette(obj, obj.trajectory[t], scene.width, scene.height, dx, dy)
            frame[cast] = bg_rgb[cast] * SHADOW_ATTENUATION
            shadow |= cast
        for k, obj in enumerate(scene.objects):
            sil = _silhouette(obj, obj.trajectory[t], scene.width, scene.height)
            frame[sil] = np.asarray(obj.albedo, dtype=np.float64)
            motion |= sil
            cx, cy, w, h = obj.trajectory[t]
            boxes.append({"id": k, "box": [cx - w / 2, cy - h / 2, w, h]})
        shadow &= ~motion
        if scene.noise_sigma > 0:
            frame = frame + rng.normal(0.0, scene.noise_sigma, frame.shape)
        frame = np.clip(frame, 0.0, 1.0)
        frames.append(frame)
        truth.append({
            "frame": t,
            "objects": boxes,
            "motion_rle": rle_encode(motion),
            "shadow_rle": rle_encode(shadow),
            "shape": [scene.height, scene.width],
        })
    return frames, truth


# ---------------------------------------------------------------------------
# JSONL records (truth, detections, tracks)
# ---------------------------------------------------------------------------

def write_jsonl(path, records) -> None:
    """Replace path atomically with one JSON line per record.

    The temp file is created with mode 0o666, so the umask applies as it
    does for open(); mkstemp would fix it at 0o600.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


write_truth = write_jsonl


def read_jsonl(path) -> list:
    """One JSON value per non-blank line; FrameError names path:line otherwise,
    or only the path where the bytes do not decode as text."""
    records = []
    with open(path) as fh:
        try:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        raise FrameError(f"{path}:{n}: not JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise FrameError(f"{path}: not text: {exc}") from None
    return records
