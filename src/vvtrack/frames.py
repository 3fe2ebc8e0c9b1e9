"""Frame I/O, grayscale conversion and synthetic ground-truthed sequences.

Frames are numpy float64 arrays with intensities in [0, 1]: grayscale
frames are (H, W), RGB frames are (H, W, 3).  Files on disk are binary
8-bit PGM (P5) / PPM (P6) with maxval 255.
"""

from __future__ import annotations

import json
import os
import re
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


class FrameError(Exception):
    """Bad frame data or an unreadable/malformed image file."""


def validate_gray(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise FrameError(f"grayscale frame must be 2-D, got shape {frame.shape}")
    if not (frame.size and frame.min() >= 0.0 and frame.max() <= 1.0):
        raise FrameError("grayscale frame needs pixels, with intensities in [0, 1]")
    return frame


def validate_rgb(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise FrameError(f"RGB frame must be (H, W, 3), got shape {frame.shape}")
    if not (frame.size and frame.min() >= 0.0 and frame.max() <= 1.0):
        raise FrameError("RGB frame needs pixels, with intensities in [0, 1]")
    return frame


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """Luma conversion: 0.299 R + 0.587 G + 0.114 B, clamped to [0, 1].

    A 2-D frame is already grayscale: it is validated and returned as is.
    """
    if np.ndim(frame) == 2:
        return validate_gray(frame)
    frame = validate_rgb(frame)
    wr, wg, wb = GRAY_WEIGHTS
    gray = wr * frame[..., 0] + wg * frame[..., 1] + wb * frame[..., 2]
    return np.clip(gray, 0.0, 1.0)


def gray_to_rgb(gray: np.ndarray) -> np.ndarray:
    gray = validate_gray(gray)
    return np.repeat(gray[..., None], 3, axis=2)


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

def _read_pnm_header(data: bytes, path):
    # Header tokens may be separated by whitespace and '#' comments.
    pos = 0
    tokens = []
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FrameError(f"{path}: truncated PNM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    magic = tokens[0]
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FrameError(f"{path}: non-numeric PNM header fields") from None
    return magic, width, height, maxval, pos


def read_pnm(path) -> np.ndarray:
    """Read a binary P5 (gray) or P6 (RGB) file into a [0, 1] float array."""
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
    pixels = raw[:n].astype(np.float64) / 255.0
    if channels == 1:
        return pixels.reshape(height, width)
    return pixels.reshape(height, width, 3)


def write_pnm(path, frame: np.ndarray) -> None:
    """Write a [0, 1] float array as binary P5 (2-D) or P6 (3-D) with maxval 255."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 2:
        magic = b"P5"
        h, w = frame.shape
    elif frame.ndim == 3 and frame.shape[2] == 3:
        magic = b"P6"
        h, w = frame.shape[:2]
    else:
        raise FrameError(f"cannot write frame of shape {frame.shape}")
    data = np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def write_mask_pgm(path, mask: np.ndarray) -> None:
    write_pnm(path, np.where(np.asarray(mask, bool), 1.0, 0.0))


def read_sequence(directory, pattern: str = "frame_*.p?m") -> list[np.ndarray]:
    """Load a numbered PGM/PPM sequence in strictly increasing index order.

    The numeric index is the last run of digits in the file name.
    """
    directory = Path(directory)
    paths = sorted(directory.glob(pattern))
    indexed = []
    for p in paths:
        nums = re.findall(r"\d+", p.stem)
        if not nums:
            raise FrameError(f"{p}: file name carries no frame index")
        indexed.append((int(nums[-1]), p))
    if not indexed:
        raise FrameError(f"{directory}: no frames matching {pattern!r}")
    indexed.sort()
    frames = []
    shape = None
    for _, p in indexed:
        frame = read_pnm(p)
        if shape is None:
            shape = frame.shape[:2]
        elif frame.shape[:2] != shape:
            raise FrameError(f"{p}: mixed dimensions {frame.shape[:2]} vs {shape}")
        frames.append(frame)
    return frames


# ---------------------------------------------------------------------------
# Run-length encoding for truth masks
# ---------------------------------------------------------------------------

def rle_encode(mask: np.ndarray) -> list[int]:
    """Flat row-major run lengths, first run counts zeros (may be 0)."""
    flat = np.asarray(mask, bool).ravel()
    if flat.size == 0:
        return []
    changes = np.flatnonzero(np.diff(flat.astype(np.int8)))
    bounds = np.concatenate(([0], changes + 1, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return runs


def rle_decode(runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    total = shape[0] * shape[1]
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    if pos != total and runs:
        raise FrameError(f"RLE length {pos} does not cover {shape}")
    return flat.reshape(shape)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

@dataclass
class SceneObject:
    """One moving shape with an optional cast shadow.

    trajectory holds one (cx, cy, w, h) box per frame; albedo is an RGB
    triple; the shadow is the object silhouette shifted by shadow_offset,
    multiplying the background by shadow_attenuation.
    """

    shape: str  # "rect" | "ellipse"
    trajectory: list[tuple[float, float, float, float]]
    albedo: tuple[float, float, float] = (0.9, 0.9, 0.9)
    shadow_offset: tuple[float, float] | None = None
    shadow_attenuation: float = 0.5

    def __post_init__(self):
        if self.shape not in ("rect", "ellipse"):
            raise FrameError(f"unknown shape {self.shape!r}")
        if self.shadow_offset is not None and not 0.0 < self.shadow_attenuation < 1.0:
            raise FrameError("shadow attenuation must lie in (0, 1)")


@dataclass
class SyntheticScene:
    width: int
    height: int
    background: float | np.ndarray = 0.5
    objects: list[SceneObject] = field(default_factory=list)
    noise_sigma: float = 0.0
    seed: int = 0


def linear_trajectory(start, velocity, size, n_frames):
    """Constant-velocity (cx, cy, w, h) boxes for n_frames frames."""
    cx, cy = start
    vx, vy = velocity
    w, h = size
    return [(cx + vx * t, cy + vy * t, w, h) for t in range(n_frames)]


def _silhouette(obj: SceneObject, box, width, height) -> np.ndarray:
    cx, cy, w, h = box
    yy, xx = np.mgrid[0:height, 0:width]
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
    bg = np.asarray(scene.background, dtype=np.float64)
    if bg.ndim == 0:
        bg = np.full((scene.height, scene.width), float(bg))
    bg_rgb = np.repeat(bg[..., None], 3, axis=2)

    frames = []
    truth = []
    for t in range(n_frames):
        frame = bg_rgb.copy()
        motion = np.zeros((scene.height, scene.width), dtype=bool)
        shadow = np.zeros_like(motion)
        boxes = []
        sils = []
        for obj in scene.objects:
            sils.append(_silhouette(obj, obj.trajectory[t], scene.width, scene.height))
        # Shadows first so objects draw on top of any cast shadow.
        for obj, sil in zip(scene.objects, sils):
            if obj.shadow_offset is None:
                continue
            dx, dy = obj.shadow_offset
            cast = np.zeros_like(sil)
            ys, xs = np.nonzero(sil)
            ys2 = ys + int(round(dy))
            xs2 = xs + int(round(dx))
            keep = (ys2 >= 0) & (ys2 < scene.height) & (xs2 >= 0) & (xs2 < scene.width)
            cast[ys2[keep], xs2[keep]] = True
            frame[cast] = bg_rgb[cast] * obj.shadow_attenuation
            shadow |= cast
        for k, (obj, sil) in enumerate(zip(scene.objects, sils)):
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
    """One JSON value per non-blank line; FrameError names path:line otherwise."""
    records = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise FrameError(f"{path}:{n}: not JSON: {exc}") from None
    return records
