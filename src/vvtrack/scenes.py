"""Named synthetic scenes (64x64 or 96x64 frames) for the CLI and the tests."""

from __future__ import annotations

from .frames import SceneObject, SyntheticScene, linear_trajectory


def _moving(n_frames, shape, start, vx, size, albedo, **shadow) -> SceneObject:
    """An object moving along x at vx px/frame from the center start."""
    return SceneObject(shape=shape, albedo=albedo, **shadow,
                       trajectory=linear_trajectory(start, (vx, 0), size, n_frames))


def static(n_frames: int, seed: int = 0, noise: float = 0.02) -> SyntheticScene:
    """Empty noisy background; every truth motion mask is empty."""
    return SyntheticScene(width=64, height=64, background=0.5,
                          noise_sigma=noise, seed=seed)


def one_rect(n_frames: int, seed: int = 0, noise: float = 0.02) -> SyntheticScene:
    """One rectangle drifting right at 2 px/frame (slower past 20 frames)."""
    vx = 2 if n_frames <= 20 else 40 / n_frames
    obj = _moving(n_frames, "rect", (12, 32), vx, (10, 10), (0.75, 0.68, 0.72))
    return SyntheticScene(width=64, height=64, background=0.5, objects=[obj],
                          noise_sigma=noise, seed=seed)


def cross2(n_frames: int, seed: int = 0, noise: float = 0.01) -> SyntheticScene:
    """Two distinct-appearance rectangles crossing paths once."""
    vx = 72 / max(n_frames - 1, 1)
    objects = [_moving(n_frames, "rect", (12, 28), vx, (12, 12), (0.95, 0.9, 0.2)),
               _moving(n_frames, "ellipse", (84, 36), -vx, (12, 12), (0.15, 0.25, 0.9))]
    return SyntheticScene(width=96, height=64, background=0.55, objects=objects,
                          noise_sigma=noise, seed=seed)


def two_rect(n_frames: int, seed: int = 0, noise: float = 0.01) -> SyntheticScene:
    """Two well-separated objects on parallel tracks (no crossing)."""
    vx = 68 / max(n_frames - 1, 1)
    objects = [_moving(n_frames, "rect", (14, 16), vx, (12, 12), (0.9, 0.85, 0.2)),
               _moving(n_frames, "ellipse", (82, 48), -vx, (14, 12), (0.15, 0.2, 0.85))]
    return SyntheticScene(width=96, height=64, background=0.55, objects=objects,
                          noise_sigma=noise, seed=seed)


def shadowed(n_frames: int, seed: int = 0, noise: float = 0.0) -> SyntheticScene:
    """One colored rectangle casting an offset multiplicative shadow."""
    vx = 28 / (n_frames - 1) if n_frames > 1 else 0
    obj = _moving(n_frames, "rect", (14, 26), vx, (12, 12), (0.85, 0.3, 0.25),
                  shadow_offset=(4, 8))
    return SyntheticScene(width=64, height=64, background=0.6, objects=[obj],
                          noise_sigma=noise, seed=seed)


SCENES = {f.__name__: f for f in (static, one_rect, two_rect, cross2, shadowed)}


def build_scene(name: str, n_frames: int, seed: int = 0, **kwargs):
    if name not in SCENES:
        raise KeyError(f"unknown scene {name!r}; choose from {sorted(SCENES)}")
    return SCENES[name](n_frames, seed=seed, **kwargs)
