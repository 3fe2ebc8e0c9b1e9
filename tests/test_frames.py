import os

import numpy as np
import pytest

from vvtrack import frames as fio
from vvtrack.frames import (FrameError, SceneObject, SyntheticScene,
                            generate_synthetic, linear_trajectory, read_pnm,
                            read_sequence, rle_decode, rle_encode,
                            to_grayscale, write_pnm)


def test_grayscale_coefficients():
    red = np.zeros((2, 2, 3))
    red[..., 0] = 1.0
    assert np.allclose(to_grayscale(red), 0.299)
    white = np.ones((2, 2, 3))
    assert np.allclose(to_grayscale(white), 1.0)
    black = np.zeros((2, 2, 3))
    assert np.allclose(to_grayscale(black), 0.0)


def test_grayscale_idempotent_on_replicated_gray():
    rng = np.random.default_rng(3)
    gray = rng.random((5, 7))
    rgb = fio.gray_to_rgb(gray)
    assert np.allclose(to_grayscale(rgb), gray, atol=1e-12)
    assert np.array_equal(to_grayscale(gray), gray)  # 2-D passes through
    with pytest.raises(FrameError):
        to_grayscale(gray + 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
def test_validators_reject_non_finite_and_out_of_range(bad):
    gray = np.full((2, 3), 0.5)
    gray[1, 2] = bad
    with pytest.raises(FrameError, match="intensities in"):
        fio.validate_gray(gray)
    rgb = np.full((2, 3, 3), 0.5)
    rgb[0, 1, 2] = bad
    with pytest.raises(FrameError, match="intensities in"):
        fio.validate_rgb(rgb)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_validators_reject_zero_pixel_frames(shape):
    with pytest.raises(FrameError, match="needs pixels"):
        fio.validate_gray(np.zeros(shape))
    with pytest.raises(FrameError, match="needs pixels"):
        fio.validate_rgb(np.zeros(shape + (3,)))


def test_gray_max_bounded_by_channel_max():
    rng = np.random.default_rng(4)
    rgb = rng.random((6, 6, 3))
    assert to_grayscale(rgb).max() <= rgb.max(axis=2).max() + 1e-12


def test_pnm_roundtrip_gray_and_rgb(tmp_path):
    rng = np.random.default_rng(0)
    gray = np.round(rng.random((5, 9)) * 255) / 255
    write_pnm(tmp_path / "g.pgm", gray)
    assert np.allclose(read_pnm(tmp_path / "g.pgm"), gray)
    rgb = np.round(rng.random((4, 6, 3)) * 255) / 255
    write_pnm(tmp_path / "c.ppm", rgb)
    assert np.allclose(read_pnm(tmp_path / "c.ppm"), rgb)


def test_pnm_255_maps_to_one(tmp_path):
    (tmp_path / "p.ppm").write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    frame = read_pnm(tmp_path / "p.ppm")
    assert np.allclose(frame[0, 0], [1.0, 0.0, 0.0])


def test_read_sequence_orders_by_index(tmp_path):
    for i in (2, 0, 1):
        write_pnm(tmp_path / f"frame_{i:03d}.ppm", np.full((3, 3, 3), i / 10))
    frames = read_sequence(tmp_path, "frame_*.ppm")
    assert len(frames) == 3
    values = [round(float(f.mean()) * 10) for f in frames]
    assert values == [0, 1, 2]


def test_read_sequence_empty_directory_errors(tmp_path):
    with pytest.raises(FrameError):
        read_sequence(tmp_path, "frame_*.ppm")


def test_read_sequence_mixed_dimensions_errors(tmp_path):
    write_pnm(tmp_path / "frame_000.pgm", np.zeros((3, 3)))
    write_pnm(tmp_path / "frame_001.pgm", np.zeros((4, 4)))
    with pytest.raises(FrameError):
        read_sequence(tmp_path, "frame_*.pgm")


def test_read_pnm_truncated_errors(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    with pytest.raises(FrameError):
        read_pnm(tmp_path / "bad.pgm")


@pytest.mark.parametrize("width,height", [(-4, 4), (0, 4), (4, -4)],
                         ids=["-4x4", "0x4", "4x-4"])
def test_read_pnm_bad_dimensions_errors(tmp_path, width, height):
    (tmp_path / "bad.pgm").write_bytes(b"P5\n%d %d\n255\n" % (width, height)
                                       + bytes(64))
    with pytest.raises(FrameError, match="bad.pgm"):
        read_pnm(tmp_path / "bad.pgm")


def test_rle_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mask = rng.random((7, 11)) > 0.6
        assert np.array_equal(rle_decode(rle_encode(mask), mask.shape), mask)


def _single_rect_scene(n, velocity=(2, 0)):
    obj = SceneObject(shape="rect",
                      trajectory=linear_trajectory((12, 16), velocity, (8, 8), n),
                      albedo=(0.9, 0.9, 0.9))
    return SyntheticScene(width=64, height=32, background=0.4, objects=[obj])


def test_synthetic_static_truth_empty():
    scene = SyntheticScene(width=16, height=16, background=0.3)
    frames, truth = generate_synthetic(scene, 5)
    assert len(frames) == 5
    for rec in truth:
        assert rle_decode(rec["motion_rle"], (16, 16)).sum() == 0


def test_synthetic_rect_centers_advance():
    frames, truth = generate_synthetic(_single_rect_scene(5), 5)
    centers = []
    for rec in truth:
        x, y, w, h = rec["objects"][0]["box"]
        centers.append((x + w / 2, y + h / 2))
    for (x0, y0), (x1, y1) in zip(centers, centers[1:]):
        assert (x1 - x0, y1 - y0) == (2, 0)


def test_synthetic_deterministic():
    scene = _single_rect_scene(4)
    scene.noise_sigma = 0.05
    scene.seed = 42
    f1, t1 = generate_synthetic(scene, 4)
    f2, t2 = generate_synthetic(scene, 4)
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)
    assert t1 == t2


def test_synthetic_out_of_bounds_errors():
    scene = _single_rect_scene(40)  # the rect walks off the 64-px frame
    with pytest.raises(FrameError):
        generate_synthetic(scene, 40)


def test_synthetic_shadow_attenuates_background():
    obj = SceneObject(shape="rect",
                      trajectory=[(16, 16, 8, 8)],
                      albedo=(0.9, 0.2, 0.2),
                      shadow_offset=(6, 6), shadow_attenuation=0.5)
    scene = SyntheticScene(width=32, height=32, background=0.6, objects=[obj])
    frames, truth = generate_synthetic(scene, 1)
    shadow = rle_decode(truth[0]["shadow_rle"], (32, 32))
    motion = rle_decode(truth[0]["motion_rle"], (32, 32))
    assert shadow.sum() > 0
    assert not (shadow & motion).any()  # truth marks object pixels only
    assert np.allclose(frames[0][shadow], 0.3)


def test_write_jsonl_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        fio.write_jsonl(tmp_path / "a.jsonl", [{"frame": 0}])
    finally:
        os.umask(old)
    assert (tmp_path / "a.jsonl").stat().st_mode & 0o777 == 0o644
    assert fio.read_jsonl(tmp_path / "a.jsonl") == [{"frame": 0}]
