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
    rgb = np.repeat(gray[..., None], 3, axis=2)
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


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_validators_reject_zero_pixel_8bit_frames(shape):
    with pytest.raises(FrameError, match="needs pixels"):
        fio.validate_gray(np.zeros(shape, np.uint8))
    with pytest.raises(FrameError, match="needs pixels"):
        fio.validate_rgb(np.zeros(shape + (3,), np.uint8))


def test_validators_reject_an_8bit_frame_of_four_channels():
    rgba = np.zeros((2, 3, 4), np.uint8)
    with pytest.raises(FrameError, match=r"must be \(H, W, 3\)"):
        fio.validate_rgb(rgba)
    with pytest.raises(FrameError, match=r"must be \(H, W, 3\)"):
        to_grayscale(rgba)


def _decoded_as_before(path, shape):
    """The float read_pnm that the uint8 decode replaced, kept as its oracle:
    the file's last bytes as float64, divided by 255 in place."""
    n = int(np.prod(shape))
    pixels = np.frombuffer(path.read_bytes()[-n:], np.uint8).astype(np.float64)
    pixels /= 255.0
    return pixels.reshape(shape)


@pytest.mark.parametrize("shape", [(16, 16), (16, 16, 3)], ids=["pgm", "ppm"])
def test_8bit_decode_matches_the_float_read_bit_for_bit(tmp_path, shape):
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    pixels = levels if len(shape) == 2 else np.stack([levels, levels.T, levels[::-1]], -1)
    write_pnm(tmp_path / "f.pnm", pixels)
    frame = read_pnm(tmp_path / "f.pnm")
    oracle = _decoded_as_before(tmp_path / "f.pnm", shape)
    check = fio.validate_gray if len(shape) == 2 else fio.validate_rgb
    decoded = check(frame)
    assert decoded.dtype == np.float64 and decoded.tobytes() == oracle.tobytes()
    assert to_grayscale(frame).tobytes() == to_grayscale(oracle).tobytes()


def test_gray_max_bounded_by_channel_max():
    rng = np.random.default_rng(4)
    rgb = rng.random((6, 6, 3))
    assert to_grayscale(rgb).max() <= rgb.max(axis=2).max() + 1e-12


def test_pnm_roundtrip_gray_and_rgb(tmp_path):
    rng = np.random.default_rng(0)
    gray = np.round(rng.random((5, 9)) * 255) / 255
    write_pnm(tmp_path / "g.pgm", gray)
    assert np.allclose(read_pnm(tmp_path / "g.pgm") / 255.0, gray)
    rgb = np.round(rng.random((4, 6, 3)) * 255) / 255
    write_pnm(tmp_path / "c.ppm", rgb)
    assert np.allclose(read_pnm(tmp_path / "c.ppm") / 255.0, rgb)


@pytest.mark.parametrize("shape", [(5, 9), (4, 6, 3)], ids=["pgm", "ppm"])
def test_write_pnm_of_8bit_pixels_reproduces_the_file(tmp_path, shape):
    """A uint8 frame from read_pnm is written as it is, so it gives back the
    file write_pnm made from floats, whose levels it holds."""
    frame = np.random.default_rng(1).random(shape)
    write_pnm(tmp_path / "float.pnm", frame)
    pixels = read_pnm(tmp_path / "float.pnm")
    assert pixels.dtype == np.uint8 and pixels.shape == shape
    assert not pixels.flags.writeable
    assert np.array_equal(pixels, np.rint(frame * 255.0))
    write_pnm(tmp_path / "bytes.pnm", pixels)
    assert (tmp_path / "bytes.pnm").read_bytes() == (tmp_path / "float.pnm").read_bytes()


@pytest.mark.parametrize("shape", [(4, 6, 4), (4, 6, 1), (24,), (2, 4, 6, 3)])
def test_write_pnm_refuses_a_frame_neither_gray_nor_rgb(tmp_path, shape):
    with pytest.raises(FrameError, match=r"cannot write frame of shape"):
        write_pnm(tmp_path / "x.pnm", np.zeros(shape))
    assert not (tmp_path / "x.pnm").exists()


def test_pnm_255_maps_to_one(tmp_path):
    (tmp_path / "p.ppm").write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    frame = fio.validate_rgb(read_pnm(tmp_path / "p.ppm"))
    assert np.array_equal(frame[0, 0], [1.0, 0.0, 0.0])


def test_read_sequence_orders_by_index(tmp_path):
    for i in (2, 0, 1):
        write_pnm(tmp_path / f"frame_{i:03d}.ppm", np.full((3, 3, 3), i / 10))
    frames = list(read_sequence(tmp_path))
    assert len(frames) == 3
    values = [round(float(to_grayscale(f).mean()) * 10) for f in frames]
    assert values == [0, 1, 2]


def test_read_sequence_empty_directory_errors(tmp_path):
    with pytest.raises(FrameError):
        read_sequence(tmp_path)


def test_read_sequence_repeated_index_errors(tmp_path):
    # frame_1 and frame_001 both claim index 1; reading both would shift
    # every later frame off its index.
    for name in ("frame_1.pgm", "frame_001.pgm", "frame_2.pgm"):
        write_pnm(tmp_path / name, np.zeros((3, 3)))
    with pytest.raises(FrameError, match="frame_001.pgm and .*frame_1.pgm carry the "
                                         "same frame index 1"):
        read_sequence(tmp_path)


@pytest.mark.parametrize("indices, first_out_of_place", [
    ((0, 1, 3, 4), "frame_003.pgm: frame index 3, expected 2"),
    ((1, 2, 3), "frame_001.pgm: frame index 1, expected 0"),
], ids=["gap", "starts-at-1"])
def test_read_sequence_refuses_indices_other_than_0_to_n_minus_1(
        tmp_path, indices, first_out_of_place):
    # Reading on would put each later frame at a position below its index.
    for i in indices:
        write_pnm(tmp_path / f"frame_{i:03d}.pgm", np.zeros((3, 3)))
    with pytest.raises(FrameError, match=first_out_of_place):
        read_sequence(tmp_path)


def test_read_sequence_mixed_dimensions_errors(tmp_path):
    write_pnm(tmp_path / "frame_000.pgm", np.zeros((3, 3)))
    write_pnm(tmp_path / "frame_001.pgm", np.zeros((4, 4)))
    with pytest.raises(FrameError):
        list(read_sequence(tmp_path))


@pytest.mark.parametrize("data", [b"P5\n4 4\n255\nxx", b"P5 1 1 255"],
                         ids=["short-pixels", "no-byte-after-maxval"])
def test_read_pnm_truncated_errors(tmp_path, data):
    (tmp_path / "bad.pgm").write_bytes(data)
    with pytest.raises(FrameError, match="bad.pgm: truncated"):
        read_pnm(tmp_path / "bad.pgm")


def test_read_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# c\n3 # w\n2\n255\n" + bytes(range(0, 60, 10)))
    assert np.array_equal(read_pnm(path), np.arange(0, 60, 10).reshape(2, 3))
    path.write_bytes(b"P5\n3 2\n# 255")  # maxval only inside a trailing comment
    with pytest.raises(FrameError, match="truncated PNM header"):
        read_pnm(path)
    path.write_bytes(b"P5\n2#x 2\n255\n" + bytes(4))  # '#' inside a token is no comment
    with pytest.raises(FrameError, match="non-numeric"):
        read_pnm(path)


# Files read_pnm refuses: each is named in the FrameError.
UNREADABLE_PNM = {
    "directory": (None, "cannot read file"),
    "ascii-p2": (b"P2\n2 1\n255\n0 255\n", "unsupported magic b'P2'"),
    "ascii-p3": (b"P3\n1 1\n255\n255 0 0\n", "unsupported magic b'P3'"),
    "maxval-65535": (b"P5\n2 1\n65535\n" + bytes(4), "only maxval 255 supported"),
}


def write_unreadable_pnm(path, case):
    """Make path the unreadable file of UNREADABLE_PNM[case] (a directory
    for "directory")."""
    data = UNREADABLE_PNM[case][0]
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)


@pytest.mark.parametrize("case", sorted(UNREADABLE_PNM))
def test_read_pnm_refuses_what_it_cannot_read(tmp_path, case):
    path = tmp_path / "frame_0000.pgm"
    write_unreadable_pnm(path, case)
    with pytest.raises(FrameError, match=f"frame_0000.pgm: {UNREADABLE_PNM[case][1]}"):
        read_pnm(path)


def test_read_sequence_refuses_a_frame_name_without_an_index(tmp_path):
    write_pnm(tmp_path / "frame_0000.ppm", np.zeros((3, 3, 3)))
    write_pnm(tmp_path / "frame_x.ppm", np.zeros((3, 3, 3)))
    with pytest.raises(FrameError, match="frame_x.ppm: file name carries no frame index"):
        read_sequence(tmp_path)


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


@pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
def test_rle_roundtrip_of_an_empty_mask(shape):
    mask = np.zeros(shape, bool)
    assert rle_encode(mask) == []
    decoded = rle_decode(rle_encode(mask), shape)
    assert decoded.shape == shape and decoded.dtype == bool


def test_rle_decode_of_no_runs_is_an_all_false_mask():
    mask = rle_decode([], (3, 4))
    assert mask.shape == (3, 4) and mask.dtype == bool and not mask.any()


def test_rle_runs_start_with_zeros():
    assert rle_encode(np.array([[1, 1, 0], [0, 1, 1]])) == [0, 2, 2, 2]
    assert rle_encode(np.zeros((2, 3))) == [6]
    assert rle_encode(np.ones((2, 3))) == [0, 6]


@pytest.mark.parametrize("runs", [[5, 6], [5, 2, 6], [5, -2, 9]],
                         ids=["short", "long", "negative-run"])
def test_rle_decode_rejects_runs_not_covering_the_shape(runs):
    with pytest.raises(FrameError, match="RLE"):
        rle_decode(runs, (3, 4))


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


def test_scene_object_refuses_an_unknown_shape():
    with pytest.raises(FrameError, match="unknown shape 'triangle'"):
        SceneObject(shape="triangle", trajectory=[(8, 8, 4, 4)])


def test_synthetic_refuses_a_trajectory_shorter_than_the_sequence():
    scene = _single_rect_scene(3)
    with pytest.raises(FrameError, match="object 0: trajectory shorter than 5 frames"):
        generate_synthetic(scene, 5)


@pytest.mark.parametrize("n_frames", [0, -1])
def test_synthetic_needs_a_frame(n_frames):
    with pytest.raises(FrameError, match="n_frames must be >= 1"):
        generate_synthetic(_single_rect_scene(3), n_frames)


def test_synthetic_shadow_attenuates_background():
    obj = SceneObject(shape="rect",
                      trajectory=[(16, 16, 8, 8)],
                      albedo=(0.9, 0.2, 0.2),
                      shadow_offset=(6, 6))
    scene = SyntheticScene(width=32, height=32, background=0.6, objects=[obj])
    frames, truth = generate_synthetic(scene, 1)
    shadow = rle_decode(truth[0]["shadow_rle"], (32, 32))
    motion = rle_decode(truth[0]["motion_rle"], (32, 32))
    assert shadow.sum() > 0
    assert not (shadow & motion).any()  # truth marks object pixels only
    assert np.allclose(frames[0][shadow], 0.3)


def _scatter_shadow(sil, offset):
    """Reference: each silhouette pixel moved by the rounded offset, the
    ones landing outside the frame dropped."""
    height, width = sil.shape
    cast = np.zeros_like(sil)
    ys, xs = np.nonzero(sil)
    ys2 = ys + int(round(offset[1]))
    xs2 = xs + int(round(offset[0]))
    keep = (ys2 >= 0) & (ys2 < height) & (xs2 >= 0) & (xs2 < width)
    cast[ys2[keep], xs2[keep]] = True
    return cast


@pytest.mark.parametrize("shape", ["rect", "ellipse"])
@pytest.mark.parametrize("offset", [
    (6, 4), (-5, 3), (4, -7), (-6, -5), (2.6, -1.4),  # inside the frame
    (25, 0), (-12, 0), (0, 12), (0, -12), (-12, -10),  # partly outside
    (45, 0), (-25, 0), (0, 20), (0, -20)])  # wholly outside
def test_cast_shadow_is_the_scattered_silhouette(shape, offset):
    box = (14.5, 11.0, 9.0, 7.0)  # spans x 10..19, y 7.5..14.5 of a 40 x 24 frame
    albedo = (0.9, 0.2, 0.2)
    obj = SceneObject(shape=shape, trajectory=[box], albedo=albedo,
                      shadow_offset=offset)
    scene = SyntheticScene(width=40, height=24, background=0.6, objects=[obj])
    frames, truth = generate_synthetic(scene, 1)
    sil = rle_decode(truth[0]["motion_rle"], (24, 40))
    cast = _scatter_shadow(sil, offset)
    assert np.array_equal(rle_decode(truth[0]["shadow_rle"], (24, 40)), cast & ~sil)
    expected = np.full((24, 40, 3), 0.6)
    expected[cast] *= fio.SHADOW_ATTENUATION
    expected[sil] = albedo
    assert np.array_equal(frames[0], expected)


def test_write_jsonl_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        fio.write_jsonl(tmp_path / "a.jsonl", [{"frame": 0}])
    finally:
        os.umask(old)
    assert (tmp_path / "a.jsonl").stat().st_mode & 0o777 == 0o644
    assert fio.read_jsonl(tmp_path / "a.jsonl") == [{"frame": 0}]
