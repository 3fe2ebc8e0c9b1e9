"""The streaming detect -> seed -> track -> annotate path of vvtrack.pipeline."""

import json
import tracemalloc

import numpy as np
import pytest

from vvtrack import background as bg
from vvtrack import frames as fio
from vvtrack import pipeline as pl
from vvtrack import scenes
from vvtrack.cli import main
from vvtrack.config import merge_config

SMALL_TRACKER = {"n_particles": 8, "n_iters": 2, "track_scale": False}


def _write_two_square_sequence(directory, n_frames, size=(240, 320), seed=0):
    """Two 24-px squares bouncing across a noisy gray frame, one PGM at a time."""
    directory.mkdir()
    h, w = size
    rng = np.random.default_rng(seed)
    span = w - 64
    for t in range(n_frames):
        x = 20 + span - abs(span - 4 * t % (2 * span))  # 4 px/frame, reflected
        frame = 0.55 + rng.normal(0.0, 0.02, size)
        frame[60:84, x:x + 24] = 0.9
        frame[160:184, w - 24 - x:w - x] = 0.15
        fio.write_pnm(directory / f"frame_{t:04d}.pgm", np.clip(frame, 0.0, 1.0))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def short_and_long(tmp_path_factory):
    """A 240-frame 240x320 sequence and a directory linking its first 30 frames."""
    root = tmp_path_factory.mktemp("stream")
    long = root / "long"
    _write_two_square_sequence(long, 240)
    short = root / "short"
    short.mkdir()
    for path in sorted(long.glob("frame_*.pgm"))[:30]:
        (short / path.name).symlink_to(path)
    cfg = {"background": {"burn_in": 5}, "tracker": SMALL_TRACKER}
    (root / "config.json").write_text(json.dumps(cfg))
    return root, short, long


def test_pipeline_memory_does_not_grow_with_sequence_length(short_and_long):
    root, short, long = short_and_long
    cfg = merge_config(json.loads((root / "config.json").read_text()))
    # A first run pays the lazy scipy imports, which would swamp the short run.
    pl.run_pipeline(short, root / "out_warm", cfg)
    peaks = {}
    for name, seq in (("short", short), ("long", long)):
        peaks[name] = _peak_bytes(lambda: pl.run_pipeline(seq, root / f"out_{name}", cfg))
    assert len(list((root / "out_long" / "annotated").glob("*.ppm"))) == 240
    # Holding the sequence would add 0.6 MB per float64 frame: 130 MB more.
    assert peaks["long"] <= 1.1 * peaks["short"], peaks


def test_detect_memory_does_not_grow_with_sequence_length(short_and_long):
    root, short, long = short_and_long

    def detect(name, seq):
        return main(["detect", "--config", str(root / "config.json"), "--in", str(seq),
                     "--out", str(root / f"det_{name}")])

    detect("warm", short)  # pays the lazy scipy imports, which would swamp "short"
    peaks = {name: _peak_bytes(lambda: detect(name, seq))
             for name, seq in (("short", short), ("long", long))}
    assert len(fio.read_jsonl(root / "det_long" / "detections.jsonl")) == 240
    assert peaks["long"] <= 1.1 * peaks["short"], peaks


def test_seed_search_memory_does_not_grow_with_the_wait(tmp_path):
    """Objects that appear 20 or 120 frames after burn-in cost the seed
    search the same memory: it keeps no detection before the seed frame."""
    burn_in, size, waits = 5, (120, 160), (20, 120)
    cfg = merge_config({"background": {"burn_in": burn_in}, "tracker": SMALL_TRACKER})
    for wait in waits:
        seq = tmp_path / f"wait_{wait}"
        seq.mkdir()
        rng = np.random.default_rng(0)
        appear = burn_in + wait
        for t in range(appear + 3):
            frame = 0.55 + rng.normal(0.0, 0.02, size)
            if t >= appear:
                x = 20 + 4 * (t - appear)
                frame[30:54, x:x + 24] = 0.9
                frame[70:94, 120 - x:144 - x] = 0.15
            fio.write_pnm(seq / f"frame_{t:04d}.pgm", np.clip(frame, 0.0, 1.0))
    # A first run pays the lazy scipy imports, which would swamp the masks.
    pl.run_pipeline(tmp_path / "wait_20", tmp_path / "warm", cfg)
    peaks = {}
    for wait in waits:
        seq, out = tmp_path / f"wait_{wait}", tmp_path / f"out_{wait}"
        peaks[wait] = _peak_bytes(lambda: pl.run_pipeline(seq, out, cfg))
        records = fio.read_jsonl(out / "tracks.jsonl")
        assert min(r["frame"] for r in records) == burn_in + wait
    # Each detection held would add a 19 KB mask: 1.9 MB more for 100 frames.
    assert peaks[120] <= 1.1 * peaks[20], peaks


def test_pipeline_detects_no_frame_after_the_seed(tmp_path, monkeypatch):
    seq = tmp_path / "seq"
    assert main(["generate", "--out", str(seq), "--scene", "two_rect",
                 "--frames", "16", "--seed", "0"]) == 0
    cfg = merge_config({"background": {"burn_in": 3}, "tracker": SMALL_TRACKER})
    calls = {"motion_masks": 0, "update_background": 0}

    def counting(name):
        original = getattr(bg, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(bg, name, counting(name))
    records, _ = pl.run_pipeline(seq, tmp_path / "out", cfg, seed=0)
    start = min(r.frame for r in records)
    assert 3 <= start < 15 and max(r.frame for r in records) == 15
    # Frames burn_in .. start are differenced against their predecessors, no
    # earlier or later one; frames 1 .. start - 1 each update the background,
    # and the seed frame's update, which nothing reads, is not made.
    assert calls["motion_masks"] == start - 3 + 1
    assert calls["update_background"] == start - 1


def test_pipeline_reads_each_frame_through_read_pnm_once_per_pass(tmp_path, monkeypatch):
    n = 16
    seq = tmp_path / "seq"
    assert main(["generate", "--out", str(seq), "--scene", "two_rect",
                 "--frames", str(n), "--seed", "0"]) == 0
    cfg = merge_config({"background": {"burn_in": 3}, "tracker": SMALL_TRACKER})
    read = []
    original = fio.read_pnm

    def counting(path):
        read.append(path)
        return original(path)

    monkeypatch.setattr(fio, "read_pnm", counting)
    records, _ = pl.run_pipeline(seq, tmp_path / "out", cfg, seed=0)
    start = min(r.frame for r in records)
    assert 3 <= start < n - 1
    # detection up to the seed frame, tracking on from the frame after it,
    # annotation of all: each frame twice, once per pass
    assert len(read) == (start + 1) + (n - start - 1) + n
    assert sorted(read) == sorted(sorted(seq.glob("frame_*.ppm")) * 2)


def test_detect_sequence_stops_reading_at_the_first_accepted_result():
    rng = np.random.default_rng(0)
    read = []

    def frames():
        for t in range(10):
            read.append(t)
            yield rng.random((16, 16))

    results = pl.detect_sequence(frames(), merge_config({}),
                                 stop=lambda res: res.frame == 4)
    assert [r.frame for r in results] == [4]
    assert read == [0, 1, 2, 3, 4]
    read.clear()
    assert pl.detect_sequence(frames(), merge_config({}), stop=lambda res: False) == []
    assert read == list(range(10))


@pytest.mark.parametrize("scene, shadow", [("two_rect", False), ("shadowed", True)])
def test_detection_from_a_later_frame_matches_the_run_from_frame_0(scene, shadow):
    n = 12
    frames, _ = fio.generate_synthetic(scenes.build_scene(scene, n, seed=0), n)
    cfg = merge_config({"shadow": {"enabled": shadow}})
    full = pl.detect_sequence(frames, cfg)
    assert [r.frame for r in full] == list(range(n))
    assert all(r.blobs for r in full[7:])
    for first in (0, 1, 2, 7, n, n + 3):
        later = pl.detect_sequence(frames, cfg, first=first)
        assert [r.frame for r in later] == list(range(first, n))
        for got, want in zip(later, full[first:]):
            assert got.T_b == want.T_b
            assert np.array_equal(got.mask, want.mask)
            assert got.blobs == want.blobs


@pytest.mark.parametrize("first", [0, 5])
def test_box_moments_are_computed_once_per_frame_from_first_minus_1(first, monkeypatch):
    n = 12
    frames, _ = fio.generate_synthetic(scenes.build_scene("two_rect", n, seed=0), n)
    computed = []
    box_moments = bg.box_moments

    def counting(f, w=1):
        computed.append(f)
        return box_moments(f, w)

    monkeypatch.setattr(bg, "box_moments", counting)
    results = pl.detect_sequence(frames, merge_config({}), first=first)
    assert [r.frame for r in results] == list(range(first, n))
    grays = [fio.to_grayscale(f) for f in frames[max(first - 1, 0):]]
    assert len(computed) == len(grays)
    assert all(np.array_equal(a, b) for a, b in zip(computed, grays))


def _gray_to_rgb(gray):
    return np.repeat(gray[..., None], 3, axis=2)


def test_write_annotated_clips_boxes_and_skips_off_frame_ones(tmp_path):
    from vvtrack.tracker import TrackRecord

    def read(t):
        return fio.read_pnm(tmp_path / f"frame_{t:04d}.ppm")

    pixels = np.full((20, 30), 128, np.uint8)
    blank = _gray_to_rgb(pixels)
    off = [TrackRecord(0, 0, cx, cy, 1.0, 10.0, 6.0, 1.0)
           for cx, cy in [(-20.0, 10.0), (45.0, 10.0), (15.0, -9.0), (15.0, 30.0)]]
    clipped = TrackRecord(1, 1, -2.0, 17.0, 1.0, 10.0, 8.0, 1.0)  # x -7..3, y 13..21
    pl.write_annotated(tmp_path, [pixels, pixels], off + [clipped])
    assert np.array_equal(read(0), blank)
    expected = blank.copy()
    color = pl.ID_COLORS[1]
    expected[13, 0:4] = expected[19, 0:4] = color
    expected[13:20, 0] = expected[13:20, 3] = color
    assert np.array_equal(read(1), expected)


def _annotated_in_float(frame, records):
    """The float drawing write_annotated replaced, kept as its oracle: the
    [0, 1] frame as an RGB canvas with each box drawn in its ID_COLORS entry
    over 255, quantized only when written."""
    canvas = _gray_to_rgb(frame) if frame.ndim == 2 else frame.copy()
    fh, fw = frame.shape[:2]
    for r in records:
        color = pl.ID_COLORS[r.id % len(pl.ID_COLORS)] / 255.0
        left, right = r.cx - r.w / 2, r.cx + r.w / 2
        top, bottom = r.cy - r.h / 2, r.cy + r.h / 2
        if not (right >= 0 and bottom >= 0 and left <= fw - 1 and top <= fh - 1):
            continue
        x0, x1 = int(max(0, left)), int(min(fw - 1, right))
        y0, y1 = int(max(0, top)), int(min(fh - 1, bottom))
        canvas[y0, x0:x1 + 1] = color
        canvas[y1, x0:x1 + 1] = color
        canvas[y0:y1 + 1, x0] = color
        canvas[y0:y1 + 1, x1] = color
    return canvas


@pytest.mark.parametrize("shape", [(20, 30), (20, 30, 3)], ids=["gray", "rgb"])
def test_write_annotated_on_8bit_pixels_matches_the_float_drawing(tmp_path, shape):
    from vvtrack.tracker import TrackRecord
    rng = np.random.default_rng(len(shape))
    pixels = rng.integers(0, 256, shape, dtype=np.uint8)
    # ids 0..9 wrap the palette; boxes inside, fractional, clipped on each
    # side, wider than the frame and wholly off it
    boxes = [(15.0, 10.0, 8.0, 6.0), (7.3, 5.6, 5.5, 3.25), (-2.0, 10.0, 10.0, 8.0),
             (28.5, 10.0, 9.0, 4.0), (15.0, -1.5, 6.0, 7.0), (15.0, 20.0, 6.0, 5.0),
             (15.0, 10.0, 50.0, 40.0), (-20.0, 10.0, 10.0, 6.0), (45.0, 10.0, 10.0, 6.0),
             (15.0, 30.0, 10.0, 6.0)]
    records = [TrackRecord(t, k, cx, cy, 1.0, w, h, 1.0)
               for t in range(2) for k, (cx, cy, w, h) in enumerate(boxes[t::2])]
    pl.write_annotated(tmp_path / "a", [pixels, pixels], records)
    for t in range(2):
        expected = _annotated_in_float(pixels / 255.0, [r for r in records if r.frame == t])
        fio.write_pnm(tmp_path / "oracle.ppm", expected)
        got = (tmp_path / "a" / f"frame_{t:04d}.ppm").read_bytes()
        assert got == (tmp_path / "oracle.ppm").read_bytes()
