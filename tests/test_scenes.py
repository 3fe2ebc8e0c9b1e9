"""Geometry of the named scenes, pinned as literal values.

The benchmark's track_cross2 and shadow_detect workloads build their inputs
from these scenes, so a change here changes what the benchmark measures.
Truth boxes are (x, y, w, h) with (x, y) the top-left corner.
"""

import pytest

from vvtrack import scenes
from vvtrack.frames import generate_synthetic

# scene -> (frame shape, background, first truth box of every object)
START = {
    "static": ((64, 64, 3), 0.5, []),
    "one_rect": ((64, 64, 3), 0.5, [[7.0, 27.0, 10, 10]]),
    "two_rect": ((64, 96, 3), 0.55, [[8.0, 10.0, 12, 12], [75.0, 42.0, 14, 12]]),
    "cross2": ((64, 96, 3), 0.55, [[6.0, 22.0, 12, 12], [78.0, 30.0, 12, 12]]),
    "shadowed": ((64, 64, 3), 0.6, [[8.0, 20.0, 12, 12]]),
}
TWO_RECT_END = [[76.0, 10.0, 12, 12], [7.0, 42.0, 14, 12]]
CROSS2_END = [[78.0, 22.0, 12, 12], [6.0, 30.0, 12, 12]]


@pytest.mark.parametrize("name, n, last", [
    ("static", 1, []), ("static", 20, []), ("static", 21, []), ("static", 60, []),
    ("one_rect", 1, [[7.0, 27.0, 10, 10]]),
    ("one_rect", 20, [[45.0, 27.0, 10, 10]]),
    ("one_rect", 21, [[45.095238095238095, 27.0, 10, 10]]),
    ("one_rect", 60, [[46.33333333333333, 27.0, 10, 10]]),
    ("two_rect", 1, START["two_rect"][2]), ("two_rect", 20, TWO_RECT_END),
    ("two_rect", 21, TWO_RECT_END), ("two_rect", 60, TWO_RECT_END),
    ("cross2", 1, START["cross2"][2]), ("cross2", 20, CROSS2_END),
    ("cross2", 21, CROSS2_END), ("cross2", 60, CROSS2_END),
    ("shadowed", 1, [[8.0, 20.0, 12, 12]]), ("shadowed", 20, [[36.0, 20.0, 12, 12]]),
    ("shadowed", 21, [[36.0, 20.0, 12, 12]]), ("shadowed", 60, [[36.0, 20.0, 12, 12]]),
])
def test_scene_geometry(name, n, last):
    shape, background, first = START[name]
    scene = scenes.build_scene(name, n, seed=0)
    frames, truth = generate_synthetic(scene, n)
    assert len(frames) == n and {f.shape for f in frames} == {shape}
    assert scene.background == background
    assert [o["box"] for o in truth[0]["objects"]] == first
    assert [o["box"] for o in truth[-1]["objects"]] == last


def test_unknown_scene_names_the_choices():
    with pytest.raises(KeyError, match=r"unknown scene 'nope'; choose from \['cross2'"):
        scenes.build_scene("nope", 5)
