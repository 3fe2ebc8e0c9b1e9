import csv

import numpy as np
import pytest

from vvtrack.metrics import (MetricsError, TrackingReport, blob_precision_recall,
                             box_iou, evaluate_tracks, mask_f1,
                             write_report_csv)


class TestBoxIou:
    def test_identical_boxes(self):
        assert box_iou((2, 3, 10, 8), (2, 3, 10, 8)) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert box_iou((0, 0, 5, 5), (10, 10, 5, 5)) == 0.0

    def test_half_overlap_hand_value(self):
        # two 10x10 boxes offset by 5 in x: inter 50, union 150
        assert box_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_symmetric(self):
        a, b = (1, 2, 7, 4), (3, 1, 5, 9)
        assert box_iou(a, b) == pytest.approx(box_iou(b, a))

    def test_touching_edges_zero(self):
        assert box_iou((0, 0, 5, 5), (5, 0, 5, 5)) == 0.0


class TestMaskF1:
    def test_perfect(self):
        m = np.zeros((8, 8), bool)
        m[2:5, 2:5] = True
        assert mask_f1(m, m) == 1.0

    def test_empty_both(self):
        assert mask_f1(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 1.0

    def test_hand_value(self):
        pred = np.zeros((4, 4), bool)
        truth = np.zeros((4, 4), bool)
        pred[0, :2] = True          # 2 px, 1 overlaps
        truth[0, 1:4] = True        # 3 px
        # tp=1 fp=1 fn=2 -> f1 = 2/(2+1+2)
        assert mask_f1(pred, truth) == pytest.approx(0.4)

    def test_no_overlap_zero(self):
        pred = np.zeros((4, 4), bool)
        truth = np.zeros((4, 4), bool)
        pred[0, 0] = True
        truth[3, 3] = True
        assert mask_f1(pred, truth) == 0.0


class TestBlobPrecisionRecall:
    def test_all_matched(self):
        boxes = [(0, 0, 10, 10), (20, 20, 8, 8)]
        p, r = blob_precision_recall(boxes, boxes)
        assert (p, r) == (1.0, 1.0)

    def test_extra_prediction_lowers_precision(self):
        truth = [(0, 0, 10, 10)]
        pred = [(0, 0, 10, 10), (40, 40, 5, 5)]
        p, r = blob_precision_recall(pred, truth)
        assert p == 0.5 and r == 1.0

    def test_missed_truth_lowers_recall(self):
        truth = [(0, 0, 10, 10), (30, 30, 10, 10)]
        pred = [(0, 0, 10, 10)]
        p, r = blob_precision_recall(pred, truth)
        assert p == 1.0 and r == 0.5

    def test_empty_inputs(self):
        assert blob_precision_recall([], []) == (1.0, 1.0)

    def test_greedy_takes_best_pair(self):
        truth = [(0, 0, 10, 10)]
        pred = [(2, 0, 10, 10), (0, 0, 10, 10)]  # second is the exact match
        p, r = blob_precision_recall(pred, truth)
        assert r == 1.0 and p == 0.5


def _track(frame, tid, cx, cy, w, h):
    return {"frame": frame, "id": tid, "cx": cx, "cy": cy, "w": w, "h": h}


def _truth_frame(frame, objs):
    return {"frame": frame, "objects": [{"id": i, "box": list(b)}
                                        for i, b in objs]}


class TestEvaluateTracks:
    def test_perfect_tracking(self):
        tracks = [_track(t, 0, 15.0, 15.0, 10, 10) for t in range(5)]
        truth = [_truth_frame(t, [(0, (10, 10, 10, 10))]) for t in range(5)]
        rep = evaluate_tracks(tracks, truth)
        assert rep.success_rate == 1.0
        assert rep.mean_center_error == pytest.approx(0.0)
        assert rep.fp_per_frame == 0.0
        assert rep.id_switches == 0
        assert rep.n_frames == 5

    def test_center_error_measured(self):
        tracks = [_track(0, 0, 18.0, 15.0, 10, 10)]
        truth = [_truth_frame(0, [(0, (10, 10, 10, 10))])]
        rep = evaluate_tracks(tracks, truth)
        assert rep.mean_center_error == pytest.approx(3.0)

    def test_no_match_has_no_center_error(self):
        """A track that never overlaps the truth has no center error to
        report, not the 0.0 px of perfect centring; its CSV field is empty."""
        tracks = [_track(t, 0, 60.0, 60.0, 10, 10) for t in range(3)]
        truth = [_truth_frame(t, [(0, (10, 10, 10, 10))]) for t in range(3)]
        rep = evaluate_tracks(tracks, truth)
        assert rep.success_rate == 0.0
        assert rep.n_matches == 0
        assert rep.fp_per_frame == 1.0
        assert rep.mean_center_error is None

    def test_truth_without_boxes_has_no_success_rate(self):
        """With no truth box there was nothing to find: the success rate is
        None, not the 1.0 of finding everything."""
        tracks = [_track(t, 0, 15.0, 15.0, 10, 10) for t in range(3)]
        truth = [_truth_frame(t, []) for t in range(3)]
        rep = evaluate_tracks(tracks, truth)
        assert rep.success_rate is None
        assert rep.mean_center_error is None
        assert rep.n_matches == 0
        assert rep.fp_per_frame == 1.0

    def test_false_positive_counted(self):
        tracks = [_track(0, 0, 15.0, 15.0, 10, 10),
                  _track(0, 1, 50.0, 50.0, 10, 10)]
        truth = [_truth_frame(0, [(0, (10, 10, 10, 10))])]
        rep = evaluate_tracks(tracks, truth)
        assert rep.fp_per_frame == 1.0
        assert rep.success_rate == 1.0

    def test_id_switch_detected(self):
        tracks = [_track(0, 0, 15.0, 15.0, 10, 10),
                  _track(1, 1, 15.0, 15.0, 10, 10)]  # same object, new id
        truth = [_truth_frame(t, [(7, (10, 10, 10, 10))]) for t in range(2)]
        rep = evaluate_tracks(tracks, truth)
        assert rep.id_switches == 1

    def test_stable_id_no_switch(self):
        tracks = [_track(t, 3, 15.0, 15.0, 10, 10) for t in range(4)]
        truth = [_truth_frame(t, [(7, (10, 10, 10, 10))]) for t in range(4)]
        assert evaluate_tracks(tracks, truth).id_switches == 0

    def test_low_iou_not_matched(self):
        tracks = [_track(0, 0, 35.0, 15.0, 10, 10)]
        truth = [_truth_frame(0, [(0, (10, 10, 10, 10))])]
        rep = evaluate_tracks(tracks, truth)
        assert rep.success_rate == 0.0
        assert rep.fp_per_frame == 1.0

    def test_no_common_frames_errors(self):
        tracks = [_track(0, 0, 15.0, 15.0, 10, 10)]
        truth = [_truth_frame(5, [(0, (10, 10, 10, 10))])]
        with pytest.raises(MetricsError):
            evaluate_tracks(tracks, truth)

    @pytest.mark.parametrize("track,frame,field", [
        ({}, {"objects": [{"id": 0, "box": [10, 10]}]}, "box"),
        ({}, {"objects": [{"id": 0, "box": [10, "10", 10, 10]}]}, "box"),
        ({}, {"objects": [{"id": 0, "box": 10}]}, "box"),
        ({}, {"objects": 5}, "objects"),
        ({}, {"frame": 0.5}, "frame"),
        ({"frame": "x"}, {}, "frame"),
        ({"id": None}, {}, "id"),
        ({"cx": "15"}, {}, "cx"),
        ({"h": [10]}, {}, "h"),
        ({"cx": np.nan}, {}, "cx"),
        ({"cy": np.inf}, {}, "cy"),
        ({"cx": -np.inf}, {}, "cx"),
        ({"w": -10}, {}, "w"),
        ({"h": 0}, {}, "h"),
        ({"w": np.nan}, {}, "w"),
        ({}, {"objects": [{"id": 0, "box": [10, 10, np.nan, 10]}]}, "box"),
        ({}, {"objects": [{"id": 0, "box": [np.inf, 10, 10, 10]}]}, "box"),
        ({}, {"objects": [{"id": 0, "box": [10, 10, 10, 0]}]}, "box"),
        ({}, {"objects": [{"id": 0, "box": [10, 10, -10, 10]}]}, "box"),
        ({"frame": True}, {}, "frame"),
        ({}, {"frame": False}, "frame"),
        ({"id": True}, {}, "id"),
    ])
    def test_malformed_field_named(self, track, frame, field):
        tracks = [{**_track(0, 0, 15.0, 15.0, 10, 10), **track}]
        truth = [{**_truth_frame(0, [(0, (10, 10, 10, 10))]), **frame}]
        with pytest.raises(MetricsError, match=f"field '{field}' is malformed"):
            evaluate_tracks(tracks, truth)

    @pytest.mark.parametrize("obj_id", [[1], "0", 0.5, None, True],
                             ids=["list", "str", "float", "none", "bool"])
    def test_truth_object_id_must_be_an_integer(self, obj_id):
        tracks = [_track(0, 0, 15.0, 15.0, 10, 10)]
        truth = [{"frame": 0, "objects": [{"id": obj_id, "box": [10, 10, 10, 10]}]}]
        with pytest.raises(MetricsError, match="field 'id' is malformed"):
            evaluate_tracks(tracks, truth)

    def test_truth_checked_on_frames_without_tracks(self):
        tracks = [_track(0, 0, 15.0, 15.0, 10, 10)]
        truth = [_truth_frame(0, [(0, (10, 10, 10, 10))]),
                 _truth_frame(5, [(0, (10, 10, np.nan, 10))])]
        with pytest.raises(MetricsError, match="field 'box' is malformed"):
            evaluate_tracks(tracks, truth)

    def test_repeated_truth_frame_errors(self):
        # A later record would otherwise replace the earlier one: the
        # matched track would count as a false positive.
        tracks = [_track(0, 0, 15.0, 15.0, 10, 10)]
        truth = [_truth_frame(0, [(0, (10, 10, 10, 10))]), _truth_frame(0, [])]
        with pytest.raises(MetricsError, match="truth lists frame 0 more than once"):
            evaluate_tracks(tracks, truth)

    def test_accepts_tuples_and_numpy_numbers(self):
        tracks = [{**_track(0, 0, 15.0, 15.0, 10, 10), "frame": np.int64(0),
                   "cx": np.float32(15.0)}]
        truth = [{"frame": np.int32(0), "objects": ({"id": 0, "box": (10, 10, 10, 10)},)}]
        assert evaluate_tracks(tracks, truth).success_rate == 1.0

    def test_accepts_attribute_records(self):
        from vvtrack.tracker import TrackRecord
        tracks = [TrackRecord(frame=0, id=0, cx=15.0, cy=15.0, s=1.0,
                              w=10.0, h=10.0, fit=1.0)]
        truth = [_truth_frame(0, [(0, (10, 10, 10, 10))])]
        assert evaluate_tracks(tracks, truth).success_rate == 1.0


def test_report_csv_roundtrip(tmp_path):
    rep = TrackingReport(success_rate=0.9, mean_center_error=1.5,
                         fp_per_frame=0.25, id_switches=2, n_frames=20,
                         n_matches=18)
    write_report_csv(tmp_path / "m.csv", rep)
    with open(tmp_path / "m.csv") as fh:
        rows = {r[0]: r[1] for r in csv.reader(fh) if r}
    assert float(rows["success_rate"]) == 0.9
    assert float(rows["mean_center_error"]) == 1.5
    assert int(rows["id_switches"]) == 2
    assert int(rows["n_frames"]) == 20


def test_report_csv_leaves_a_missing_center_error_empty(tmp_path):
    rep = TrackingReport(success_rate=0.0, mean_center_error=None,
                         fp_per_frame=1.0, id_switches=0, n_frames=3, n_matches=0)
    write_report_csv(tmp_path / "m.csv", rep)
    with open(tmp_path / "m.csv") as fh:
        rows = {r[0]: r[1] for r in csv.reader(fh) if r}
    assert rows["mean_center_error"] == ""
    assert float(rows["success_rate"]) == 0.0
