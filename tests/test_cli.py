import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _oriented_texture
from test_frames import UNREADABLE_PNM, write_unreadable_pnm
from vvtrack import frames as fio
from vvtrack import shadows, svm, vocab
from vvtrack.cli import main


def _config(tmp_path, **overrides):
    cfg = {
        "background": {"burn_in": 2},
        "shadow": {"min_blob_area": 10},
        "tracker": {"n_particles": 15, "n_iters": 5, "track_scale": False},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _generate(tmp_path, scene="one_rect", frames=8):
    out = tmp_path / "seq"
    rc = main(["generate", "--out", str(out), "--scene", scene,
               "--frames", str(frames), "--seed", "0"])
    assert rc == 0
    return out


def _generate_gray(tmp_path, scene="one_rect", frames=8):
    """A generated sequence rewritten as P5 frames, with its truth.jsonl."""
    rgb = _generate(tmp_path / "rgb", scene=scene, frames=frames)
    out = tmp_path / "gray"
    out.mkdir()
    for path in sorted(rgb.glob("frame_*.ppm")):
        fio.write_pnm(out / f"{path.stem}.pgm", fio.to_grayscale(fio.read_pnm(path)))
    (out / "truth.jsonl").write_bytes((rgb / "truth.jsonl").read_bytes())
    return out


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["generate", "--scene", "one_rect"]) == 1

    def test_unknown_scene(self):
        assert main(["generate", "--out", "/tmp/x", "--scene", "nope"]) == 1


class TestDataErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["detect", "--config", str(tmp_path / "nope.json"),
                     "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"background": {"alpha": 1}}))
        assert main(["detect", "--config", str(path),
                     "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 2

    def test_tracker_constant_is_not_a_config_key(self, tmp_path, capsys):
        cfg = _config(tmp_path, tracker={"stall_iters": 3})
        assert main(["track", "--config", cfg, "--in", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'stall_iters'" in capsys.readouterr().err

    def test_empty_input_directory(self, tmp_path):
        cfg = _config(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["detect", "--config", cfg, "--in", str(empty),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_pnm_dimensions(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        (seq / "frame_0000.pgm").write_bytes(b"P5\n-4 4\n255\n" + bytes(64))
        assert main(["detect", "--config", _config(tmp_path), "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "frame_0000.pgm: image dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(UNREADABLE_PNM))
    def test_detect_over_an_unreadable_frame(self, tmp_path, capsys, case):
        seq = _generate(tmp_path, frames=3)
        (seq / "frame_0001.ppm").unlink()
        write_unreadable_pnm(seq / "frame_0001.ppm", case)
        out = tmp_path / "o"
        assert main(["detect", "--config", _config(tmp_path), "--in", str(seq),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"frame_0001.ppm: {UNREADABLE_PNM[case][1]}" in err
        assert "Traceback" not in err
        assert not (out / "detections.jsonl").exists()

    def test_train_vocab_on_an_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "cb.txt"
        assert main(["train-vocab", "--config", _config(tmp_path), "--in", str(empty),
                     "--out", str(out)]) == 2
        assert "no PGM/PPM images found" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_frame_index(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=4)
        (seq / "frame_2.ppm").write_bytes((seq / "frame_0002.ppm").read_bytes())
        out = tmp_path / "o"
        assert main(["detect", "--config", _config(tmp_path), "--in", str(seq),
                     "--out", str(out)]) == 2
        assert "carry the same frame index 2" in capsys.readouterr().err
        assert not (out / "detections.jsonl").exists()

    def test_track_refuses_a_gap_in_the_frame_indices(self, tmp_path, capsys):
        # Frame 13 would otherwise be read, tracked and written as frame 12.
        seq = _generate(tmp_path, scene="two_rect", frames=20)
        (seq / "frame_0012.ppm").unlink()
        out = tmp_path / "o"
        assert main(["track", "--config", _config(tmp_path), "--in", str(seq),
                     "--out", str(out)]) == 2
        assert "frame_0013.ppm: frame index 13, expected 12" in capsys.readouterr().err
        assert not (out / "tracks.jsonl").exists()
        assert not (out / "annotated").exists()

    @pytest.mark.parametrize("shadow", [
        {"sigma": -1, "enabled": True},
        {"penumbra": "2", "enabled": True},
        {"min_blob_area": "x"},
    ], ids=["negative-sigma", "string-penumbra", "string-min-blob-area"])
    def test_bad_shadow_config(self, tmp_path, capsys, shadow):
        seq = _generate(tmp_path, scene="shadowed", frames=4)
        cfg = _config(tmp_path, shadow=shadow)
        assert main(["detect", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error: shadow." in capsys.readouterr().err

    def test_shadow_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(g):
            raise shadows.PoissonConvergenceError(float("nan"))

        monkeypatch.setattr(shadows, "poisson_reconstruct", fail)
        seq = _generate(tmp_path, scene="shadowed", frames=4)
        cfg = _config(tmp_path, shadow={"enabled": True})
        assert main(["detect", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "Poisson solve failed" in capsys.readouterr().err

    @pytest.mark.parametrize("user,name", [
        ({"tracker": {"update_every": 0}}, "tracker.update_every"),
        ({"tracker": {"n_particles": "50"}}, "tracker.n_particles"),
        ({"vocabulary": {"K": "x"}}, "vocabulary.K"),
        ({"background": {"a": "x"}}, "background.a"),
        ({"tracker": {"sigma0": 5}}, "tracker.sigma0"),
        ({"seed": "x"}, "seed"),
        ({"tracker": {"sigma0": [8.0, 8.0, -0.05]}}, "tracker.sigma0"),
        ({"tracker": {"lost_patience": 0}}, "tracker.lost_patience"),
        ({"tracker": {"window": 1}}, "tracker.window"),
        ({"tracker": {"sigma_obs_sq": 0}}, "tracker.sigma_obs_sq"),
        ({"tracker": {"fit_floor": 0}}, "tracker.fit_floor"),
        ({"tracker": {"q": 0}}, "tracker.q"),
        ({"tracker": {"q": 2000}}, "tracker.q"),
        ({"tracker": {"c_anneal": -0.3}}, "tracker.c_anneal"),
        ({"tracker": {"tau": -0.1}}, "tracker.tau"),
        ({"tracker": {"eta": -4.0}}, "tracker.eta"),
        ({"background": {"window_radius": 0}}, "background.window_radius"),
        ({"background": {"window_radius": -1}}, "background.window_radius"),
        ({"background": {"b": -5.0}}, "background.b"),
        ({"background": {"T_sim": 5.0}}, "background.T_sim"),
        ({"background": {"T_sim": -1.0}}, "background.T_sim"),
        ({"classifier": {"C": 0}}, "classifier.C"),
        ({"classifier": {"c_offset": -1.0}}, "classifier.c_offset"),
        ({"seed": -1}, "seed"),
        ({"background": {"burn_in": -1}}, "background.burn_in"),
        ({"tracker": {"sigma0": [float("nan"), 8, 0.05]}}, "tracker.sigma0"),
        ({"background": {"b": float("nan")}}, "background.b"),
        ({"tracker": {"fit_floor": float("inf")}}, "tracker.fit_floor"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, user, name):
        seq = _generate(tmp_path, frames=4)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(user))
        assert main(["track", "--config", str(path), "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error: {name} " in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("grid_stride", 0), ("patch", -4)])
    def test_bad_vocabulary_grid(self, tmp_path, capsys, key, value):
        images = tmp_path / "images"
        images.mkdir()
        fio.write_pnm(images / "a.pgm", np.random.default_rng(0).random((32, 32)))
        cfg = _config(tmp_path, vocabulary={"K": 2, key: value})
        assert main(["train-vocab", "--config", cfg, "--in", str(images),
                     "--out", str(tmp_path / "cb.txt")]) == 2
        assert f"error: vocabulary.{key} " in capsys.readouterr().err

    def test_malformed_codebook(self, tmp_path, capsys):
        (tmp_path / "cb.txt").write_text("vvtrack-codebook v1\n2 128 x\n")
        assert main(["train-svm", "--config", _config(tmp_path),
                     "--vocab", str(tmp_path / "cb.txt"),
                     "--in", str(tmp_path / "train"),
                     "--out", str(tmp_path / "m.txt")]) == 2
        assert "cb.txt" in capsys.readouterr().err

    def test_malformed_svm_model(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=4)
        vocab.save_codebook(tmp_path / "cb.txt",
                            vocab.Codebook(words=np.eye(2, 128), seed=0))
        (tmp_path / "m.txt").write_text("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 2\n")
        cfg = _config(tmp_path, recognition={"codebook_path": str(tmp_path / "cb.txt"),
                                             "svm_path": str(tmp_path / "m.txt")})
        assert main(["track", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "m.txt" in capsys.readouterr().err

    def test_svm_model_training_never_writes(self, tmp_path, capsys):
        # Repeated class names, C < 0 and a negative kernel offset all at once.
        seq = _generate(tmp_path, frames=4)
        vocab.save_codebook(tmp_path / "cb.txt",
                            vocab.Codebook(words=np.eye(2, 128), seed=0))
        (tmp_path / "m.txt").write_text("vvtrack-svm v1\na a\n-3.0 -1.0 1\n"
                                        "0 1 1 2 0.0\n1.0\n0.5 0.5\n")
        cfg = _config(tmp_path, recognition={"codebook_path": str(tmp_path / "cb.txt"),
                                             "svm_path": str(tmp_path / "m.txt")})
        assert main(["track", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "m.txt: malformed model: repeated class names" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tracks.jsonl").exists()

    @staticmethod
    def _models(tmp_path, words, sv_dim):
        """A codebook of the given words and a two-class model on sv_dim-bin
        histograms, saved; returns a config naming both."""
        vocab.save_codebook(tmp_path / "cb.txt", vocab.Codebook(words=words, seed=0))
        machine = svm.BinaryMachine(support_vectors=np.full((1, sv_dim), 0.5),
                                    dual_coef=np.ones(1), bias=0.0)
        svm.save_model(tmp_path / "m.txt",
                       svm.SvmModel(classes=["a", "b"], machines={(0, 1): machine}))
        return _config(tmp_path, recognition={"codebook_path": str(tmp_path / "cb.txt"),
                                              "svm_path": str(tmp_path / "m.txt")})

    def test_codebook_word_length_differs_from_descriptors(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=8)
        cfg = self._models(tmp_path, np.random.default_rng(0).random((2, 64)), 2)
        assert main(["pipeline", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "128-d vectors against a codebook of 64-d words" in capsys.readouterr().err

    def test_model_histogram_length_differs_from_codebook(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=8)
        cfg = self._models(tmp_path, np.random.default_rng(0).random((10, 128)), 7)
        assert main(["pipeline", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "m.txt: model takes [7]-bin histograms" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tracks.jsonl").exists()

    def test_train_svm_with_wrong_word_length(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for cls in ("a", "b"):
            (tmp_path / "train" / cls).mkdir(parents=True)
            fio.write_pnm(tmp_path / "train" / cls / "0.pgm", rng.random((32, 32)))
        vocab.save_codebook(tmp_path / "cb.txt",
                            vocab.Codebook(words=rng.random((2, 64)), seed=0))
        assert main(["train-svm", "--config", _config(tmp_path),
                     "--vocab", str(tmp_path / "cb.txt"),
                     "--in", str(tmp_path / "train"),
                     "--out", str(tmp_path / "m.txt")]) == 2
        assert "against a codebook of 64-d words" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("named", ["codebook_path", "svm_path"])
    def test_recognition_with_only_one_model_path(self, tmp_path, capsys, named):
        seq = _generate(tmp_path, frames=8)
        self._models(tmp_path, np.random.default_rng(0).random((2, 128)), 2)
        path = tmp_path / ("cb.txt" if named == "codebook_path" else "m.txt")
        cfg = _config(tmp_path, recognition={named: str(path)})
        assert main(["track", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "needs both codebook_path and svm_path" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tracks.jsonl").exists()

    def test_train_svm_class_name_with_space(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for cls in ("red car", "bus"):
            (tmp_path / "train" / cls).mkdir(parents=True)
            for k in range(2):
                fio.write_pnm(tmp_path / "train" / cls / f"{k}.pgm", rng.random((32, 32)))
        vocab.save_codebook(tmp_path / "cb.txt",
                            vocab.Codebook(words=rng.random((4, 128)), seed=0))
        # A shared config may name the codebook before the model exists.
        cfg = _config(tmp_path, recognition={"codebook_path": str(tmp_path / "cb.txt")})
        args = ["train-svm", "--config", cfg, "--vocab", str(tmp_path / "cb.txt"),
                "--in", str(tmp_path / "train"), "--out", str(tmp_path / "m.txt")]
        assert main(args) == 2
        assert "'red car'" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()
        (tmp_path / "train" / "red car").rename(tmp_path / "train" / "red_car")
        assert main(args) == 0
        assert svm.load_model(tmp_path / "m.txt").classes == ["bus", "red_car"]

    def test_codebook_with_content_after_its_words(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for cls in ("car", "bus"):
            (tmp_path / "train" / cls).mkdir(parents=True)
            for k in range(2):
                fio.write_pnm(tmp_path / "train" / cls / f"{k}.pgm", rng.random((32, 32)))
        vocab.save_codebook(tmp_path / "cb.txt",
                            vocab.Codebook(words=rng.random((4, 128)), seed=0))
        args = ["train-svm", "--config", _config(tmp_path),
                "--vocab", str(tmp_path / "cb.txt"),
                "--in", str(tmp_path / "train"), "--out", str(tmp_path / "m.txt")]
        assert main(args) == 0
        (tmp_path / "m.txt").unlink()
        with open(tmp_path / "cb.txt", "a") as fh:
            fh.write("garbage here\n")
        assert main(args) == 2
        assert "need 4 non-blank centroid rows and nothing after" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_non_finite_codebook(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=8)
        words = np.random.default_rng(0).random((2, 128))
        words[1, 5] = np.nan
        cfg = self._models(tmp_path, words, 2)
        assert main(["pipeline", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        assert "cb.txt: codebook has non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tracks.jsonl").exists()

    def test_tracks_line_not_json(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=2)
        (tmp_path / "tracks.jsonl").write_text('{"frame": 0}\n{"frame": 1,\n')
        assert main(["eval", "--tracks", str(tmp_path / "tracks.jsonl"),
                     "--truth", str(seq / "truth.jsonl"),
                     "--out", str(tmp_path / "eval.csv")]) == 2
        assert "tracks.jsonl:2" in capsys.readouterr().err

    def test_track_record_missing_field(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=2)
        (tmp_path / "tracks.jsonl").write_text(
            json.dumps({"frame": 0, "id": 0, "cy": 5.0, "w": 4.0, "h": 4.0}) + "\n")
        assert main(["eval", "--tracks", str(tmp_path / "tracks.jsonl"),
                     "--truth", str(seq / "truth.jsonl"),
                     "--out", str(tmp_path / "eval.csv")]) == 2
        err = capsys.readouterr().err
        assert "no field 'cx'" in err and "'cy': 5.0" in err

    @pytest.mark.parametrize("tracks,truth,field", [
        ({}, {"objects": [{"id": 0, "box": [1, 2]}]}, "box"),
        ({}, {"objects": [{"id": 0, "box": [1, 2, "3", 4]}]}, "box"),
        ({"frame": "x"}, {}, "frame"),
        ({}, {"objects": 5}, "objects"),
        ({}, {"objects": [{"id": [1], "box": [3, 3, 4, 4]}]}, "id"),
        ({"w": -4.0}, {}, "w"),
    ], ids=["box-of-two", "string-in-box", "string-frame", "number-objects", "list-id",
            "negative-width"])
    def test_malformed_eval_record(self, tmp_path, capsys, tracks, truth, field):
        track = {"frame": 0, "id": 0, "cx": 5.0, "cy": 5.0, "w": 4.0, "h": 4.0}
        frame = {"frame": 0, "objects": [{"id": 0, "box": [3, 3, 4, 4]}]}
        (tmp_path / "tracks.jsonl").write_text(json.dumps({**track, **tracks}) + "\n")
        (tmp_path / "truth.jsonl").write_text(json.dumps({**frame, **truth}) + "\n")
        assert main(["eval", "--tracks", str(tmp_path / "tracks.jsonl"),
                     "--truth", str(tmp_path / "truth.jsonl"),
                     "--out", str(tmp_path / "eval.csv")]) == 2
        assert f"field {field!r} is malformed" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    def test_repeated_truth_frame(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=2)
        lines = (seq / "truth.jsonl").read_text().splitlines()
        (tmp_path / "truth.jsonl").write_text("\n".join(lines + lines[:1]) + "\n")
        (tmp_path / "tracks.jsonl").write_text(json.dumps(
            {"frame": 0, "id": 0, "cx": 5.0, "cy": 5.0, "w": 4.0, "h": 4.0}) + "\n")
        assert main(["eval", "--tracks", str(tmp_path / "tracks.jsonl"),
                     "--truth", str(tmp_path / "truth.jsonl"),
                     "--out", str(tmp_path / "eval.csv")]) == 2
        assert "truth lists frame 0 more than once" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("case", [
        "eval --tracks", "eval --truth", "train-vocab --config", "train-svm --config",
        "detect --config", "track --config", "train-svm --vocab",
        "recognition.codebook_path", "recognition.svm_path", "truth.jsonl"])
    def test_input_that_is_not_text(self, tmp_path, capsys, case):
        """Bytes that do not decode as text are a data error naming the file,
        and the command's last output is not written."""
        seq = _generate(tmp_path, frames=4)
        bad = str(tmp_path / "bin.txt")
        Path(bad).write_bytes(b"\xff\xfe")
        vocab.save_codebook(tmp_path / "cb.txt",
                            vocab.Codebook(words=np.eye(2, 128), seed=0))
        cb = str(tmp_path / "cb.txt")
        (tmp_path / "tracks.jsonl").write_text(json.dumps(
            {"frame": 0, "id": 0, "cx": 5.0, "cy": 5.0, "w": 4.0, "h": 4.0}) + "\n")
        recognition = {"recognition.codebook_path": {"codebook_path": bad, "svm_path": bad},
                       "recognition.svm_path": {"codebook_path": cb, "svm_path": bad}}
        cfg = _config(tmp_path, recognition=recognition.get(case, {}))
        out = tmp_path / "o"
        if case == "truth.jsonl":
            (seq / "truth.jsonl").write_bytes(b"\xff\xfe")
        args, written = {
            "eval --tracks": (["eval", "--tracks", bad, "--truth", str(seq / "truth.jsonl"),
                               "--out", str(out)], out),
            "eval --truth": (["eval", "--tracks", str(tmp_path / "tracks.jsonl"),
                              "--truth", bad, "--out", str(out)], out),
            "train-vocab --config": (["train-vocab", "--config", bad, "--in", str(seq),
                                      "--out", str(out)], out),
            "train-svm --config": (["train-svm", "--config", bad, "--vocab", cb,
                                    "--in", str(tmp_path), "--out", str(out)], out),
            "detect --config": (["detect", "--config", bad, "--in", str(seq),
                                 "--out", str(out)], out / "detections.jsonl"),
            "track --config": (["track", "--config", bad, "--in", str(seq),
                                "--out", str(out)], out / "tracks.jsonl"),
            "train-svm --vocab": (["train-svm", "--config", cfg, "--vocab", bad,
                                   "--in", str(tmp_path), "--out", str(out)], out),
            "recognition.codebook_path": (["track", "--config", cfg, "--in", str(seq),
                                           "--out", str(out)], out / "tracks.jsonl"),
            "recognition.svm_path": (["track", "--config", cfg, "--in", str(seq),
                                      "--out", str(out)], out / "tracks.jsonl"),
            "truth.jsonl": (["track", "--config", cfg, "--in", str(seq),
                             "--out", str(out)], out / "metrics.csv"),
        }[case]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert ("truth.jsonl" if case == "truth.jsonl" else "bin.txt") in err
        assert "Traceback" not in err
        assert not written.exists()
        if case == "truth.jsonl":
            assert not (out / "tracks.jsonl").exists()
            assert not (out / "annotated").exists()

    def test_negative_config_seed_train_vocab(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        fio.write_pnm(images / "a.pgm", np.random.default_rng(0).random((32, 32)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": -1, "vocabulary": {"K": 2}}))
        assert main(["train-vocab", "--config", str(path), "--in", str(images),
                     "--out", str(tmp_path / "cb.txt")]) == 2
        assert "error: seed " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "generate", "train-vocab", "detect", "eval", "pipeline", "track"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_flag_is_usage_error(self, tmp_path, capsys, command, seed):
        args = {"generate": ["--out", str(tmp_path / "o"), "--scene", "one_rect"],
                "train-vocab": ["--in", str(tmp_path), "--out", str(tmp_path / "cb")],
                "eval": ["--tracks", "t", "--truth", "u", "--out", "e"]}.get(
                    command, ["--in", str(tmp_path), "--out", str(tmp_path / "o")])
        if command != "generate":
            args += ["--config", _config(tmp_path)]
        assert main([command, *args, "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_train_svm_takes_no_seed_flag(self, tmp_path, capsys):
        # Training draws no random numbers, so there is no seed to override.
        args = ["--vocab", "cb", "--in", str(tmp_path), "--out", str(tmp_path / "m")]
        assert main(["train-svm", "--config", _config(tmp_path), *args,
                     "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestGenerate:
    def test_writes_frames_and_truth(self, tmp_path):
        out = _generate(tmp_path, frames=5)
        ppms = sorted(out.glob("frame_*.ppm"))
        assert len(ppms) == 5
        assert (out / "truth.jsonl").exists()
        frame = fio.read_pnm(ppms[0])
        assert frame.ndim == 3

    def test_refuses_a_directory_holding_a_longer_sequence(self, tmp_path, capsys):
        out = _generate(tmp_path, scene="two_rect", frames=6)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        args = ["generate", "--out", str(out), "--scene", "cross2", "--seed", "0"]
        assert main(args + ["--frames", "3"]) == 2
        assert "first frame_0003.ppm" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # A run that replaces every frame there may write over them.
        assert main(args + ["--frames", "6"]) == 0
        assert len(list(fio.read_sequence(out))) == 6
        assert len(fio.read_jsonl(out / "truth.jsonl")) == 6

    def test_deterministic_for_seed(self, tmp_path):
        a = _generate(tmp_path / "a", frames=3)
        b = _generate(tmp_path / "b", frames=3)
        for pa, pb in zip(sorted(a.glob("*.ppm")), sorted(b.glob("*.ppm"))):
            assert pa.read_bytes() == pb.read_bytes()


class TestDetect:
    def test_masks_and_detections_written(self, tmp_path):
        seq = _generate(tmp_path, frames=6)
        out = tmp_path / "det"
        rc = main(["detect", "--config", _config(tmp_path),
                   "--in", str(seq), "--out", str(out)])
        assert rc == 0
        assert len(list(out.glob("mask_*.pgm"))) == 6
        lines = (out / "detections.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6
        recs = [json.loads(l) for l in lines]
        assert recs[0]["frame"] == 0
        # the moving rectangle should produce blobs in later frames
        assert any(r["blobs"] for r in recs[2:])

    def test_threshold_is_null_only_where_none_was_fitted(self, tmp_path):
        # Frame 0 has no predecessor to fit a threshold to; every later frame does.
        seq = _generate(tmp_path, frames=6)
        out = tmp_path / "det"
        assert main(["detect", "--config", _config(tmp_path),
                     "--in", str(seq), "--out", str(out)]) == 0
        lines = (out / "detections.jsonl").read_text().splitlines()
        assert '"T_b": null' in lines[0]
        thresholds = [json.loads(line)["T_b"] for line in lines]
        assert thresholds[0] is None
        assert all(isinstance(t, float) and 0.0 <= t <= 1.0 for t in thresholds[1:])


    def test_shadow_removal_refuses_grayscale(self, tmp_path, capsys):
        seq = _generate_gray(tmp_path, scene="shadowed", frames=4)
        cfg = _config(tmp_path, shadow={"enabled": True})
        assert main(["detect", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "shadow removal needs RGB input" in err


class TestTrackAndEval:
    def test_mixed_dimensions_after_the_seed_leave_no_tracks(self, tmp_path, capsys):
        # Burn-in 2 seeds at frame 2: detection stops before the bad frame,
        # so the tracker is the first to read it.
        seq = _generate(tmp_path, frames=8)
        bad = seq / "frame_0005.ppm"
        fio.write_pnm(bad, fio.read_pnm(bad)[:, :40])
        out = tmp_path / "trk"
        assert main(["track", "--config", _config(tmp_path),
                     "--in", str(seq), "--out", str(out)]) == 2
        assert f"{bad.name}: mixed dimensions" in capsys.readouterr().err
        assert not (out / "tracks.jsonl").exists()
        assert not (out / "metrics.csv").exists()

    def test_no_blobs_after_burn_in_leaves_no_tracks(self, tmp_path, capsys):
        seq = _generate(tmp_path, scene="static", frames=6)
        out = tmp_path / "trk"
        assert main(["track", "--config", _config(tmp_path),
                     "--in", str(seq), "--out", str(out)]) == 2
        assert "no blobs detected after burn-in" in capsys.readouterr().err
        assert not (out / "tracks.jsonl").exists()

    @pytest.mark.parametrize("burn_in", [6, 9])
    def test_burn_in_past_the_last_frame_leaves_no_tracks(self, tmp_path, capsys,
                                                           burn_in):
        seq = _generate(tmp_path, frames=6)
        out = tmp_path / "trk"
        cfg = _config(tmp_path, background={"burn_in": burn_in})
        assert main(["track", "--config", cfg, "--in", str(seq), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no blobs detected after burn-in" in err
        assert "Traceback" not in err
        assert not (out / "tracks.jsonl").exists()

    def test_pipeline_on_grayscale_writes_rgb_annotations(self, tmp_path):
        seq = _generate_gray(tmp_path, frames=8)
        out = tmp_path / "trk"
        assert main(["pipeline", "--config", _config(tmp_path),
                     "--in", str(seq), "--out", str(out)]) == 0
        annotated = sorted((out / "annotated").glob("frame_*.ppm"))
        assert len(annotated) == 8
        assert all(p.read_bytes()[:2] == b"P6" for p in annotated)
        assert (out / "tracks.jsonl").read_text().strip()

    def test_track_is_an_alias_of_pipeline(self, tmp_path):
        seq = _generate(tmp_path, frames=6)
        cfg = _config(tmp_path)
        for name in ("track", "pipeline"):
            assert main([name, "--config", cfg, "--in", str(seq),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "track" / "tracks.jsonl").read_bytes() == \
               (tmp_path / "pipeline" / "tracks.jsonl").read_bytes()

    def test_track_writes_outputs_and_metrics(self, tmp_path):
        seq = _generate(tmp_path, frames=8)
        out = tmp_path / "trk"
        rc = main(["track", "--config", _config(tmp_path),
                   "--in", str(seq), "--out", str(out)])
        assert rc == 0
        assert (out / "tracks.jsonl").exists()
        assert (out / "metrics.csv").exists()  # truth.jsonl was present
        annotated = list((out / "annotated").glob("*.ppm"))
        assert len(annotated) == 8
        tracks = [json.loads(l) for l in
                  (out / "tracks.jsonl").read_text().strip().splitlines()]
        assert tracks
        assert all({"frame", "id", "cx", "cy", "w", "h", "fit"} <= set(t)
                   for t in tracks)

    def test_eval_reads_tracks_against_truth(self, tmp_path):
        seq = _generate(tmp_path, frames=8)
        out = tmp_path / "trk"
        assert main(["track", "--config", _config(tmp_path),
                     "--in", str(seq), "--out", str(out)]) == 0
        rc = main(["eval", "--tracks", str(out / "tracks.jsonl"),
                   "--truth", str(seq / "truth.jsonl"),
                   "--out", str(out / "eval.csv")])
        assert rc == 0
        assert (out / "eval.csv").exists()

    def test_eval_without_a_match_prints_no_center_error(self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=4)
        tracks = tmp_path / "tracks.jsonl"
        fio.write_jsonl(tracks, [{"frame": 0, "id": 0, "cx": 2.0, "cy": 2.0,
                                  "w": 2.0, "h": 2.0}])
        assert main(["eval", "--tracks", str(tracks), "--truth",
                     str(seq / "truth.jsonl"), "--out", str(tmp_path / "m.csv")]) == 0
        out = capsys.readouterr().out
        assert "success rate 0.000, mean center error n/a, fp/frame 1.000" in out
        assert b"mean_center_error,\r\n" in (tmp_path / "m.csv").read_bytes()

    def test_eval_on_a_scene_without_objects_has_no_success_rate(self, tmp_path,
                                                                 capsys):
        """The static scene's truth holds no box: there was nothing to find,
        so the success rate is n/a, not 1.000, and its CSV field is empty."""
        seq = _generate(tmp_path, scene="static", frames=5)
        tracks = tmp_path / "tracks.jsonl"
        fio.write_jsonl(tracks, [{"frame": 0, "id": 0, "cx": 2.0, "cy": 2.0,
                                  "w": 2.0, "h": 2.0}])
        assert main(["eval", "--tracks", str(tracks), "--truth",
                     str(seq / "truth.jsonl"), "--out", str(tmp_path / "m.csv")]) == 0
        out = capsys.readouterr().out
        assert "success rate n/a, mean center error n/a, fp/frame 1.000" in out
        assert b"success_rate,\r\n" in (tmp_path / "m.csv").read_bytes()

    def test_track_against_a_truth_without_boxes_prints_no_success_rate(
            self, tmp_path, capsys):
        seq = _generate(tmp_path, frames=6)
        truth = fio.read_jsonl(seq / "truth.jsonl")
        fio.write_jsonl(seq / "truth.jsonl", [t | {"objects": []} for t in truth])
        out = tmp_path / "trk"
        assert main(["track", "--config", _config(tmp_path),
                     "--in", str(seq), "--out", str(out)]) == 0
        assert "success rate n/a, fp/frame" in capsys.readouterr().out
        assert b"success_rate,\r\n" in (out / "metrics.csv").read_bytes()

    def test_track_labels_boxes_with_trained_models(self, tmp_path):
        seq = _generate(tmp_path, frames=8)
        rng = np.random.default_rng(1)
        train_dir = tmp_path / "train"
        for cls in ("noise", "scene"):
            (train_dir / cls).mkdir(parents=True)
        for i in range(3):
            frame = fio.read_pnm(seq / f"frame_{i:04d}.ppm")
            fio.write_pnm(train_dir / "scene" / f"img_{i}.ppm", frame)
            fio.write_pnm(train_dir / "noise" / f"img_{i}.pgm", rng.random((64, 64)))
        cfg = _config(tmp_path, vocabulary={"K": 4, "grid_stride": 2})
        cb_path, model_path = tmp_path / "cb.txt", tmp_path / "svm.txt"
        assert main(["train-vocab", "--config", cfg, "--in",
                     str(train_dir / "scene"), "--out", str(cb_path)]) == 0
        assert main(["train-svm", "--config", cfg, "--vocab", str(cb_path),
                     "--in", str(train_dir), "--out", str(model_path)]) == 0
        cfg = _config(tmp_path, vocabulary={"K": 4, "grid_stride": 2},
                      recognition={"codebook_path": str(cb_path),
                                   "svm_path": str(model_path)})
        out = tmp_path / "trk"
        assert main(["track", "--config", cfg, "--in", str(seq),
                     "--out", str(out)]) == 0
        tracks = [json.loads(l) for l in
                  (out / "tracks.jsonl").read_text().strip().splitlines()]
        assert tracks
        assert all(t["label"] in ("noise", "scene") for t in tracks)

    def test_seed_override_changes_nothing_structural(self, tmp_path):
        seq = _generate(tmp_path, frames=6)
        out1 = tmp_path / "t1"
        out2 = tmp_path / "t2"
        cfg = _config(tmp_path)
        assert main(["track", "--config", cfg, "--in", str(seq),
                     "--out", str(out1), "--seed", "3"]) == 0
        assert main(["track", "--config", cfg, "--in", str(seq),
                     "--out", str(out2), "--seed", "3"]) == 0
        assert (out1 / "tracks.jsonl").read_text() == \
               (out2 / "tracks.jsonl").read_text()

    def test_seed_flag_acts_as_the_config_seed(self, tmp_path):
        seq = _generate(tmp_path, frames=6)
        flag, keyed = tmp_path / "flag", tmp_path / "keyed"
        assert main(["track", "--config", _config(tmp_path), "--in", str(seq),
                     "--out", str(flag), "--seed", "3"]) == 0
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({**json.loads(Path(_config(tmp_path)).read_text()),
                                   "seed": 3}))
        assert main(["track", "--config", str(cfg), "--in", str(seq),
                     "--out", str(keyed)]) == 0
        assert (flag / "tracks.jsonl").read_bytes() == (keyed / "tracks.jsonl").read_bytes()


class TestRerunIntoTheSameOut:
    """A run into an --out that an earlier run wrote leaves only its own outputs."""

    def _rerun(self, tmp_path, command):
        out = tmp_path / "out"
        for frames in (20, 12):
            seq = _generate(tmp_path / str(frames), scene="two_rect", frames=frames)
            assert main([command, "--config", _config(tmp_path), "--in", str(seq),
                         "--out", str(out)]) == 0
        return out

    def test_detect_leaves_no_mask_of_a_longer_sequence(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "mask_key.pgm").write_bytes(b"not a frame mask")
        self._rerun(tmp_path, "detect")
        assert sorted(p.name for p in out.glob("mask_*.pgm")) == \
            [f"mask_{t:04d}.pgm" for t in range(12)] + ["mask_key.pgm"]
        assert len(fio.read_jsonl(out / "detections.jsonl")) == 12

    def test_track_leaves_no_annotated_frame_of_a_longer_sequence(self, tmp_path):
        out = self._rerun(tmp_path, "track")
        assert sorted(p.name for p in (out / "annotated").iterdir()) == \
            [f"frame_{t:04d}.ppm" for t in range(12)]
        assert max(r["frame"] for r in fio.read_jsonl(out / "tracks.jsonl")) == 11
        assert len(fio.read_jsonl(out / "tracks.jsonl")) > 0

    def test_track_without_truth_leaves_no_metrics(self, tmp_path):
        seq = _generate(tmp_path, scene="two_rect", frames=12)
        bare = tmp_path / "bare"
        bare.mkdir()
        for path in seq.glob("frame_*.ppm"):
            (bare / path.name).write_bytes(path.read_bytes())
        out = tmp_path / "trk"
        for run, scored in ((seq, True), (bare, False)):
            assert main(["track", "--config", _config(tmp_path), "--in", str(run),
                         "--out", str(out)]) == 0
            assert (out / "metrics.csv").exists() == scored
        assert (out / "tracks.jsonl").exists()


class TestTrainCommands:
    def test_train_vocab_and_svm(self, tmp_path):
        rng = np.random.default_rng(0)
        train_dir = tmp_path / "train"
        for cls, low, high in (("dark", 0.0, 0.4), ("bright", 0.6, 1.0)):
            d = train_dir / cls
            d.mkdir(parents=True)
            for i in range(3):
                img = rng.random((32, 32)) * (high - low) + low
                fio.write_pnm(d / f"img_{i}.pgm", img)
        cfg = _config(tmp_path, vocabulary={"K": 5})
        cb_path = tmp_path / "cb.txt"
        rc = main(["train-vocab", "--config", cfg,
                   "--in", str(train_dir / "dark"), "--out", str(cb_path)])
        assert rc == 0 and cb_path.exists()
        model_path = tmp_path / "svm.txt"
        rc = main(["train-svm", "--config", cfg, "--vocab", str(cb_path),
                   "--in", str(train_dir), "--out", str(model_path)])
        assert rc == 0 and model_path.exists()
        model = svm.load_model(model_path)
        assert model.classes == ["bright", "dark"]

    def test_train_svm_memory_does_not_grow_with_the_image_count(self, tmp_path):
        rng = np.random.default_rng(0)
        for n in (8, 32):
            for cls, low in (("dark", 0.0), ("bright", 0.4)):
                d = tmp_path / str(n) / cls
                d.mkdir(parents=True)
                for i in range(n // 2):
                    fio.write_pnm(d / f"img_{i:02d}.pgm", low + 0.6 * rng.random((160, 240)))
        cfg, cb_path = _config(tmp_path, vocabulary={"K": 8}), tmp_path / "cb.txt"
        assert main(["train-vocab", "--config", cfg, "--in", str(tmp_path / "8" / "dark"),
                     "--out", str(cb_path)]) == 0

        def train(n):
            return main(["train-svm", "--config", cfg, "--vocab", str(cb_path),
                         "--in", str(tmp_path / str(n)), "--out", str(tmp_path / f"{n}.txt")])

        assert train(8) == 0  # a first run pays the lazy imports
        peaks = {}
        for n in (8, 32):
            tracemalloc.start()
            try:
                assert train(n) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Holding a class's images would add 0.31 MB per float64 image: 3.7 MB
        # more for 16 images a class than for 4.
        assert peaks[32] <= peaks[8] + 2e6, peaks

    def test_default_config_classifies_heldout_textures(self, tmp_path):
        # criterion-13 textures: 8 training and 6 held-out images per class
        rng = np.random.default_rng(0)
        classes = ("horiz", "vert", "diag")
        images, train_dir = tmp_path / "images", tmp_path / "train"
        images.mkdir()
        for cls in classes:
            (train_dir / cls).mkdir(parents=True)
            for k in range(8):
                image = _oriented_texture(cls, rng)
                fio.write_pnm(images / f"{cls}_{k:02d}.pgm", image)
                fio.write_pnm(train_dir / cls / f"{k:02d}.pgm", image)
        heldout = [(cls, _oriented_texture(cls, rng))
                   for cls in classes for _ in range(6)]
        cfg = tmp_path / "config.json"
        cfg.write_text("{}")
        cb_path, model_path = tmp_path / "cb.txt", tmp_path / "svm.txt"
        assert main(["train-vocab", "--config", str(cfg), "--in", str(images),
                     "--out", str(cb_path)]) == 0
        assert main(["train-svm", "--config", str(cfg), "--vocab", str(cb_path),
                     "--in", str(train_dir), "--out", str(model_path)]) == 0
        codebook, model = vocab.load_codebook(cb_path), svm.load_model(model_path)
        correct = sum(svm.predict(model, vocab.bow_histogram(
            vocab.extract_descriptors(image), codebook))[0] == cls
            for cls, image in heldout)
        assert correct / len(heldout) >= 0.9
