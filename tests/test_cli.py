import json
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _oriented_texture
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
        def fail(g, tol=1e-6):
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
        "generate", "train-vocab", "train-svm", "detect", "eval", "pipeline", "track"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_flag_is_usage_error(self, tmp_path, capsys, command, seed):
        args = {"generate": ["--out", str(tmp_path / "o"), "--scene", "one_rect"],
                "train-vocab": ["--in", str(tmp_path), "--out", str(tmp_path / "cb")],
                "train-svm": ["--vocab", "cb", "--in", str(tmp_path), "--out", "m"],
                "eval": ["--tracks", "t", "--truth", "u", "--out", "e"]}.get(
                    command, ["--in", str(tmp_path), "--out", str(tmp_path / "o")])
        if command != "generate":
            args += ["--config", _config(tmp_path)]
        assert main([command, *args, "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestGenerate:
    def test_writes_frames_and_truth(self, tmp_path):
        out = _generate(tmp_path, frames=5)
        ppms = sorted(out.glob("frame_*.ppm"))
        assert len(ppms) == 5
        assert (out / "truth.jsonl").exists()
        frame = fio.read_pnm(ppms[0])
        assert frame.ndim == 3

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


    def test_shadow_removal_refuses_grayscale(self, tmp_path, capsys):
        seq = _generate_gray(tmp_path, scene="shadowed", frames=4)
        cfg = _config(tmp_path, shadow={"enabled": True})
        assert main(["detect", "--config", cfg, "--in", str(seq),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "shadow removal needs RGB input" in err


class TestTrackAndEval:
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
