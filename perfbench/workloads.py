"""The four benchmark workloads: inputs from a seed, one pass of jobs, checks.

Each workload writes or builds its inputs in ``setup`` (timed as set-up),
exposes one pass of jobs (the operations counted as attempted), checks
every job's output, and derives its quality metrics from the first pass.
Jobs are deterministic for a seed, so later passes must repeat the first.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from layers import neumann_residual
from tracing import probe
from vvtrack import cli
from vvtrack import frames as fio
from vvtrack import metrics as met
from vvtrack import pipeline as pl
from vvtrack import recognition as rec
from vvtrack import scenes, shadows, svm, vocab
from vvtrack import tracker as trk
from vvtrack.config import merge_config


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Workload:
    name = ""
    job_metrics: dict = {}  # job name -> metric reporting its median time

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.seed = seed
        self.reference = {}  # job name -> first output's comparable form

    def setup(self) -> None:
        raise NotImplementedError

    def jobs(self):
        """One pass: list of (job name, callable returning the output)."""
        raise NotImplementedError

    def check(self, job, output) -> None:
        raise NotImplementedError

    def probes(self):
        return []

    def quality(self) -> dict:
        """Quality metrics of the first pass: name -> (value, unit)."""
        raise NotImplementedError

    def _same_as_first(self, job, key):
        first = self.reference.setdefault(job, key)
        require(key == first, f"{job}: output differs from the first pass")


# ---------------------------------------------------------------------------
# pipeline_2obj: the criterion-12 sequence through run_pipeline
# ---------------------------------------------------------------------------

def criterion12_scene(n=100, noise_seed=0):
    """The criterion-12 two-object sequence (64 x 337 for n = 100)."""
    width = 14 + 3 * (n - 1) + 12 + 14
    a = fio.SceneObject(shape="rect",
                        trajectory=fio.linear_trajectory((14, 14), (3, 0), (12, 12), n),
                        albedo=(0.9, 0.85, 0.2))
    b = fio.SceneObject(shape="ellipse",
                        trajectory=fio.linear_trajectory((width - 26, 46), (-3, 0),
                                                         (14, 12), n),
                        albedo=(0.15, 0.2, 0.85))
    return fio.SyntheticScene(width=width, height=64, background=0.55,
                              objects=[a, b], noise_sigma=0.02, seed=noise_seed)


class Pipeline2Obj(Workload):
    """The seed is the tracker seed; the sequence is criterion 12's own."""

    name = "pipeline_2obj"
    n_frames = 100

    def setup(self):
        frames, truth = fio.generate_synthetic(criterion12_scene(self.n_frames),
                                               self.n_frames)
        self.seq = self.root / "seq"
        self.seq.mkdir(parents=True)
        for t, frame in enumerate(frames):
            fio.write_pnm(self.seq / f"frame_{t:04d}.ppm", frame)
        fio.write_truth(self.seq / "truth.jsonl", truth)
        self.cfg = merge_config({"background": {"burn_in": 40},
                                 "shadow": {"min_blob_area": 20},
                                 "tracker": {"track_scale": False},
                                 "seed": self.seed})
        self.runs = 0
        self.report = None

    def jobs(self):
        return [("pipeline", self._run)]

    def _run(self):
        out = self.root / f"out{self.runs}"
        self.runs += 1
        _, report = pl.run_pipeline(self.seq, out, self.cfg, seed=self.seed)
        return out, report

    def check(self, job, output):
        out, report = output
        try:
            tracks = (out / "tracks.jsonl").read_bytes()
            n_annotated = len(list((out / "annotated").glob("frame_*.ppm")))
            has_csv = (out / "metrics.csv").is_file()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        require(n_annotated == self.n_frames, f"{n_annotated} annotated frames")
        require(has_csv, "metrics.csv missing")
        require(report is not None, "no tracking report")
        require(report.success_rate >= 0.7,
                f"success {report.success_rate:.3f} < 0.7")
        require(report.fp_per_frame <= 0.2,
                f"fp/frame {report.fp_per_frame:.3f} > 0.2")
        self._same_as_first(job, tracks)
        self.report = self.report or report

    def quality(self):
        r = self.report
        return {"track_success": (r.success_rate, "ratio"),
                "center_err_px": (r.mean_center_error, "px"),
                "id_switches": (r.id_switches, "count"),
                "fp_per_frame": (r.fp_per_frame, "1/frame")}


# ---------------------------------------------------------------------------
# track_cross2: cross2 sequences straight into track_sequence
# ---------------------------------------------------------------------------

class TrackCross2(Workload):
    """Sequence i of seed n uses scene and tracker seed n * 3 + i (criterion 11)."""

    name = "track_cross2"
    n_sequences = 3
    n_frames = 40

    def setup(self):
        self.cfg = trk.TrackerConfig(n_particles=30, n_iters=10, track_scale=False)
        self.sequences = []
        for i in range(self.n_sequences):
            seed = self.seed * self.n_sequences + i
            frames, truth = fio.generate_synthetic(
                scenes.build_scene("cross2", self.n_frames, seed=seed), self.n_frames)
            grays = [fio.to_grayscale(f) for f in frames]
            boxes = [tuple(o["box"]) for o in truth[0]["objects"]]
            self.sequences.append((seed, grays, boxes, truth))
        self.records = {}
        self.share_errors = []

    def jobs(self):
        return [(f"seq{seed}", lambda g=grays, b=boxes, s=seed:
                 trk.track_sequence(g, b, self.cfg, seed=s))
                for seed, grays, boxes, _ in self.sequences]

    def probes(self):
        def shares(args, kwargs, arena):
            total = sum(arena.interactive.values())
            if abs(total - 1.0) > 1e-12:
                self.share_errors.append(total)
        return [probe(trk, "compete", shares)]

    def check(self, job, records):
        errors, self.share_errors = self.share_errors, []
        if errors:
            raise CheckFailed(f"{job}: competition shares sum to {errors[0]!r}")
        require(records, f"{job}: no records")
        self._same_as_first(job, [(r.frame, r.id, r.cx, r.cy, r.s, r.w, r.h, r.fit)
                                  for r in records])
        self.records.setdefault(job, records)

    def quality(self):
        reports = [met.evaluate_tracks(self.records[f"seq{seed}"], truth)
                   for seed, _, _, truth in self.sequences]
        return {"track_success": (float(np.mean([r.success_rate for r in reports])),
                                  "ratio"),
                "center_err_px": (float(np.mean([r.mean_center_error
                                                 for r in reports])), "px"),
                "id_switches": (sum(r.id_switches for r in reports), "count")}


# ---------------------------------------------------------------------------
# shadow_detect: the shadowed scene through detect_sequence, shadows on
# ---------------------------------------------------------------------------

class ShadowDetect(Workload):
    name = "shadow_detect"
    n_frames = 40
    max_rel_residual = 1e-6

    def setup(self):
        scene = scenes.build_scene("shadowed", self.n_frames, seed=self.seed,
                                   noise=0.01)
        self.frames, self.truth = fio.generate_synthetic(scene, self.n_frames)
        self.cfg = merge_config({"shadow": {"enabled": True}, "seed": self.seed})
        self.residuals = []
        self.results = None

    def jobs(self):
        return [("detect", lambda: pl.detect_sequence(self.frames, self.cfg))]

    def probes(self):
        def residual(args, kwargs, s):
            g = args[0] if args else kwargs["g"]
            self.residuals.append(neumann_residual(g, s))
        return [probe(shadows, "poisson_reconstruct", residual)]

    def check(self, job, results):
        residuals, self.residuals = self.residuals, []
        shape = self.frames[0].shape[:2]
        require(len(results) == self.n_frames, f"{len(results)} detection results")
        require(all(r.mask.shape == shape and r.mask.dtype == bool for r in results),
                "mask shape differs from the frame shape")
        require(len(residuals) == self.n_frames, f"{len(residuals)} Poisson solves")
        worst = max(residuals)
        require(worst <= self.max_rel_residual,
                f"Poisson relative residual {worst:.3g} > {self.max_rel_residual}")
        self._same_as_first(job, b"".join(np.packbits(r.mask).tobytes()
                                          for r in results))
        self.results = self.results or results

    def quality(self):
        burn_in = int(self.cfg["background"]["burn_in"])
        f1s, on_shadow, predicted = [], 0, 0
        for res, truth in zip(self.results, self.truth):
            if res.frame < burn_in:
                continue
            shape = tuple(truth["shape"])
            f1s.append(met.mask_f1(res.mask, fio.rle_decode(truth["motion_rle"], shape)))
            on_shadow += int((res.mask & fio.rle_decode(truth["shadow_rle"], shape)).sum())
            predicted += int(res.mask.sum())
        return {"mask_f1": (float(np.mean(f1s)), "ratio"),
                "shadow_in_mask": (on_shadow / predicted if predicted else 0.0, "ratio")}


# ---------------------------------------------------------------------------
# recognition: codebook + SVM training through the CLI, then ISM recognition
# ---------------------------------------------------------------------------

TEXTURE_CLASSES = ("horiz", "vert", "diag")
SQUARE_CENTER = (40.0, 24.0)


def oriented_texture(cls, rng):
    """A criterion-13 texture: a noisy sinusoid along the class direction."""
    yy, xx = np.mgrid[0:64, 0:64]
    freq = rng.uniform(0.25, 0.5)
    phase = rng.uniform(0, 2 * np.pi)
    if cls == "horiz":
        img = 0.5 + 0.35 * np.sin(freq * yy + phase)
    elif cls == "vert":
        img = 0.5 + 0.35 * np.sin(freq * xx + phase)
    else:
        img = 0.5 + 0.35 * np.sin(freq * (xx + yy) / np.sqrt(2) + phase)
    return np.clip(img + rng.normal(0, 0.03, img.shape), 0, 1)


def textured_square(seed, box, size=64):
    """Gray frame with a random-texture square at box (x, y, w, h)."""
    rng = np.random.default_rng(seed)
    frame = np.full((size, size), 0.5)
    x, y, w, h = box
    frame[y:y + h, x:x + w] = rng.random((h, w)) * 0.8 + 0.1
    return frame


class Recognition(Workload):
    """Train: textures from default_rng(seed).  Recognize: squares seeded 10n+k."""

    name = "recognition"
    job_metrics = {"train": "train_s", "recognize": "recognize_s"}
    train_per_class = 8
    heldout_per_class = 6

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.vocab_dir = self.root / "vocab"
        self.train_dir = self.root / "train"
        self.vocab_dir.mkdir(parents=True)
        for cls in TEXTURE_CLASSES:
            (self.train_dir / cls).mkdir(parents=True)
            for k in range(self.train_per_class):
                image = oriented_texture(cls, rng)
                fio.write_pnm(self.vocab_dir / f"{cls}_{k:02d}.pgm", image)
                fio.write_pnm(self.train_dir / cls / f"{k:02d}.pgm", image)
        self.heldout = [(cls, oriented_texture(cls, rng)) for cls in TEXTURE_CLASSES
                        for _ in range(self.heldout_per_class)]
        self.config = self.root / "config.json"
        self.config.write_text(f'{{"seed": {self.seed}}}\n')
        self.codebook_path = self.root / "codebook.txt"
        self.model_path = self.root / "model.txt"
        self.squares = [(textured_square(10 * self.seed + k, (20, 20, 24, 24)),
                         "sq", (32.0, 32.0), 24.0) for k in range(3)]
        self.test_frame = textured_square(10 * self.seed + 9, (28, 12, 24, 24))
        self.outputs = {}

    def jobs(self):
        return [("train", self._train), ("recognize", self._recognize)]

    def _train(self):
        codes = (
            cli.main(["train-vocab", "--config", str(self.config), "--in",
                      str(self.vocab_dir), "--out", str(self.codebook_path)]),
            cli.main(["train-svm", "--config", str(self.config), "--vocab",
                      str(self.codebook_path), "--in", str(self.train_dir),
                      "--out", str(self.model_path)]))
        codebook = vocab.load_codebook(self.codebook_path)
        model = svm.load_model(self.model_path)
        predictions = [svm.predict(model, vocab.bow_histogram(
            vocab.extract_descriptors(image), codebook))[0]
            for _, image in self.heldout]
        return codes, codebook, model, predictions

    def _recognize(self):
        descs = [d.vector for frame, *_ in self.squares
                 for d in vocab.extract_descriptors(frame) if np.any(d.vector)]
        codebook = vocab.kmeans(np.asarray(descs), 10, seed=self.seed)
        table = rec.learn_occurrences(self.squares, codebook)
        return rec.recognize_frame(self.test_frame, codebook, table, b0=0.4)

    def check(self, job, output):
        if job == "train":
            codes, codebook, model, predictions = output
            require(codes == (0, 0), f"train-vocab/train-svm exit codes {codes}")
            require(codebook.words.shape == (200, 128),
                    f"reloaded codebook shape {codebook.words.shape}")
            require(list(model.classes) == sorted(TEXTURE_CLASSES),
                    f"reloaded model classes {model.classes}")
            self._same_as_first(job, (self.codebook_path.read_bytes(),
                                      self.model_path.read_bytes(), predictions))
        else:
            require(output, "no hypotheses")
            hyp, label = output[0]
            require(label == "sq", f"top hypothesis labelled {label!r}")
            self._same_as_first(job, [(h.x, h.y, h.s, h.score, lab)
                                      for h, lab in output])
        self.outputs.setdefault(job, output)

    def quality(self):
        predictions = self.outputs["train"][3]
        correct = sum(p == cls for p, (cls, _) in zip(predictions, self.heldout))
        hyp = self.outputs["recognize"][0][0]
        return {"classify_acc": (correct / len(self.heldout), "ratio"),
                "localize_err_px": (float(np.hypot(hyp.x - SQUARE_CENTER[0],
                                                   hyp.y - SQUARE_CENTER[1])), "px")}


WORKLOADS = {w.name: w for w in (Pipeline2Obj, TrackCross2, ShadowDetect, Recognition)}
