"""Command-line entry point.

Subcommands: generate, train-vocab, train-svm, detect, eval, and
pipeline (alias track: detect -> recognize -> track -> score).  Exit
codes: 0 success, 1 usage error, 2 data/model error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import background as bgmod
from . import frames as fio
from . import metrics as met
from . import pipeline as pl
from . import scenes, shadows, svm, vocab
from .config import ConfigError, default_config, load_config
from .frames import FrameError

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative ints."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vvtrack")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a synthetic sequence")
    gen.add_argument("--out", required=True)
    gen.add_argument("--scene", required=True, choices=sorted(scenes.SCENES))
    gen.add_argument("--frames", type=int, default=60)
    gen.add_argument("--seed", type=_seed, default=0)

    for name in ("train-vocab", "train-svm", "detect", "eval", "pipeline"):
        p = sub.add_parser(name, aliases=["track"] if name == "pipeline" else [])
        if name != "eval":
            p.add_argument("--config", required=True)
        if name in ("train-vocab", "train-svm", "pipeline"):
            p.add_argument("--seed", type=_seed, default=None,
                           help="override the config seed")
        if name == "train-vocab":
            p.add_argument("--in", dest="in_dir", required=True,
                           help="directory of training images")
            p.add_argument("--out", required=True, help="codebook output path")
        elif name == "train-svm":
            p.add_argument("--vocab", required=True)
            p.add_argument("--in", dest="in_dir", required=True,
                           help="directory with one subdirectory per class")
            p.add_argument("--out", required=True, help="model output path")
        elif name == "eval":
            p.add_argument("--tracks", required=True)
            p.add_argument("--truth", required=True)
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--in", dest="in_dir", required=True)
            p.add_argument("--out", required=True)
    return parser


def cmd_generate(args) -> int:
    scene = scenes.build_scene(args.scene, args.frames, seed=args.seed)
    frames, truth = fio.generate_synthetic(scene, args.frames)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(frames):
        fio.write_pnm(out / f"frame_{t:04d}.ppm", frame)
    fio.write_truth(out / "truth.jsonl", truth)
    print(f"wrote {len(frames)} frames to {out}")
    return 0


def _load_gray_images(directory):
    images = []
    for path in sorted(Path(directory).glob("*.p?m")):
        images.append(fio.to_grayscale(fio.read_pnm(path)))
    if not images:
        raise FrameError(f"{directory}: no PGM/PPM images found")
    return images


def cmd_train_vocab(args, cfg) -> int:
    vcfg = cfg["vocabulary"]
    seed = int(cfg["seed"] if args.seed is None else args.seed)
    vectors = np.concatenate([vocab.extract_descriptors(
        image, grid_stride=int(vcfg["grid_stride"]), patch=int(vcfg["patch"])).vector
        for image in _load_gray_images(args.in_dir)])
    codebook = vocab.kmeans(vectors[vectors.any(axis=1)], int(vcfg["K"]), seed=seed)
    vocab.save_codebook(args.out, codebook)
    print(f"codebook with K={codebook.K} written to {args.out}")
    return 0


def cmd_train_svm(args, cfg) -> int:
    vcfg = cfg["vocabulary"]
    ccfg = cfg["classifier"]
    seed = int(cfg["seed"] if args.seed is None else args.seed)
    codebook = vocab.load_codebook(args.vocab)
    samples, labels = [], []
    root = Path(args.in_dir)
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for image in _load_gray_images(class_dir):
            descs = vocab.extract_descriptors(
                image, grid_stride=int(vcfg["grid_stride"]),
                patch=int(vcfg["patch"]))
            samples.append(vocab.bow_histogram(descs, codebook))
            labels.append(class_dir.name)
    model = svm.train_svm(samples, labels, C=float(ccfg["C"]),
                          c_offset=float(ccfg["c_offset"]), seed=seed)
    svm.save_model(args.out, model)
    print(f"SVM over classes {model.classes} written to {args.out}")
    return 0


def cmd_detect(args, cfg) -> int:
    results = pl.detect_sequence(fio.read_sequence(args.in_dir), cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        fio.write_mask_pgm(out / f"mask_{res.frame:04d}.pgm", res.mask)
    fio.write_jsonl(out / "detections.jsonl", (
        {"frame": res.frame, "T_b": res.T_b,
         "blobs": [{"bbox": list(b.bbox), "area": b.area,
                    "centroid": list(b.centroid)} for b in res.blobs]}
        for res in results))
    print(f"wrote {len(results)} masks to {out}")
    return 0


def cmd_track(args, cfg) -> int:
    records, report = pl.run_pipeline(args.in_dir, args.out, cfg, seed=args.seed)
    print(f"tracked {len({r.id for r in records})} objects over "
          f"{len({r.frame for r in records})} frames")
    if report is not None:
        print(f"success rate {report.success_rate:.3f}, "
              f"fp/frame {report.fp_per_frame:.3f}")
    return 0


def cmd_eval(args) -> int:
    tracks = fio.read_jsonl(args.tracks)
    truth = fio.read_jsonl(args.truth)
    report = met.evaluate_tracks(tracks, truth)
    met.write_report_csv(args.out, report)
    print(f"success rate {report.success_rate:.3f}, "
          f"mean center error {report.mean_center_error:.2f} px, "
          f"fp/frame {report.fp_per_frame:.3f}, "
          f"id switches {report.id_switches}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "eval":
            return cmd_eval(args)
        cfg = load_config(args.config)
        if args.command == "train-vocab":
            return cmd_train_vocab(args, cfg)
        if args.command == "train-svm":
            return cmd_train_svm(args, cfg)
        if args.command == "detect":
            return cmd_detect(args, cfg)
        if args.command in ("track", "pipeline"):
            return cmd_track(args, cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, FrameError, OSError, pl.PipelineError,
            met.MetricsError, svm.SvmError, vocab.VocabularyError,
            bgmod.BackgroundError, shadows.ShadowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
