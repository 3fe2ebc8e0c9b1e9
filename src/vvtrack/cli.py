"""Command-line entry point.

Subcommands: generate, train-vocab, train-svm, detect, eval, and
pipeline (alias track: detect -> recognize -> track -> score).  Exit
codes: 0 success, 1 usage error, 2 data/model error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import background as bgmod
from . import frames as fio
from . import metrics as met
from . import pipeline as pl
from . import scenes, shadows, svm, vocab
from .config import ConfigError, load_config
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
    gen.set_defaults(run=cmd_generate)

    for name, run in (("train-vocab", cmd_train_vocab), ("train-svm", cmd_train_svm),
                      ("detect", cmd_detect), ("eval", cmd_eval),
                      ("pipeline", cmd_track)):
        p = sub.add_parser(name, aliases=["track"] if name == "pipeline" else [])
        p.set_defaults(run=run)
        if name != "eval":
            p.add_argument("--config", required=True)
        if name in ("train-vocab", "pipeline"):
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


def cmd_generate(args, cfg) -> None:
    scene = scenes.build_scene(args.scene, args.frames, seed=args.seed)
    frames, truth = fio.generate_synthetic(scene, args.frames)
    out = Path(args.out)
    names = [f"frame_{t:04d}.ppm" for t in range(len(frames))]
    stale = sorted({p.name for p in out.glob(fio.FRAME_GLOB)} - set(names))
    if stale:
        # read_sequence would splice them onto the new sequence.
        raise FrameError(f"{out} holds {len(stale)} frames this run would not "
                         f"replace, first {stale[0]}; write to another directory")
    out.mkdir(parents=True, exist_ok=True)
    for name, frame in zip(names, frames):
        fio.write_pnm(out / name, frame)
    fio.write_truth(out / "truth.jsonl", truth)
    print(f"wrote {len(frames)} frames to {out}")


def _load_gray_images(directory):
    """The gray images of a directory in name order, each read when reached."""
    paths = sorted(Path(directory).glob("*.p?m"))
    if not paths:
        raise FrameError(f"{directory}: no PGM/PPM images found")
    return map(fio.to_grayscale, map(fio.read_pnm, paths))


def cmd_train_vocab(args, cfg) -> None:
    vcfg = cfg["vocabulary"]
    vectors = np.concatenate([vocab.extract_descriptors(
        image, grid_stride=vcfg["grid_stride"], patch=vcfg["patch"]).vector
        for image in _load_gray_images(args.in_dir)])
    codebook = vocab.kmeans(vectors[vectors.any(axis=1)], vcfg["K"], seed=cfg["seed"])
    vocab.save_codebook(args.out, codebook)
    print(f"codebook with K={codebook.K} written to {args.out}")


def cmd_train_svm(args, cfg) -> None:
    vcfg = cfg["vocabulary"]
    ccfg = cfg["classifier"]
    codebook = vocab.load_codebook(args.vocab)
    samples, labels = [], []
    root = Path(args.in_dir)
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for image in _load_gray_images(class_dir):
            descs = vocab.extract_descriptors(image, grid_stride=vcfg["grid_stride"],
                                              patch=vcfg["patch"])
            samples.append(vocab.bow_histogram(descs, codebook))
            labels.append(class_dir.name)
    model = svm.train_svm(samples, labels, C=ccfg["C"], c_offset=ccfg["c_offset"])
    svm.save_model(args.out, model)
    print(f"SVM over classes {model.classes} written to {args.out}")


def cmd_detect(args, cfg) -> None:
    """Write each frame's mask and detections.jsonl record as its result arrives.

    detections.jsonl appears only once every frame is done, and an earlier
    run's is deleted before the first mask, so a failed run leaves none;
    the masks of an earlier, longer sequence are deleted at the end.
    """
    frames = fio.read_sequence(args.in_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "detections.jsonl").unlink(missing_ok=True)
    written = 0

    def records():
        nonlocal written
        for res in pl.iter_detections(frames, cfg):
            fio.write_mask_pgm(out / f"mask_{res.frame:04d}.pgm", res.mask)
            written += 1
            yield {"frame": res.frame, "T_b": res.T_b,
                   "blobs": [asdict(b) for b in res.blobs]}

    fio.write_jsonl(out / "detections.jsonl", records())
    fio.remove_others(out, "mask_[0-9]*.pgm", {f"mask_{t:04d}.pgm" for t in range(written)})
    print(f"wrote {written} masks to {out}")


def _or_na(value, form: str) -> str:
    """value in form, or n/a for a quantity that was not measured."""
    return "n/a" if value is None else format(value, form)


def cmd_track(args, cfg) -> None:
    records, report = pl.run_pipeline(args.in_dir, args.out, cfg)
    print(f"tracked {len({r.id for r in records})} objects over "
          f"{len({r.frame for r in records})} frames")
    if report is not None:
        print(f"success rate {_or_na(report.success_rate, '.3f')}, "
              f"fp/frame {report.fp_per_frame:.3f}")


def cmd_eval(args, cfg) -> None:
    tracks = fio.read_jsonl(args.tracks)
    truth = fio.read_jsonl(args.truth)
    report = met.evaluate_tracks(tracks, truth)
    met.write_report_csv(args.out, report)
    err = report.mean_center_error
    print(f"success rate {_or_na(report.success_rate, '.3f')}, "
          f"mean center error {'n/a' if err is None else f'{err:.2f} px'}, "
          f"fp/frame {report.fp_per_frame:.3f}, "
          f"id switches {report.id_switches}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        cfg = None
        if "config" in args:
            cfg = load_config(args.config)
            if getattr(args, "seed", None) is not None:
                cfg["seed"] = args.seed
        args.run(args, cfg)
        return 0
    except (ConfigError, FrameError, OSError, pl.PipelineError,
            met.MetricsError, svm.SvmError, vocab.VocabularyError,
            bgmod.BackgroundError, shadows.ShadowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
