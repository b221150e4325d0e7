"""Command-line surface: synth, train, evaluate, diagnose, gradcheck.

Exit codes follow one contract across commands: 0 success, 1 runtime
failure (unreadable inputs, aborted training), 2 usage error (bad flags
or config values, with usage text on stderr). The CATU_LOG environment
variable ({error, warn, info, debug}) controls log verbosity.

Config precedence is flag > file > default. The fully resolved
configuration is echoed next to the training checkpoint so a run can be
reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import data_io as dio
from . import diagnosis as dx
from . import gradcheck as gc
from .artifacts import write_atomic
from .model import CatUNetConfig, CheckpointError, build, load_checkpoint, save_checkpoint
from .rng import Rng
from .training import TrainingConfig, train

logger = logging.getLogger("catunet.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(ValueError):
    """Bad flag or config-file values; maps to exit code 2."""


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _configure_logging() -> None:
    name = os.environ.get("CATU_LOG", "warn").lower()
    if name not in _LOG_LEVELS:
        raise UsageError(f"CATU_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name],
                        format="%(levelname)s %(name)s: %(message)s")


# --------------------------------------------------------------------------
# Config merging: flag > file > dataclass default


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file '{path}' must hold a JSON object")
    unknown = set(raw) - {"model", "training", "threshold"}
    if unknown:
        raise UsageError(f"config file '{path}' has unknown sections {sorted(unknown)}; "
                         "expected model/training/threshold")
    return raw


def _merge_section(cls, file_cfg: dict, section: str, overrides: dict):
    """Instantiate a config dataclass from one file section plus flag
    overrides.

    A file value must be a JSON number of its field's kind: an integer
    where the default is an int, any number otherwise (every other
    default is a float or, for an optional float, None).
    """
    file_section = file_cfg.get(section, {})
    if not isinstance(file_section, dict):
        raise UsageError(f"config section '{section}' must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(file_section) - set(defaults)
    if unknown:
        raise UsageError(f"unknown {cls.__name__} keys in config file: {sorted(unknown)}")
    for key, value in file_section.items():
        kinds = (int,) if type(defaults[key]) is int else (int, float)
        if type(value) not in kinds:  # bool is an int subclass; refuse it
            kind = "an integer" if kinds == (int,) else "a number"
            raise UsageError(f"config key '{section}.{key}' must be {kind}, "
                             f"got {value!r}")
    merged = dict(file_section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except (ValueError, OverflowError) as exc:  # an integer beyond float range
        raise UsageError(str(exc)) from exc


def _echo_resolved(path: str, model_cfg: CatUNetConfig,
                   train_cfg: TrainingConfig, paths: dict) -> None:
    payload = {
        "model": dataclasses.asdict(model_cfg),
        "training": dataclasses.asdict(train_cfg),
        "paths": paths,
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Commands


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        config = dio.SynthConfig(image_size=args.size, n_positive=args.n_pos,
                                 n_negative=args.n_neg, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    manifest = dio.synthesize(config, args.out)
    print(f"wrote {manifest['n_positive']} positive + {manifest['n_negative']} "
          f"negative images to {args.out}")
    return 0


def _load_positives_stack(root: str, size: int, channels: int) -> np.ndarray:
    positives, _, _ = dio.load_dataset(root)
    if not positives:
        raise ValueError(f"dataset '{root}' has no positive samples to train on")
    stacked = [dio.preprocess(s, size, channels).pixels for s in positives]
    return np.stack(stacked)


def cmd_train(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    model_cfg = _merge_section(CatUNetConfig, file_cfg, "model", {
        "input_size": args.size, "depth": args.depth,
        "base_channels": args.base, "dropout_rate": args.dropout,
    })
    train_cfg = _merge_section(TrainingConfig, file_cfg, "training", {
        "epochs": args.epochs, "batch_size": args.batch,
        "learning_rate": args.lr, "seed": args.seed,
    })

    data = _load_positives_stack(args.data, model_cfg.input_size,
                                 model_cfg.input_channels)
    logger.info("training on %d positive samples at %dx%d", data.shape[0],
                model_cfg.input_size, model_cfg.input_size)
    model = build(model_cfg, Rng(train_cfg.seed))
    _ensure_parent(args.out)
    model, report = train(model, data, train_cfg, checkpoint_path=args.out)
    if report.best_checkpoint is None:
        save_checkpoint(model, args.out)  # e.g. --epochs 0

    stem = os.path.splitext(args.out)[0]
    report.to_csv(stem + ".train.csv")
    _echo_resolved(stem + ".config.json", model_cfg, train_cfg,
                   {"data": args.data, "checkpoint": args.out})
    best = ("none" if report.best_epoch is None
            else f"epoch {report.best_epoch} (val {report.best_val_loss:.6g})")
    print(f"checkpoint: {args.out}\nreport: {stem}.train.csv\nbest: {best}")
    return 0


def _load_model(path: str):
    try:
        return load_checkpoint(path)
    except (OSError, CheckpointError) as exc:
        raise RuntimeError(f"cannot load model '{path}': {exc}") from exc


def cmd_evaluate(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    threshold_cfg = _merge_section(dx.ThresholdConfig, file_cfg, "threshold", {
        "sample_threshold": args.threshold,
        "pixel_threshold": args.pixel_threshold,
    })

    model = _load_model(args.model)
    # only the preprocessed samples stay referenced: the raw images go
    # once the comprehension ends
    samples = [dio.preprocess(s, model.config.input_size, model.config.input_channels)
               for group in dio.load_dataset(args.data)[:2] for s in group]
    if not samples:
        raise ValueError(f"dataset '{args.data}' holds no samples")

    results, report = dx.evaluate(model, samples, threshold_cfg, with_masks=args.masks)

    _ensure_parent(args.report)
    report.write_json(args.report)
    stem = os.path.splitext(args.report)[0]
    report.confusion.to_csv(stem + ".confusion.csv")
    dx.write_jsonl(results, stem + ".samples.jsonl")

    rows = [("samples", f"{len(samples)}"),
            ("reconstruction_accuracy", f"{report.reconstruction_accuracy:.4f}"),
            ("sample_threshold", f"{threshold_cfg.sample_threshold:g}")]
    for name in ("accuracy", "sensitivity", "specificity"):
        value = getattr(report.confusion, name)
        if value is not None:
            rows.append((name, f"{value:.4f}"))
    if report.dice is not None:
        rows.append(("mean_dice", f"{report.dice:.4f}"))
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    print(f"report: {args.report}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    threshold_cfg = _merge_section(dx.ThresholdConfig, {}, "threshold",
                                   {"sample_threshold": args.threshold})
    model = _load_model(args.model)
    sample = dio.preprocess(dio.load_image(args.image), model.config.input_size,
                            model.config.input_channels)
    result = dx.diagnose(model, sample.id, sample.pixels, threshold_cfg,
                         with_mask=args.mask_out is not None)
    if args.mask_out is not None:
        _ensure_parent(args.mask_out)
        dio.write_pgm(args.mask_out, (result.mask * 255).astype(np.uint8))
        result.mask_path = args.mask_out
    print(result.to_json_line())
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    errs = gc.run_suite(args.seed)
    failing = [name for name in sorted(errs) if errs[name] >= gc.tolerance(name)]
    width = max(len(name) for name in errs)
    for name in sorted(errs):
        status = "FAIL" if name in failing else "ok"
        print(f"{name:<{width}}  {errs[name]:.3e}  {status}")
    if not failing:
        return 0
    print(f"gradient check FAILED for: {', '.join(failing)}", file=sys.stderr)
    return 1


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catunet",
        description="Reconstruction-based image diagnosis: synthesize data, "
                    "train, evaluate, diagnose, verify gradients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n-pos", type=int, default=100)
    p.add_argument("--n-neg", type=int, default=50)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset's positive samples")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--config", help="JSON config file (model/training sections)")
    p.add_argument("--out", default="model.catu", help="checkpoint path")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--size", type=int, help="model input size")
    p.add_argument("--depth", type=int)
    p.add_argument("--base", type=int, help="first-level channel count")
    p.add_argument("--dropout", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a labeled dataset against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON config file (threshold section)")
    p.add_argument("--threshold", type=float, help="sample MSE threshold (default 50)")
    p.add_argument("--pixel-threshold", type=float,
                   help="error-mask pixel threshold (default: Otsu per image)")
    p.add_argument("--report", default="metrics.json", help="metrics JSON path")
    p.add_argument("--masks", action="store_true",
                   help="also compute Dice against ground-truth masks")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="score one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--threshold", type=float, help="sample MSE threshold (default 50)")
    p.add_argument("--mask-out", help="write the binarized error map here (PGM)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'catunet {args.command} --help' for usage", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
