"""Command-line entry point.

Subcommands cover the whole pipeline: ``generate`` a synthetic dataset,
``inject`` anomalies into scenes, ``train`` a model variant, ``detect``
anomalies with a checkpoint, ``eval`` the four-variant benchmark, ``render``
a scene as text, and ``gradcheck`` the analytic gradients.

Exit codes: 0 on success, 2 for usage or configuration problems, 3 for
runtime failures. Log verbosity comes from the UAVAD_LOG environment
variable (debug/info/warning/error; default warning); logs go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import adnet, detect as detect_mod, evaluate, grid, world as world_mod
from .nn import Rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

logger = logging.getLogger("uavad.cli")


class ConfigError(Exception):
    """Bad flags, files, or configuration; maps to exit code 2."""


def _setup_logging() -> None:
    level_name = os.environ.get("UAVAD_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _load_world(path: str | None) -> world_mod.WorldSpec:
    if path is None:
        return world_mod.default_world()
    return world_mod.load_world(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    w = _load_world(args.world)
    manifest = world_mod.build_dataset(w, args.n, args.out, args.seed)
    print(json.dumps(manifest))
    return EXIT_OK


def _cmd_inject(args: argparse.Namespace) -> int:
    w = _load_world(args.world)
    scenes = world_mod.load_scenes(args.data, w.grid)
    rng = Rng(args.seed)
    records = world_mod.build_benchmark(w, scenes, args.task, rng)
    if not records:
        logger.error("no scene was eligible for task %d injection", args.task)
        return EXIT_RUNTIME
    world_mod.write_benchmark(records, args.out)
    print(json.dumps({"task": args.task, "cases": len(records), "out": args.out}))
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    train_path = os.path.join(args.data, "train.jsonl")
    val_path = os.path.join(args.data, "val.jsonl")
    manifest_path = os.path.join(args.data, "manifest.json")
    spec = grid.GridSpec()
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as f:
                spec = grid.GridSpec.from_dict(json.load(f)["grid"])
        except grid.RECORD_ERRORS as e:
            raise ConfigError(f"{manifest_path}: malformed manifest: {e}") from e

    config = adnet.ModelConfig(variant=args.variant, grid=spec, n_h=args.n_h)
    tc = adnet.TrainConfig(
        lr=args.lr,
        batch_size=args.batch,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    train_set = adnet.Dataset.from_scenes(world_mod.load_scenes(train_path, spec))
    val_set = adnet.Dataset.from_scenes(world_mod.load_scenes(val_path, spec))

    checkpoint, history = adnet.train(config, train_set, val_set, tc)
    adnet.save_checkpoint(checkpoint, args.out)
    history_path = args.history or args.out + ".history.json"
    with grid.atomic_write(history_path) as f:
        json.dump([dataclasses.asdict(h) for h in history], f, indent=1)
    print(
        json.dumps(
            {
                "variant": args.variant,
                "epochs_run": checkpoint.training_meta["epochs_run"],
                "best_val_loss": checkpoint.training_meta["best_val_loss"],
                "checkpoint": args.out,
                "history": history_path,
            }
        )
    )
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    ckpt = adnet.load_checkpoint(args.ckpt)
    reports = detect_mod.detect_batch(ckpt, args.input, args.threshold)
    detect_mod.write_reports(reports, args.out)
    flagged = sum(len(r.anomalies) for r in reports)
    print(json.dumps({"reports": len(reports), "anomaly_cells": flagged, "out": args.out}))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    w = _load_world(args.world)
    checkpoints = {}
    for path in args.ckpts:
        ckpt = adnet.load_checkpoint(path)
        variant = ckpt.config.variant
        if variant in checkpoints:
            raise ConfigError(f"duplicate checkpoint for variant {variant!r}: {path}")
        checkpoints[variant] = ckpt
    result = evaluate.run_benchmark(w, args.data, checkpoints, args.bench, args.out)
    print(evaluate.format_table(result))
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    scenes = world_mod.load_scenes(args.input, grid.GridSpec())
    if not 0 <= args.index < len(scenes):
        raise ConfigError(f"scene index {args.index} out of range (file has {len(scenes)})")
    g, _ = scenes[args.index]
    print(grid.render_text(g))
    return EXIT_OK


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    tiny = grid.GridSpec(image_width=64, image_height=64, cells_x=4, cells_y=4)
    tolerance = 1e-4
    worst = 0.0
    for variant in adnet.VARIANTS:
        config = adnet.ModelConfig(variant=variant, grid=tiny, n_o=2, n_h=3)
        errors = adnet.gradient_check(config, seed=args.seed, batch=2)
        variant_worst = max(errors.values())
        worst = max(worst, variant_worst)
        print(f"{variant}: max rel err {variant_worst:.3e}")
    if worst >= tolerance:
        logger.error("gradient check failed: %.3e >= %.0e", worst, tolerance)
        return EXIT_RUNTIME
    print(f"all gradients within {tolerance:.0e} (worst {worst:.3e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavad",
        description="Grid-scene anomaly detection: dataset generation, training, detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic scene dataset")
    p.add_argument("--world", help="world file (built-in world when omitted)")
    p.add_argument("--n", type=int, required=True, help="number of scenes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("inject", help="inject one anomaly per eligible scene")
    p.add_argument("--world", help="world file (built-in world when omitted)")
    p.add_argument("--data", required=True, help="scene JSON-Lines file")
    p.add_argument("--task", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--out", required=True, help="output benchmark file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--variant", choices=adnet.VARIANTS, required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--n-h", type=int, default=32, help="latent width")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--max-epochs", type=int, default=30)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", help="history output path (default: <out>.history.json)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("detect", help="report anomalies for each scene in a file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True, help="scene or benchmark JSON-Lines file")
    p.add_argument("--out", required=True, help="report output file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="run the four-variant benchmark")
    p.add_argument("--world", help="world file (built-in world when omitted)")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--ckpts", nargs=4, required=True, help="four checkpoint paths")
    p.add_argument("--bench", required=True, help="directory with task{1,2,3}.jsonl")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="print a scene as a text grid")
    p.add_argument("--in", dest="input", required=True, help="scene JSON-Lines file")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gradcheck", help="finite-difference check of all variants")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_CONFIG
    try:
        return args.func(args)
    except (
        ConfigError, world_mod.WorldConfigError, adnet.CheckpointError, FileNotFoundError, ValueError
    ) as e:
        logger.error("%s", e)
        return EXIT_CONFIG
    except (world_mod.InjectionError, FloatingPointError, OSError) as e:
        logger.error("%s", e)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
