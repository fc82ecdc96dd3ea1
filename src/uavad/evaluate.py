"""Reconstruction metrics, anomaly-task accuracy, and the four-variant benchmark."""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adnet import VARIANTS, Checkpoint, Dataset
from .adnet import forward  # noqa: F401  (perfbench/spans.py traces evaluate.forward)
from .detect import detection_masks
from .grid import CATEGORY_IDS, GpsLabel, GridTensor
from .world import AnomalyCase, WorldSpec, load_scenes, read_benchmark

__all__ = [
    "MetricCounts",
    "prf1",
    "mse",
    "reconstruction_metrics",
    "task_accuracy",
    "mse_on_scenes",
    "run_benchmark",
    "format_table",
]

logger = logging.getLogger("uavad.evaluate")


@dataclass(frozen=True)
class MetricCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("metric counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def prf1(c: MetricCounts) -> tuple[float, float, float]:
    """Precision, recall, F1 with all-empty denominators counting as perfect."""
    precision = 1.0 if c.tp + c.fp == 0 else c.tp / (c.tp + c.fp)
    recall = 1.0 if c.tp + c.fn == 0 else c.tp / (c.tp + c.fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared per-element error."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_hat, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


# ---------------------------------------------------------------------------
# Batched model evaluation
# ---------------------------------------------------------------------------


def reconstruction_metrics(
    checkpoint: Checkpoint,
    scenes: Sequence[tuple[GridTensor, GpsLabel]],
    threshold: float = 0.5,
    gps_labels: Sequence[GpsLabel] | None = None,
) -> tuple[MetricCounts, tuple[float, float, float]]:
    """Confusion counts and (precision, recall, f1) over a scene set.

    A missing cell is a false negative and an added cell a false positive.
    ``gps_labels`` substitutes the scenes' own labels when given — used to
    measure how much reconstruction relies on correct GPS conditioning.
    """
    data = Dataset.from_scenes(scenes)
    gps = data.gps
    if gps_labels is not None:
        if len(gps_labels) != len(scenes):
            raise ValueError("gps override length does not match scenes")
        gps = np.array([[g.latitude, g.longitude] for g in gps_labels], dtype=np.float64)
    missing, added = detection_masks(data.x, checkpoint.reconstruct(data.x, gps), threshold)
    fn = int(missing.sum())
    fp = int(added.sum())
    occupied = int(data.x.sum())
    counts = MetricCounts(tp=occupied - fn, fp=fp, fn=fn, tn=data.x.size - occupied - fp)
    return counts, prf1(counts)


def task_accuracy(
    checkpoint: Checkpoint,
    records: Sequence[tuple[GridTensor, GpsLabel, AnomalyCase]],
    threshold: float = 0.5,
) -> float:
    """Fraction of injected cells that detection flags as missing.

    Matches scoring a full detection report per scene, without building
    the reports.
    """
    if not records:
        raise ValueError("no benchmark records to score")
    data = Dataset.from_scenes((g, gps) for g, gps, _ in records)
    missing, _ = detection_masks(data.x, checkpoint.reconstruct(data.x, data.gps), threshold)
    rows, cols, cats = checkpoint.config.grid.cells_y, checkpoint.config.grid.cells_x, checkpoint.config.n_o
    missing = missing.reshape(-1, rows, cols, cats)
    correct = 0
    for i, (_, _, case) in enumerate(records):
        if missing[i, case.row, case.col, CATEGORY_IDS[case.category]]:
            correct += 1
    return correct / len(records)


def mse_on_scenes(
    checkpoint: Checkpoint, scenes: Sequence[tuple[GridTensor, GpsLabel]]
) -> float:
    data = Dataset.from_scenes(scenes)
    return mse(data.x, checkpoint.reconstruct(data.x, data.gps))


# ---------------------------------------------------------------------------
# Benchmark orchestration
# ---------------------------------------------------------------------------


def run_benchmark(
    world: WorldSpec,
    data_dir: str,
    checkpoints: dict[str, Checkpoint],
    bench_dir: str,
    out_path: str | None = None,
    threshold: float = 0.5,
) -> dict:
    """Reconstruction metrics plus per-task accuracy for every variant.

    ``data_dir`` must hold val.jsonl and test.jsonl; ``bench_dir`` must hold
    task1.jsonl, task2.jsonl, task3.jsonl. Writes a JSON result document
    when ``out_path`` is given.
    """
    for variant in VARIANTS:
        if variant not in checkpoints:
            raise ValueError(f"missing checkpoint for variant {variant!r}")

    paths = {
        "val": os.path.join(data_dir, "val.jsonl"),
        "test": os.path.join(data_dir, "test.jsonl"),
        "task1": os.path.join(bench_dir, "task1.jsonl"),
        "task2": os.path.join(bench_dir, "task2.jsonl"),
        "task3": os.path.join(bench_dir, "task3.jsonl"),
    }
    for name, path in paths.items():
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing benchmark artifact {name!r}: {path}")

    val_scenes = load_scenes(paths["val"], world.grid)
    test_scenes = load_scenes(paths["test"], world.grid)
    tasks = {
        f"task{k}": read_benchmark(paths[f"task{k}"], world.grid) for k in (1, 2, 3)
    }

    result: dict = {
        "threshold": threshold,
        "counts": {
            "val_scenes": len(val_scenes),
            "test_scenes": len(test_scenes),
            **{f"{name}_cases": len(records) for name, records in tasks.items()},
        },
        "variants": {},
    }
    for variant in VARIANTS:
        ckpt = checkpoints[variant]
        _, (precision, recall, f1) = reconstruction_metrics(ckpt, test_scenes, threshold)
        entry = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "val_mse": mse_on_scenes(ckpt, val_scenes),
        }
        for name, records in tasks.items():
            entry[f"{name}_acc"] = task_accuracy(ckpt, records, threshold)
        result["variants"][variant] = entry
        logger.info(
            "%s: f1 %.4f task1 %.4f task2 %.4f task3 %.4f",
            variant,
            f1,
            entry["task1_acc"],
            entry["task2_acc"],
            entry["task3_acc"],
        )

    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
    return result


def format_table(result: dict) -> str:
    """Fixed-width text table over the benchmark result, variant order preserved."""
    header = f"{'variant':<18} {'prec':>7} {'recall':>7} {'f1':>7} {'task1':>7} {'task2':>7} {'task3':>7} {'val_mse':>9}"
    lines = [header, "-" * len(header)]
    for variant, e in result["variants"].items():
        lines.append(
            f"{variant:<18} {e['precision']:>7.4f} {e['recall']:>7.4f} {e['f1']:>7.4f} "
            f"{e['task1_acc']:>7.4f} {e['task2_acc']:>7.4f} {e['task3_acc']:>7.4f} "
            f"{e['val_mse']:>9.6f}"
        )
    return "\n".join(lines)
