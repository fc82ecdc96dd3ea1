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
from .grid import CATEGORY_IDS, N_CATEGORIES, atomic_write
from .world import AnomalyCase, WorldSpec, load_scenes, read_benchmark

__all__ = [
    "MetricCounts",
    "prf1",
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


def reconstruction_metrics(
    checkpoint: Checkpoint, data: Dataset, threshold: float = 0.5
) -> tuple[MetricCounts, tuple[float, float, float]]:
    """Confusion counts and (precision, recall, f1) over ``data``'s cells,
    reconstructed from ``data.gps``.

    A missing cell is a false negative and an added cell a false positive.
    """
    missing, added = detection_masks(data.x, checkpoint.reconstruct(data.x, data.gps), threshold)
    fn = int(missing.sum())
    fp = int(added.sum())
    occupied = int(data.x.sum())
    counts = MetricCounts(tp=occupied - fn, fp=fp, fn=fn, tn=data.x.size - occupied - fp)
    return counts, prf1(counts)


def task_accuracy(
    checkpoint: Checkpoint,
    data: Dataset,
    cases: Sequence[AnomalyCase],
    threshold: float = 0.5,
) -> float:
    """Fraction of ``data``'s rows whose injected cell, ``cases[i]`` for row
    i, detection flags as missing.

    Scores what a detection report per scene would flag, without building
    the reports. ``detect`` and ``detect_batch`` give each scene the bits of
    a one-row reconstruction, while this runs 64-row GEMM batches: the two
    agree except where a probability lies within ~3e-16 of the threshold.
    """
    if not cases:
        raise ValueError("no benchmark records to score")
    if len(cases) != data.n:
        raise ValueError(f"{len(cases)} cases for {data.n} scenes")
    cells = np.array([(c.row, c.col, CATEGORY_IDS[c.category]) for c in cases], dtype=np.intp)
    missing, _ = detection_masks(data.x, checkpoint.reconstruct(data.x, data.gps), threshold)
    grid = checkpoint.config.grid
    missing = missing.reshape(-1, grid.cells_y, grid.cells_x, checkpoint.config.n_o)
    return int(np.count_nonzero(missing[(np.arange(data.n), *cells.T)])) / data.n


def mse_on_scenes(checkpoint: Checkpoint, data: Dataset) -> float:
    """Mean squared error of ``data.x`` against its reconstruction, computed
    in the reconstruction's array."""
    diff = checkpoint.reconstruct(data.x, data.gps)
    np.subtract(data.x, diff, out=diff)
    return float(np.mean(np.square(diff, out=diff)))


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
    task1.jsonl, task2.jsonl, task3.jsonl. Every checkpoint must be for
    ``world.grid`` with ``N_CATEGORIES`` channels. Writes a JSON result
    document when ``out_path`` is given.
    """
    for variant in VARIANTS:
        if variant not in checkpoints:
            raise ValueError(f"missing checkpoint for variant {variant!r}")
        config = checkpoints[variant].config
        if config.grid != world.grid or config.n_o != N_CATEGORIES:
            raise ValueError(
                f"checkpoint for variant {variant!r} has grid {config.grid} with "
                f"{config.n_o} channels; the world has grid {world.grid} with "
                f"{N_CATEGORIES} channels"
            )

    val_path, test_path = os.path.join(data_dir, "val.jsonl"), os.path.join(data_dir, "test.jsonl")
    val_scenes = load_scenes(val_path, world.grid)
    test_scenes = load_scenes(test_path, world.grid)
    for path, scenes in ((val_path, val_scenes), (test_path, test_scenes)):
        if not scenes:
            raise ValueError(f"{path} holds no scenes")
    tasks = {
        f"task{k}": read_benchmark(os.path.join(bench_dir, f"task{k}.jsonl"), world.grid)
        for k in (1, 2, 3)
    }
    for name, records in tasks.items():
        if not records:
            raise ValueError(f"{name}: no benchmark records to score")

    result: dict = {
        "threshold": threshold,
        "counts": {
            "val_scenes": len(val_scenes),
            "test_scenes": len(test_scenes),
            **{f"{name}_cases": len(records) for name, records in tasks.items()},
        },
        "variants": {},
    }
    val_data = Dataset.from_scenes(val_scenes)
    test_data = Dataset.from_scenes(test_scenes)
    task_data = {
        name: (Dataset.from_scenes((g, gps) for g, gps, _ in records), [c for *_, c in records])
        for name, records in tasks.items()
    }
    for variant in VARIANTS:
        ckpt = checkpoints[variant]
        _, (precision, recall, f1) = reconstruction_metrics(ckpt, test_data, threshold)
        entry = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "val_mse": mse_on_scenes(ckpt, val_data),
        }
        for name, (data, cases) in task_data.items():
            entry[f"{name}_acc"] = task_accuracy(ckpt, data, cases, threshold)
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
        with atomic_write(out_path) as f:
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
