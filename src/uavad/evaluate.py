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
from .grid import CATEGORY_IDS, N_CATEGORIES, GpsLabel, GridTensor, atomic_write
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


# ---------------------------------------------------------------------------
# Batched model evaluation
#
# Each public metric flattens its scenes and calls an internal that takes
# Dataset rows; run_benchmark flattens each scene set once.
# ---------------------------------------------------------------------------


def _counts(
    checkpoint: Checkpoint,
    data: Dataset,
    gps: np.ndarray,
    threshold: float,
) -> MetricCounts:
    missing, added = detection_masks(data.x, checkpoint.reconstruct(data.x, gps), threshold)
    fn = int(missing.sum())
    fp = int(added.sum())
    occupied = int(data.x.sum())
    return MetricCounts(tp=occupied - fn, fp=fp, fn=fn, tn=data.x.size - occupied - fp)


def _injected_cells(
    records: Sequence[tuple[GridTensor, GpsLabel, AnomalyCase]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, col, category) index arrays of the records' injected cells."""
    cases = [case for _, _, case in records]
    return (
        np.array([c.row for c in cases], dtype=np.intp),
        np.array([c.col for c in cases], dtype=np.intp),
        np.array([CATEGORY_IDS[c.category] for c in cases], dtype=np.intp),
    )


def _hit_rate(
    checkpoint: Checkpoint,
    data: Dataset,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray],
    threshold: float,
) -> float:
    """Fraction of ``data``'s rows whose injected cell, given per row by the
    (row, col, category) arrays ``cells``, detection flags as missing."""
    missing, _ = detection_masks(data.x, checkpoint.reconstruct(data.x, data.gps), threshold)
    grid = checkpoint.config.grid
    missing = missing.reshape(-1, grid.cells_y, grid.cells_x, checkpoint.config.n_o)
    return int(np.count_nonzero(missing[(np.arange(data.n), *cells)])) / data.n


def _mse(checkpoint: Checkpoint, data: Dataset) -> float:
    """Mean squared error of ``data.x`` against its reconstruction, computed
    in the reconstruction's array."""
    diff = checkpoint.reconstruct(data.x, data.gps)
    np.subtract(data.x, diff, out=diff)
    return float(np.mean(np.square(diff, out=diff)))


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
    counts = _counts(checkpoint, data, gps, threshold)
    return counts, prf1(counts)


def task_accuracy(
    checkpoint: Checkpoint,
    records: Sequence[tuple[GridTensor, GpsLabel, AnomalyCase]],
    threshold: float = 0.5,
) -> float:
    """Fraction of injected cells that detection flags as missing.

    Scores what a detection report per scene would flag, without building
    the reports. ``detect`` and ``detect_batch`` give each scene the bits of
    a one-row reconstruction, while this runs 64-row GEMM batches: the two
    agree except where a probability lies within ~3e-16 of the threshold.
    """
    if not records:
        raise ValueError("no benchmark records to score")
    data = Dataset.from_scenes((g, gps) for g, gps, _ in records)
    return _hit_rate(checkpoint, data, _injected_cells(records), threshold)


def mse_on_scenes(
    checkpoint: Checkpoint, scenes: Sequence[tuple[GridTensor, GpsLabel]]
) -> float:
    return _mse(checkpoint, Dataset.from_scenes(scenes))


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

    val_scenes = load_scenes(os.path.join(data_dir, "val.jsonl"), world.grid)
    test_scenes = load_scenes(os.path.join(data_dir, "test.jsonl"), world.grid)
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
        name: (Dataset.from_scenes((g, gps) for g, gps, _ in records), _injected_cells(records))
        for name, records in tasks.items()
    }
    for variant in VARIANTS:
        ckpt = checkpoints[variant]
        precision, recall, f1 = prf1(_counts(ckpt, test_data, test_data.gps, threshold))
        entry = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "val_mse": _mse(ckpt, val_data),
        }
        for name, (data, cells) in task_data.items():
            entry[f"{name}_acc"] = _hit_rate(ckpt, data, cells, threshold)
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
