"""Anomaly detection by reconstruction comparison.

A trained model reconstructs a scene with zero latent noise; the
reconstruction is thresholded back to binary. Cells occupied in the input
but absent in the thresholded reconstruction are the anomalies. Cells the
model adds that the input lacks are reported separately as hallucinated
cells — diagnostics, not detections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .adnet import Checkpoint
from .grid import (
    CATEGORIES, GpsLabel, GridTensor, N_CATEGORIES, atomic_write, read_jsonl, record_to_scene,
)

__all__ = [
    "AnomalyCell",
    "AnomalyReport",
    "detection_masks",
    "detect",
    "detect_batch",
    "write_reports",
]

# Category ids in name order: np.nonzero over a mask whose last axis is
# permuted this way yields cells in (row, col, category name) order.
_BY_NAME = np.argsort(CATEGORIES)
# An object array, so every cell shares the one str of its category's name.
_NAMES = np.array(CATEGORIES, dtype=object)


class AnomalyCell(NamedTuple):
    category: str
    row: int
    col: int
    reconstruction_prob: float


_new_cell = partial(tuple.__new__, AnomalyCell)
_prob = itemgetter(3)

# A report line ends with its two cell lists, each cell formatted from its
# 4-tuple. The category names are plain ASCII identifiers, so a quoted %s is
# their JSON text, and %s of a finite float (or np.float64) is its shortest
# round-trip repr, as json.dumps writes it.
_CELL = '{"category": "%s", "row": %d, "col": %d, "reconstruction_prob": %s}'
_TAIL = ', "anomalies": [%s], "hallucinated": [%s]}\n'


@dataclass(frozen=True)
class AnomalyReport:
    anomalies: tuple[AnomalyCell, ...]
    hallucinated: tuple[AnomalyCell, ...]
    threshold: float
    model_variant: str
    gps: tuple[float, float] | None

    def flagged(self) -> set[tuple[str, int, int]]:
        return {(a.category, a.row, a.col) for a in self.anomalies}


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} is not a number in [0, 1]")


def detection_masks(
    x: np.ndarray, probs: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """The detection rule over binary cells and their reconstruction probabilities.

    Returns the *missing* mask (occupied cells with ``prob < threshold``:
    the anomalies) and the *added* mask (empty cells with
    ``prob >= threshold``: the hallucinations). Raises ValueError for a
    threshold that is NaN or outside [0, 1].
    """
    _check_threshold(threshold)
    kept = probs >= threshold
    occupied = x != 0
    return occupied & ~kept, ~occupied & kept


def _cells(mask: np.ndarray, probs: np.ndarray) -> tuple[AnomalyCell, ...]:
    """The cells set in a (rows, cols, categories) mask, in (row, col, name) order."""
    rows, cols, k = np.nonzero(mask[..., _BY_NAME])
    cats = _BY_NAME[k]
    # AnomalyCell._make's construction, without the generated __new__ frame per cell.
    return tuple(map(_new_cell, zip(
        _NAMES[cats].tolist(), rows.tolist(), cols.tolist(), probs[rows, cols, cats].tolist(),
    )))


def detect(
    checkpoint: Checkpoint,
    x: GridTensor,
    gps: GpsLabel | None = None,
    threshold: float = 0.5,
) -> AnomalyReport:
    """Flag occupied cells whose reconstruction falls below the threshold."""
    config = checkpoint.config
    if x.spec != config.grid or config.n_o != N_CATEGORIES:
        raise ValueError(
            f"scene grid {x.spec} does not match checkpoint grid {config.grid} "
            f"with {config.n_o} channels"
        )
    if config.use_gps and gps is None:
        raise ValueError(f"variant {config.variant!r} requires a gps label")
    if not config.use_gps and gps is not None:
        raise ValueError(f"variant {config.variant!r} takes no gps label")

    gps_deg = np.array([[gps.latitude, gps.longitude]]) if gps is not None else None
    probs = checkpoint.reconstruct(x.data.reshape(1, -1), gps_deg).reshape(x.data.shape)
    missing, added = detection_masks(x.data, probs, threshold)
    return AnomalyReport(
        anomalies=_cells(missing, probs),
        hallucinated=_cells(added, probs),
        threshold=threshold,
        model_variant=config.variant,
        gps=(gps.latitude, gps.longitude) if gps is not None else None,
    )


def detect_batch(checkpoint: Checkpoint, path: str, threshold: float = 0.5) -> list[AnomalyReport]:
    """One report per scene record, in file order.

    Accepts plain scene files and injected-anomaly benchmark files alike;
    only the gps and cells fields are read. The threshold is checked
    before the file is read, so an empty file does not hide a bad one.
    """
    _check_threshold(threshold)
    config = checkpoint.config
    scenes = read_jsonl(path, lambda record, _: record_to_scene(record, config.grid))
    return [detect(checkpoint, g, gps if config.use_gps else None, threshold) for g, gps in scenes]


def write_reports(reports: Sequence[AnomalyReport], path: str) -> None:
    """Write one JSON line per report, in order.

    Raises ValueError naming the report's position when any of its numbers is
    not finite, which JSON cannot represent; ``path`` is then left as it was.
    """
    with atomic_write(path) as f:
        for i, report in enumerate(reports):
            try:
                head = json.dumps({
                    "model_variant": report.model_variant,
                    "threshold": report.threshold,
                    "gps": list(report.gps) if report.gps is not None else None,
                }, allow_nan=False)
                if not all(map(math.isfinite, map(_prob, report.anomalies + report.hallucinated))):
                    raise ValueError("a reconstruction_prob is not finite")
            except ValueError as e:
                raise ValueError(f"report {i}: {e}") from None
            # The header object, reopened to append the two cell lists.
            f.write(head[:-1] + _TAIL % (
                ", ".join(map(_CELL.__mod__, report.anomalies)),
                ", ".join(map(_CELL.__mod__, report.hallucinated)),
            ))
