"""Anomaly detection by reconstruction comparison.

A trained model reconstructs a scene with zero latent noise; the
reconstruction is thresholded back to binary. Cells occupied in the input
but absent in the thresholded reconstruction are the anomalies. Cells the
model adds that the input lacks are reported separately as hallucinated
cells — diagnostics, not detections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adnet import Checkpoint
from .grid import CATEGORIES, GpsLabel, GridTensor, N_CATEGORIES, read_jsonl, record_to_scene

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


@dataclass(frozen=True)
class AnomalyCell:
    category: str
    row: int
    col: int
    reconstruction_prob: float


@dataclass(frozen=True)
class AnomalyReport:
    anomalies: tuple[AnomalyCell, ...]
    hallucinated: tuple[AnomalyCell, ...]
    threshold: float
    model_variant: str
    gps: tuple[float, float] | None

    def flagged(self) -> set[tuple[str, int, int]]:
        return {(a.category, a.row, a.col) for a in self.anomalies}


def detection_masks(
    x: np.ndarray, probs: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """The detection rule over binary cells and their reconstruction probabilities.

    Returns the *missing* mask (occupied cells with ``prob < threshold``:
    the anomalies) and the *added* mask (empty cells with
    ``prob >= threshold``: the hallucinations). Raises ValueError for a
    threshold that is NaN or outside [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} is not a number in [0, 1]")
    kept = probs >= threshold
    occupied = x != 0
    return occupied & ~kept, ~occupied & kept


def _cells(mask: np.ndarray, probs: np.ndarray) -> tuple[AnomalyCell, ...]:
    """The cells set in a (rows, cols, categories) mask, in (row, col, name) order."""
    rows, cols, k = np.nonzero(mask[..., _BY_NAME])
    cats = _BY_NAME[k]
    return tuple(
        AnomalyCell(CATEGORIES[cat], row, col, prob)
        for cat, row, col, prob in zip(
            cats.tolist(), rows.tolist(), cols.tolist(), probs[rows, cols, cats].tolist()
        )
    )


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
    only the gps and cells fields are read.
    """
    use_gps = checkpoint.config.use_gps
    reports = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, record in read_jsonl(f):
            try:
                g, gps = record_to_scene(record, checkpoint.config.grid)
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}: line {lineno}: invalid scene record: {e}") from e
            reports.append(detect(checkpoint, g, gps if use_gps else None, threshold))
    return reports


def _cell_doc(a: AnomalyCell) -> dict:
    # A new dict per cell: vars(a) would keep a materialized __dict__ on
    # every cell the caller still holds, and dataclasses.asdict deep-copies.
    return {
        "category": a.category,
        "row": a.row,
        "col": a.col,
        "reconstruction_prob": a.reconstruction_prob,
    }


def write_reports(reports: Sequence[AnomalyReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for report in reports:
            doc = {
                "model_variant": report.model_variant,
                "threshold": report.threshold,
                "gps": list(report.gps) if report.gps is not None else None,
                "anomalies": [_cell_doc(a) for a in report.anomalies],
                "hallucinated": [_cell_doc(a) for a in report.hallucinated],
            }
            f.write(json.dumps(doc) + "\n")
