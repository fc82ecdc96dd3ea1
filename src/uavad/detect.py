"""Anomaly detection by reconstruction comparison.

A trained model reconstructs a scene with zero latent noise; the
reconstruction is thresholded back to binary. Cells occupied in the input
but absent in the thresholded reconstruction are the anomalies. Cells the
model adds that the input lacks are reported separately as hallucinated
cells — diagnostics, not detections.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .adnet import RECONSTRUCT_ROWS, Checkpoint, ModelConfig
from .grid import (
    CATEGORIES, GpsLabel, GridSpec, GridTensor, N_CATEGORIES, _NAME_ORDER, atomic_write,
    read_jsonl, record_to_scene,
)

__all__ = [
    "AnomalyCell",
    "AnomalyReport",
    "CellArrays",
    "detection_masks",
    "detect",
    "detect_batch",
    "write_reports",
]

# An object array, so every cell shares the one str of its category's name.
_NAMES = np.array(CATEGORIES, dtype=object)


class AnomalyCell(NamedTuple):
    category: str
    row: int
    col: int
    reconstruction_prob: float


class CellArrays(NamedTuple):
    """Cells of a (rows, cols, categories) grid in (row, col, name) order:
    their flat indices into the grid and their reconstruction probabilities."""

    index: np.ndarray
    prob: np.ndarray


# Every empty cell list shares these; frombuffer over bytes is read-only.
_NO_CELLS = CellArrays(np.frombuffer(b"", np.intp), np.frombuffer(b""))


# A report line ends with its two cell lists. The category names are plain
# ASCII identifiers, so a quoted %s is their JSON text, and repr of a finite
# float is its shortest round-trip text, as json.dumps writes it.
_PREFIX = '{"category": "%s", "row": %d, "col": %d, "reconstruction_prob": '
_TAIL = ', "anomalies": [%s], "hallucinated": [%s]}\n'


@dataclass(frozen=True, eq=False)
class AnomalyReport:
    """One scene's anomaly (*missing*) and hallucinated (*added*) cells as
    read-only arrays over a ``shape`` grid; the AnomalyCell tuples are built
    when first read. ``score`` is the lowest reconstruction probability among
    occupied cells, 1.0 for an empty scene: the scene has an anomaly exactly
    when ``score < threshold``. Two reports are equal when their shape,
    threshold, variant and GPS are and their cell arrays hold the same values;
    ``==`` builds no AnomalyCell."""

    shape: tuple[int, int, int]
    missing: CellArrays
    added: CellArrays
    score: float
    threshold: float
    model_variant: str
    gps: tuple[float, float] | None

    @cached_property
    def anomalies(self) -> tuple[AnomalyCell, ...]:
        return _cells(self.shape, self.missing)

    @cached_property
    def hallucinated(self) -> tuple[AnomalyCell, ...]:
        return _cells(self.shape, self.added)

    def flagged(self) -> set[tuple[str, int, int]]:
        return {(a.category, a.row, a.col) for a in self.anomalies}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AnomalyReport)
            and (self.shape, self.threshold, self.model_variant, self.gps)
            == (other.shape, other.threshold, other.model_variant, other.gps)
            and all(map(
                np.array_equal, (*self.missing, *self.added), (*other.missing, *other.added)
            ))
        )


def _check_threshold(threshold: float) -> float:
    """The threshold as a report stores it: a NumPy scalar becomes its Python
    number. Raises ValueError for a bool, NaN or a number outside [0, 1]."""
    if isinstance(threshold, np.generic):
        threshold = threshold.item()
    if isinstance(threshold, bool) or not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} is not a number in [0, 1]")
    return threshold


def detection_masks(
    x: np.ndarray, probs: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """The detection rule over binary cells and their reconstruction probabilities.

    Returns the *missing* mask (occupied cells with ``prob < threshold``:
    the anomalies) and the *added* mask (empty cells with
    ``prob >= threshold``: the hallucinations). Raises ValueError for a
    threshold that is a bool, NaN or outside [0, 1].
    """
    kept = probs >= _check_threshold(threshold)
    occupied = x != 0
    return occupied & ~kept, ~occupied & kept


def _check_grid(config: ModelConfig, spec: GridSpec) -> None:
    if spec != config.grid or config.n_o != N_CATEGORIES:
        raise ValueError(
            f"scene grid {spec} does not match checkpoint grid {config.grid} "
            f"with {config.n_o} channels"
        )


def _select_each(mask: np.ndarray, probs: np.ndarray) -> list[CellArrays]:
    """The cells set in each scene of an (n, rows, cols, categories) mask:
    one flat-index pass over the stack, split per scene. The arrays of the
    scenes are read-only views of one index and one probability array."""
    n, size, n_o = mask.shape[0], mask[0].size, mask.shape[-1]
    # With the last axis in category-name order, flat indices run in (row,
    # col, name) order; each is then mapped back to the grid's own category.
    flat = np.flatnonzero(mask[..., _NAME_ORDER])
    k = flat % n_o
    flat += _NAME_ORDER[k] - k
    prob = probs.reshape(-1)[flat]
    index = flat % size
    index.flags.writeable = prob.flags.writeable = False
    bounds = np.searchsorted(flat, np.arange(0, (n + 1) * size, size)).tolist()
    return [
        CellArrays(index[lo:hi], prob[lo:hi]) if lo < hi else _NO_CELLS
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _cells(shape: tuple[int, ...], cells: CellArrays) -> tuple[AnomalyCell, ...]:
    """The AnomalyCells of ``cells`` over a ``shape`` grid, in their order."""
    rows, cols, cats = np.unravel_index(cells.index, shape)
    return tuple(map(AnomalyCell._make, zip(
        _NAMES[cats].tolist(), rows.tolist(), cols.tolist(), cells.prob.tolist(),
    )))


def detect(
    checkpoint: Checkpoint,
    x: GridTensor,
    gps: GpsLabel | None = None,
    threshold: float = 0.5,
) -> AnomalyReport:
    """Flag occupied cells whose reconstruction falls below the threshold:
    the chunk path of ``detect_batch`` on one scene."""
    config = checkpoint.config
    _check_grid(config, x.spec)
    if config.use_gps and gps is None:
        raise ValueError(f"variant {config.variant!r} requires a gps label")
    if not config.use_gps and gps is not None:
        raise ValueError(f"variant {config.variant!r} takes no gps label")
    return _detect_chunk(checkpoint, [(x, gps)], _check_threshold(threshold))[0]


def detect_batch(checkpoint: Checkpoint, path: str, threshold: float = 0.5) -> list[AnomalyReport]:
    """One report per scene record, in file order, equal to ``detect`` on
    that scene: the same cells with the same probability bits.

    Accepts plain scene files and injected-anomaly benchmark files alike;
    only the gps and cells fields are read. The threshold and the
    checkpoint's grid are checked before the file is read, so an empty file
    does not hide a bad one. Records are read and reconstructed
    ``adnet.RECONSTRUCT_ROWS`` at a time, in the row-invariant mode of
    ``Checkpoint.reconstruct``.
    """
    threshold = _check_threshold(threshold)
    config = checkpoint.config
    _check_grid(config, config.grid)
    scenes = read_jsonl(path, lambda record, _: record_to_scene(record, config.grid))
    reports: list[AnomalyReport] = []
    with closing(scenes):
        while chunk := list(islice(scenes, RECONSTRUCT_ROWS)):
            reports += _detect_chunk(checkpoint, chunk, threshold)
    return reports


def _detect_chunk(
    checkpoint: Checkpoint, scenes: list[tuple[GridTensor, GpsLabel]], threshold: float
) -> list[AnomalyReport]:
    """The reports of a chunk of scenes on the checkpoint's grid, whose GPS
    labels are read only for the GPS variants."""
    config = checkpoint.config
    x = np.stack([g.data for g, _ in scenes])
    gps = [(p.latitude, p.longitude) for _, p in scenes] if config.use_gps else None
    probs = checkpoint.reconstruct(
        x.reshape(len(scenes), -1), gps, row_invariant=True
    ).reshape(x.shape)
    missing, added = detection_masks(x, probs, threshold)
    scores = probs.min(axis=(1, 2, 3), initial=1.0, where=x != 0).tolist()
    return [
        AnomalyReport(
            x.shape[1:], m, a, score=score, threshold=threshold,
            model_variant=config.variant, gps=g,
        )
        for m, a, score, g in zip(
            _select_each(missing, probs), _select_each(added, probs), scores,
            gps or [None] * len(scenes),
        )
    ]


@cache
def _layout(shape: tuple[int, ...]) -> np.ndarray:
    """Per flat cell of a (rows, cols, categories) grid, its report text up
    to the probability, led by the ``}, `` that closes the cell before it."""
    return np.array(
        ["}, " + _PREFIX % (CATEGORIES[k], r, c) for r, c, k in np.ndindex(shape)], dtype=object
    )


def _cell_list(shape: tuple[int, ...], cells: CellArrays) -> str:
    """The JSON text of the cells, inside their list's brackets. Raises
    ValueError when one of their probabilities is not finite."""
    if not np.isfinite(cells.prob).all():
        raise ValueError("a reconstruction_prob is not finite")
    # Each cell's text, then its probability, in one join: no string is
    # concatenated per cell. The [3:] drops the first cell's "}, ".
    parts = [""] * (2 * cells.index.size)
    parts[::2] = _layout(shape)[cells.index].tolist()
    parts[1::2] = map(repr, cells.prob.tolist())
    return ("".join(parts) + "}")[3:]


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
                cells = _TAIL % (
                    _cell_list(report.shape, report.missing), _cell_list(report.shape, report.added),
                )
            except ValueError as e:
                raise ValueError(f"report {i}: {e}") from None
            # The header object, reopened to append the two cell lists.
            f.write(head[:-1] + cells)
