"""Binary occupancy-grid representation of bird-view scenes.

A scene is a set of bounding boxes over a fixed image window. The image is
divided into ``cells_y`` x ``cells_x`` rectangular cells and each object
category gets its own binary plane: a cell is 1 when it contains the center
of at least one box of that category. The tensor is indexed
``(row, col, category)`` and flattens in row-major order, which every other
module in this package relies on.

Geometry conventions:
  - Image coordinates have their origin at the top-left, x to the right,
    y downward. ``row`` indexes y, ``col`` indexes x.
  - Cell width/height are the exact real quotients ``width / cells``
    (67.5 px for the default 1080/16 layout); they are never pre-rounded.
  - Cell intervals are half-open: a center exactly on a boundary belongs
    to the higher-indexed cell. Centers on the far image edge are clamped
    into the last cell.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

logger = logging.getLogger("uavad.grid")

CATEGORIES = (
    "car",
    "pedestrian",
    "bus",
    "van",
    "truck",
    "bicycle",
    "motorbike",
    "trailer",
)
N_CATEGORIES = len(CATEGORIES)

CATEGORY_IDS = {name: i for i, name in enumerate(CATEGORIES)}

# One glyph per category for text rendering; bicycle and trailer are
# case-flipped so every glyph stays unique.
CATEGORY_GLYPHS = ("c", "p", "b", "v", "t", "B", "m", "T")


def category_id(name: str) -> int:
    try:
        return CATEGORY_IDS[name]
    except KeyError:
        raise ValueError(f"unknown object category {name!r}") from None


def whole(v: object, what: str) -> int:
    """``v`` if it is an int; anything else, a bool or 2.0 too, raises ValueError."""
    if type(v) is not int:
        raise ValueError(f"{what} {v!r} must be an integer")
    return v


@dataclass(frozen=True)
class GridSpec:
    """Image window size and grid resolution."""

    image_width: int = 1080
    image_height: int = 1080
    cells_x: int = 16
    cells_y: int = 16

    def __post_init__(self) -> None:
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.image_width < self.cells_x or self.image_height < self.cells_y:
            raise ValueError("image must be at least one pixel per cell")

    @property
    def cell_width(self) -> float:
        return self.image_width / self.cells_x

    @property
    def cell_height(self) -> float:
        return self.image_height / self.cells_y

    @property
    def n_cells(self) -> int:
        return self.cells_x * self.cells_y

    @property
    def vector_length(self) -> int:
        return self.cells_x * self.cells_y * N_CATEGORIES

    def to_dict(self) -> dict:
        return {
            "image_width": self.image_width,
            "image_height": self.image_height,
            "cells_x": self.cells_x,
            "cells_y": self.cells_y,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(
            image_width=whole(d["image_width"], "image_width"),
            image_height=whole(d["image_height"], "image_height"),
            cells_x=whole(d["cells_x"], "cells_x"),
            cells_y=whole(d["cells_y"], "cells_y"),
        )


@dataclass(frozen=True)
class GpsLabel:
    """Latitude/longitude pair in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in image pixels, origin top-left."""

    category: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def validate(self, spec: GridSpec) -> None:
        if not 0 <= self.category < N_CATEGORIES:
            raise ValueError(f"category id {self.category} outside [0, {N_CATEGORIES})")
        if not (0.0 <= self.x_min < self.x_max <= spec.image_width):
            raise ValueError(f"x extent [{self.x_min}, {self.x_max}] invalid for width {spec.image_width}")
        if not (0.0 <= self.y_min < self.y_max <= spec.image_height):
            raise ValueError(f"y extent [{self.y_min}, {self.y_max}] invalid for height {spec.image_height}")

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


class GridTensor:
    """Binary tensor of shape (cells_y, cells_x, N_CATEGORIES).

    The backing array is frozen after construction; all operations on grids
    are pure functions returning new values.
    """

    __slots__ = ("spec", "data")

    def __init__(self, spec: GridSpec, data: np.ndarray | None = None):
        if data is None:
            data = np.zeros((spec.cells_y, spec.cells_x, N_CATEGORIES), dtype=np.uint8)
        else:
            data = np.asarray(data, dtype=np.uint8)
            expected = (spec.cells_y, spec.cells_x, N_CATEGORIES)
            if data.shape != expected:
                raise ValueError(f"grid data shape {data.shape} != {expected}")
            if not (data <= 1).all():  # data is uint8 here, so this is the binary check
                raise ValueError("grid data must be binary")
            data = data.copy()
        data.flags.writeable = False
        self.spec = spec
        self.data = data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridTensor):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"GridTensor(spec={self.spec!r}, popcount={self.popcount()})"

    def popcount(self) -> int:
        return int(self.data.sum())

    def occupied_cells(self) -> list[tuple[int, int, int]]:
        """All (row, col, category) triples set to 1, in lexicographic order."""
        rows, cols, cats = np.nonzero(self.data)
        return sorted(zip(rows.tolist(), cols.tolist(), cats.tolist()))

    def with_cell(self, row: int, col: int, cat: int) -> "GridTensor":
        """A copy with cell (row, col, cat) set."""
        data = self.data.copy()
        data[row, col, cat] = 1
        return GridTensor(self.spec, data)


def cell_of_point(cx: float, cy: float, spec: GridSpec) -> tuple[int, int]:
    """Grid (row, col) containing an image point, clamped at the far edges."""
    col = math.floor(cx / spec.cell_width)
    row = math.floor(cy / spec.cell_height)
    col = min(max(col, 0), spec.cells_x - 1)
    row = min(max(row, 0), spec.cells_y - 1)
    return row, col


def cell_of_center(box: BoundingBox, spec: GridSpec) -> tuple[int, int]:
    """Grid (row, col) containing the box center."""
    cx, cy = box.center
    return cell_of_point(cx, cy, spec)


def rasterize(boxes: Iterable[BoundingBox], spec: GridSpec) -> GridTensor:
    """Mark the cell containing each box center.

    Multiple boxes of one category falling into one cell collapse into a
    single 1; order of the input list is irrelevant.
    """
    data = np.zeros((spec.cells_y, spec.cells_x, N_CATEGORIES), dtype=np.uint8)
    for box in boxes:
        if not 0 <= box.category < N_CATEGORIES:
            raise ValueError(f"category id {box.category} outside [0, {N_CATEGORIES})")
        row, col = cell_of_center(box, spec)
        data[row, col, box.category] = 1
    return GridTensor(spec, data)


def flatten(g: GridTensor) -> np.ndarray:
    """Row-major binary vector: index = (row * cells_x + col) * N_o + category."""
    return g.data.reshape(-1).copy()


def render_text(g: GridTensor) -> str:
    """Text rendering: '.' empty, category glyph, '*' for multi-category cells."""
    lines = []
    for row in range(g.spec.cells_y):
        chars = []
        for col in range(g.spec.cells_x):
            cats = np.nonzero(g.data[row, col])[0]
            if len(cats) == 0:
                chars.append(".")
            elif len(cats) == 1:
                chars.append(CATEGORY_GLYPHS[cats[0]])
            else:
                chars.append("*")
        lines.append("".join(chars))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON Lines formats.
#
# Annotation record (one scene per line):
#   {"image_width": int, "image_height": int, "gps": [lat, lon],
#    "boxes": [{"category": name, "x_min": .., "y_min": .., "x_max": .., "y_max": ..}, ...]}
#
# Grid dataset record (one scene per line):
#   {"gps": [lat, lon], "cells": [[category_name, row, col], ...]}
# with the sparse cell list sorted lexicographically by (name, row, col).
# ---------------------------------------------------------------------------


def scene_to_record(g: GridTensor, gps: GpsLabel) -> dict:
    cells = [
        [CATEGORIES[cat], row, col] for row, col, cat in g.occupied_cells()
    ]
    cells.sort(key=lambda c: (c[0], c[1], c[2]))
    return {"gps": [gps.latitude, gps.longitude], "cells": cells}


def record_to_scene(record: dict, spec: GridSpec) -> tuple[GridTensor, GpsLabel]:
    gps = GpsLabel(float(record["gps"][0]), float(record["gps"][1]))
    data = np.zeros((spec.cells_y, spec.cells_x, N_CATEGORIES), dtype=np.uint8)
    for name, row, col in record["cells"]:
        cat = category_id(name)
        if type(row) is not int or type(col) is not int:
            raise ValueError(f"cell ({row!r}, {col!r}): row and col must be integers")
        if not (0 <= row < spec.cells_y and 0 <= col < spec.cells_x):
            raise ValueError(f"cell ({row}, {col}) outside grid")
        data[row, col, cat] = 1
    return GridTensor(spec, data), gps


# What reading the fields of a malformed JSON document can raise.
RECORD_ERRORS = (KeyError, TypeError, ValueError, IndexError, OverflowError)


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """A text file on ``<path>.<pid>.tmp`` that ``os.replace`` moves onto
    ``path`` when the block completes. If the block raises, the temporary
    file is removed and ``path`` is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_jsonl(f: TextIO) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs; bad JSON raises naming the line (and the file)."""
    for lineno, line in enumerate(f, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield lineno, json.loads(line)
        except ValueError as e:
            where = f"{f.name}: " if hasattr(f, "name") else ""
            raise ValueError(f"{where}line {lineno}: malformed JSON record: {e}") from e


def read_annotations(f: TextIO) -> Iterator[tuple[GridSpec, GpsLabel, list[BoundingBox]]]:
    """Parse annotation records; boxes outside the image window are dropped and
    logged. A malformed record raises ``ValueError`` naming its line."""
    for lineno, record in read_jsonl(f):
        try:
            spec = GridSpec(
                image_width=int(record["image_width"]),
                image_height=int(record["image_height"]),
            )
            gps = GpsLabel(float(record["gps"][0]), float(record["gps"][1]))
            boxes = []
            for b in record["boxes"]:
                box = BoundingBox(
                    category=category_id(b["category"]),
                    x_min=float(b["x_min"]),
                    y_min=float(b["y_min"]),
                    x_max=float(b["x_max"]),
                    y_max=float(b["y_max"]),
                )
                try:
                    box.validate(spec)
                except ValueError as e:
                    logger.warning("line %d: dropping out-of-bounds box: %s", lineno, e)
                    continue
                boxes.append(box)
        except RECORD_ERRORS as e:
            raise ValueError(f"line {lineno}: invalid annotation record: {e}") from e
        yield spec, gps, boxes
