"""Synthetic bird-view world: per-waypoint zone maps, placement rules,
dataset generation, rule auditing, and anomaly injection.

A world is a small set of surveillance waypoints. Each waypoint carries a
zone map labelling every grid cell (road, car park, forbidden strip, ...)
in view coordinates, plus a GPS position. Normal scenes place objects only
in zones their placement rules allow; anomaly injectors then add a single
object that breaks a private rule (task 1), a public traffic rule (task 2),
or lands on a legal-but-rare spot (task 3).

Zone maps are authored per waypoint, so the same view cell can host
different zones at different waypoints. Every injection adds exactly one
occupied cell of a kind that normal scenes never produce; detectors are
scored on whether they flag that cell.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import (
    CATEGORIES,
    CATEGORY_IDS,
    GpsLabel,
    GridSpec,
    GridTensor,
    N_CATEGORIES,
    RECORD_ERRORS,
    _gps_label,
    atomic_write,
    number,
    read_jsonl,
    record_to_scene,
    scene_to_record,
    whole,
)
from .nn import Rng, _box_muller, _fisher_yates, _lockstep_shuffle

__all__ = [
    "ZONE_KINDS",
    "VEHICLE_CATEGORIES",
    "HEAVY_VEHICLE_CATEGORIES",
    "TASK_NAMES",
    "WorldConfigError",
    "Waypoint",
    "PlacementRule",
    "AnomalyCase",
    "WorldSpec",
    "build_zone_map",
    "default_world",
    "load_world",
    "save_world",
    "nearest_waypoint",
    "sample_scene",
    "sample_dataset",
    "split_sizes",
    "build_dataset",
    "load_scenes",
    "audit_scene",
    "build_benchmark",
    "write_benchmark",
    "read_benchmark",
]

logger = logging.getLogger("uavad.world")

ZONE_KINDS = (
    "building",
    "roof",
    "forbidden_backside",
    "forbidden_leftside",
    "car_park",
    "bike_park",
    "road",
    "bike_road",
    "pedestrian_road",
    "zebra_crossing",
    "grass",
)
_ZONE_IDS = {kind: i for i, kind in enumerate(ZONE_KINDS)}

# Everything that moves on wheels; the backside ban covers these plus people.
VEHICLE_CATEGORIES = tuple(c for c in CATEGORIES if c != "pedestrian")
# Wheeled categories banned from bike roads (bicycles and motorbikes excepted).
HEAVY_VEHICLE_CATEGORIES = ("car", "bus", "van", "truck", "trailer")

TASK_NAMES = {1: "task1_private", 2: "task2_public", 3: "task3_suspicious"}

DEFAULT_RARE_LIST = (
    ("pedestrian", "roof"),
    ("truck", "car_park"),
    ("bicycle", "car_park"),
)

# Task 1 and 2 injections as (category, zone) pairs, like the rare list of
# task 3, in candidate order: any category behind the building, vehicles on
# its left side; pedestrians on a road, bicycles on a road or pedestrian way,
# heavy vehicles on a bike road.
_TASK1_PAIRS = tuple((name, "forbidden_backside") for name in CATEGORIES) + tuple(
    (name, "forbidden_leftside") for name in VEHICLE_CATEGORIES
)
_TASK2_PAIRS = (
    ("pedestrian", "road"),
    ("bicycle", "road"),
    ("bicycle", "pedestrian_road"),
) + tuple((name, "bike_road") for name in HEAVY_VEHICLE_CATEGORIES)


class WorldConfigError(Exception):
    """A world definition is structurally invalid."""


@dataclass(frozen=True, eq=False)
class Waypoint:
    """One surveillance position: GPS plus a full zone labelling of the view."""

    gps: GpsLabel
    gps_jitter: float
    zone_map: np.ndarray  # (cells_y, cells_x) of zone-kind indices
    # Flat cell indices (row * cells_x + col) grouped by zone kind, each group
    # row-major, and the slice of each kind's group.
    _order: np.ndarray = field(init=False, repr=False)
    _spans: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        zm = np.asarray(self.zone_map, dtype=np.int16)
        if zm.ndim != 2:
            raise WorldConfigError("zone map must be two-dimensional")
        if zm.min() < 0 or zm.max() >= len(ZONE_KINDS):
            raise WorldConfigError("zone map holds an undefined zone index")
        if not (math.isfinite(self.gps_jitter) and self.gps_jitter >= 0):
            raise WorldConfigError(f"gps jitter {self.gps_jitter} must be finite and non-negative")
        zm = zm.copy()
        zm.flags.writeable = False
        object.__setattr__(self, "zone_map", zm)
        ends = np.bincount(zm.reshape(-1), minlength=len(ZONE_KINDS)).cumsum().tolist()
        object.__setattr__(self, "_order", np.argsort(zm, axis=None, kind="stable"))
        object.__setattr__(self, "_spans", {
            kind: slice(start, end) for kind, start, end in zip(ZONE_KINDS, [0] + ends, ends)
        })

    def zone_at(self, row: int, col: int) -> str:
        return ZONE_KINDS[self.zone_map[row, col]]

    def cells_of(self, kind: str) -> list[tuple[int, int]]:
        """All (row, col) with the given zone kind, row-major order."""
        cells = self._order[self._spans[kind]].tolist()
        return [divmod(i, self.zone_map.shape[1]) for i in cells]


@dataclass(frozen=True)
class PlacementRule:
    """Where a category may appear in normal scenes, and how often."""

    category: str
    allowed_zones: tuple[str, ...]
    count_min: int
    count_max: int
    weights: tuple[float, ...]  # per-waypoint count multiplier

    def __post_init__(self) -> None:
        if self.category not in CATEGORY_IDS:
            raise WorldConfigError(f"rule references unknown category {self.category!r}")
        if not self.allowed_zones:
            raise WorldConfigError(f"rule for {self.category!r} allows no zones")
        for z in self.allowed_zones:
            if z not in _ZONE_IDS:
                raise WorldConfigError(f"rule for {self.category!r} references unknown zone {z!r}")
        if not 0 <= self.count_min <= self.count_max:
            raise WorldConfigError(
                f"rule for {self.category!r} has invalid count range "
                f"[{self.count_min}, {self.count_max}]"
            )
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise WorldConfigError(
                f"rule for {self.category!r} has a negative or non-finite weight: {self.weights}"
            )


@dataclass(frozen=True)
class AnomalyCase:
    """One injected anomaly: what was added, where, and into which scene."""

    task: str
    category: str
    row: int
    col: int
    scene_index: int
    waypoint_index: int

    @property
    def injected(self) -> tuple[str, int, int]:
        return (self.category, self.row, self.col)


@dataclass
class WorldSpec:
    grid: GridSpec
    waypoints: list[Waypoint]
    rules: list[PlacementRule]
    rare_list: list[tuple[str, str]] = field(default_factory=lambda: list(DEFAULT_RARE_LIST))
    seed: int = 0
    # Built by validate(), per waypoint: each rule's flat tensor indices, as a
    # list and in one padded (waypoints, rules, cells) table; each task's
    # injection candidates as flat tensor indices in draw order; the uniforms
    # a scene draws at most; and which rules share a cell with their category.
    # A world changed after construction is validated again to rebuild them.
    _placements: list = field(init=False, default_factory=list, repr=False, compare=False)
    _candidates: list = field(init=False, default_factory=list, repr=False, compare=False)
    _bounds: list = field(init=False, default_factory=list, repr=False, compare=False)
    _shared: list = field(init=False, default_factory=list, repr=False, compare=False)
    _table: np.ndarray = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if len(self.waypoints) < 2:
            raise WorldConfigError("a world needs at least 2 waypoints")
        shape = (self.grid.cells_y, self.grid.cells_x)
        for wi, wp in enumerate(self.waypoints):
            if wp.zone_map.shape != shape:
                raise WorldConfigError(
                    f"waypoint {wi} zone map shape {wp.zone_map.shape} != grid {shape}"
                )
        for cat, zone in self.rare_list:
            if cat not in CATEGORY_IDS:
                raise WorldConfigError(f"rare list references unknown category {cat!r}")
            if zone not in _ZONE_IDS:
                raise WorldConfigError(f"rare list references unknown zone {zone!r}")
        tasks = {1: _TASK1_PAIRS, 2: _TASK2_PAIRS, 3: self.rare_list}
        self._placements, self._candidates = [], []
        unions = [np.empty(0, np.intp)]  # every rule's cells, waypoint by waypoint
        for wp in self.waypoints:
            # flat[cat, k]: the flat tensor index of the waypoint's k-th cell
            # in kind order, in the plane of category cat.
            flat = wp._order * N_CATEGORIES + np.arange(N_CATEGORIES)[:, None]

            def cells(pairs: Sequence[tuple[str, str]]) -> list[np.ndarray]:
                return [flat[CATEGORY_IDS[cat], wp._spans[zone]] for cat, zone in pairs]

            placements = []
            for rule in self.rules:
                parts = cells([(rule.category, zone) for zone in rule.allowed_zones])
                # One zone's cells are row-major already; a union is sorted back.
                unions.append(parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts)))
                placements.append(unions[-1].tolist())
            self._placements.append(placements)
            self._candidates.append({
                task: np.concatenate(cells(pairs) or [np.empty(0, np.intp)])
                for task, pairs in tasks.items()
            })
        for ri, rule in enumerate(self.rules):
            if len(rule.weights) != len(self.waypoints):
                raise WorldConfigError(
                    f"rule for {rule.category!r} has {len(rule.weights)} weights "
                    f"for {len(self.waypoints)} waypoints"
                )
            for wi in range(len(self.waypoints)):
                if rule.weights[wi] > 0 and rule.count_max > 0 and not self._placements[wi][ri]:
                    raise WorldConfigError(
                        f"rule for {rule.category!r} allows zones {rule.allowed_zones} "
                        f"but waypoint {wi} has no such cells"
                    )
        # A scene draws 2 uniforms for its GPS, then per rule a count and n - 1 to shuffle n cells.
        sizes = np.array([len(u) for u in unions[1:]], np.intp).reshape(len(self.waypoints), -1)
        self._bounds = (2 + len(self.rules) + np.maximum(sizes - 1, 0).sum(axis=1)).tolist()
        listed = np.arange(sizes.max(initial=0)) < sizes[..., None]
        self._table = np.zeros(listed.shape, np.intp)
        self._table[listed] = np.concatenate(unions)
        # A flat index names its category: two rules listing it share a cell.
        keys = self._table + np.arange(len(self.waypoints))[:, None, None] * self.grid.vector_length
        rules_per_cell = np.bincount(keys[listed], minlength=1)
        self._shared = ((rules_per_cell[keys] > 1) & listed).any(axis=2).tolist()


# ---------------------------------------------------------------------------
# Construction and persistence
# ---------------------------------------------------------------------------


def build_zone_map(spec: GridSpec, entries: Sequence[dict]) -> np.ndarray:
    """Paint zone entries in order (later entries override earlier ones).

    Each entry has a ``kind`` plus either ``rect: [r0, c0, r1, c1]``
    (inclusive bounds) or ``cells: [[row, col], ...]``. Every cell must be
    covered by the final map.
    """
    zm = np.full((spec.cells_y, spec.cells_x), -1, dtype=np.int16)
    for entry in entries:
        if not isinstance(entry, dict):
            raise WorldConfigError(f"zone entry {entry!r} is not a JSON object")
        kind = entry.get("kind")
        if kind not in _ZONE_IDS:
            raise WorldConfigError(f"unknown zone kind {kind!r}")
        zid = _ZONE_IDS[kind]
        if "rect" in entry:
            r0, c0, r1, c1 = (whole(v, "zone rect bound") for v in entry["rect"])
            if not (0 <= r0 <= r1 < spec.cells_y and 0 <= c0 <= c1 < spec.cells_x):
                raise WorldConfigError(f"zone rect {entry['rect']} outside the grid")
            zm[r0 : r1 + 1, c0 : c1 + 1] = zid
        elif "cells" in entry:
            for rc in entry["cells"]:
                r, c = whole(rc[0], "zone cell row"), whole(rc[1], "zone cell col")
                if not (0 <= r < spec.cells_y and 0 <= c < spec.cells_x):
                    raise WorldConfigError(f"zone cell [{r}, {c}] outside the grid")
                zm[r, c] = zid
        else:
            raise WorldConfigError(f"zone entry for {kind!r} needs 'rect' or 'cells'")
    if (zm < 0).any():
        n = int((zm < 0).sum())
        raise WorldConfigError(f"zone map leaves {n} cells unlabelled")
    return zm


def load_world(path: str) -> WorldSpec:
    """Read a world written by ``save_world``; every error names ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise WorldConfigError(f"{path}: malformed world file: {e}") from e
    try:
        return _world_from_doc(doc)
    except WorldConfigError as e:
        raise WorldConfigError(f"{path}: {e}") from e
    except RECORD_ERRORS as e:
        raise WorldConfigError(f"{path}: invalid world document: {e}") from e


def _world_from_doc(doc: dict) -> WorldSpec:
    """The world of a decoded world document."""
    grid = GridSpec.from_dict(doc["grid"])
    seed = whole(doc.get("seed", 0), "seed")
    waypoints = [
        Waypoint(
            gps=_gps_label(w["gps"]),
            gps_jitter=number(w.get("gps_jitter", 0.0), "gps jitter"),
            zone_map=build_zone_map(grid, w["zones"]),
        )
        for w in doc["waypoints"]
    ]
    rules = []
    for r in doc["rules"]:
        if not isinstance(r, dict):
            raise WorldConfigError(f"rule {r!r} is not a JSON object")
        if "weights" in r:
            weights = tuple(number(v, "weight") for v in r["weights"])
        else:
            weights = (number(r.get("weight", 1.0), "weight"),) * len(waypoints)
        count = r["count"]
        rules.append(
            PlacementRule(
                category=str(r["category"]),
                allowed_zones=tuple(str(z) for z in r["zones"]),
                count_min=whole(count[0], "rule count"),
                count_max=whole(count[1], "rule count"),
                weights=weights,
            )
        )
    rare = [(str(c), str(z)) for c, z in doc.get("rare_list", DEFAULT_RARE_LIST)]
    return WorldSpec(grid=grid, waypoints=waypoints, rules=rules, rare_list=rare, seed=seed)


def save_world(world: WorldSpec, path: str) -> None:
    doc = {
        "grid": world.grid.to_dict(),
        "seed": world.seed,
        "waypoints": [
            {
                "gps": [wp.gps.latitude, wp.gps.longitude],
                "gps_jitter": wp.gps_jitter,
                "zones": [
                    {"kind": kind, "cells": [[r, c] for r, c in wp.cells_of(kind)]}
                    for kind in ZONE_KINDS
                    if wp.cells_of(kind)
                ],
            }
            for wp in world.waypoints
        ],
        "rules": [
            {
                "category": rule.category,
                "zones": list(rule.allowed_zones),
                "count": [rule.count_min, rule.count_max],
                "weights": list(rule.weights),
            }
            for rule in world.rules
        ],
        "rare_list": [[c, z] for c, z in world.rare_list],
    }
    with atomic_write(path) as f:
        json.dump(doc, f, indent=1)


def default_world() -> WorldSpec:
    """Built-in six-waypoint world around one building site.

    All waypoints share one row-band layout — roads on rows 2-3 (zebra
    crossing always on columns 6-7), pedestrian ways on rows 4-5, bike lanes
    on rows 6-7, car parks on rows 8-9, bike racks on row 10 — while the
    column extent of each band varies per waypoint. Restricted strips, roofs
    and buildings live on rows that never host objects at any waypoint.
    Because the bands are global, every placement that would violate a rule
    (or match the rare list) lands on a (category, cell) pair that no normal
    scene ever occupies, so a well-fit occupancy prior assigns it a low
    probability at every waypoint.
    """
    spec = GridSpec()

    def wp(lat: float, lon: float, zones: list) -> dict:
        return {"gps": [lat, lon], "gps_jitter": 1e-5, "zones": zones}

    def rect(kind: str, r0: int, c0: int, r1: int, c1: int) -> dict:
        return {"kind": kind, "rect": [r0, c0, r1, c1]}

    def bands(road, ped, bike, park, rack, extra):
        """Zone list from per-band column spans (inclusive) plus extra rects."""
        zones = [rect("grass", 0, 0, 15, 15)]
        zones.append(rect("road", 2, road[0], 3, road[1]))
        zones.append(rect("zebra_crossing", 2, 6, 3, 7))
        zones.append(rect("pedestrian_road", 4, ped[0], 5, ped[1]))
        zones.append(rect("bike_road", 6, bike[0], 7, bike[1]))
        zones.append(rect("car_park", 8, park[0], 9, park[1]))
        zones.append(rect("bike_park", 10, rack[0], 10, rack[1]))
        zones.extend(extra)
        return zones

    waypoint_docs = [
        # W0: north gate; the fenced-off strip behind the building spans rows 0-1.
        wp(41.1000, 29.0000, bands(
            (0, 15), (0, 9), (2, 13), (0, 11), (2, 9),
            [rect("forbidden_backside", 0, 2, 1, 13),
             rect("building", 11, 2, 15, 13), rect("roof", 12, 4, 14, 11)])),
        # W1: east wing.
        wp(41.1005, 29.0002, bands(
            (0, 11), (4, 15), (0, 9), (4, 15), (8, 15),
            [rect("building", 0, 0, 1, 11),
             rect("building", 11, 0, 15, 9), rect("roof", 12, 2, 14, 7)])),
        # W2: service yard; the fenced-off strip left of the building spans
        # rows 12-15, columns 0-3.
        wp(41.1008, 29.0007, bands(
            (4, 15), (0, 7), (6, 15), (0, 7), (0, 7),
            [rect("building", 0, 4, 1, 15),
             rect("building", 11, 6, 15, 15), rect("roof", 12, 8, 14, 13),
             rect("forbidden_leftside", 12, 0, 15, 3)])),
        # W3: south court.
        wp(41.1005, 29.0012, bands(
            (2, 13), (8, 15), (0, 15), (2, 13), (4, 11),
            [rect("building", 11, 1, 15, 12), rect("roof", 12, 3, 14, 10)])),
        # W4: west approach.
        wp(41.1000, 29.0014, bands(
            (0, 9), (3, 12), (4, 11), (8, 15), (10, 15),
            [rect("building", 0, 2, 1, 13),
             rect("building", 11, 4, 15, 15), rect("roof", 12, 6, 14, 13)])),
        # W5: main entrance.
        wp(41.0996, 29.0007, bands(
            (6, 15), (0, 15), (2, 9), (0, 15), (0, 5),
            [rect("building", 11, 0, 15, 11), rect("roof", 12, 2, 14, 9)])),
    ]

    # Per-waypoint weights keep the per-cell occupancy rate of every rule
    # roughly level (0.1-0.4) despite the varying band widths above.
    road_w = (1.0, 0.8, 0.8, 0.8, 0.6, 0.6)
    ped_w = (0.8, 1.0, 0.7, 0.7, 0.8, 1.2)
    bike_w = (1.0, 0.9, 0.9, 1.2, 0.8, 0.8)
    park_w = (1.0, 1.0, 0.75, 1.0, 0.75, 1.25)
    rack_w = (1.0, 1.0, 1.0, 1.0, 0.8, 0.8)
    all_w = (1.0,) * 6
    rules = [
        ("car", "road", 6, 10, road_w),
        ("van", "road", 4, 6, road_w),
        ("bus", "road", 4, 6, road_w),
        ("truck", "road", 4, 6, road_w),
        ("car", "car_park", 6, 10, park_w),
        ("van", "car_park", 3, 5, park_w),
        ("trailer", "car_park", 3, 5, park_w),
        ("pedestrian", "pedestrian_road", 5, 9, ped_w),
        ("pedestrian", "zebra_crossing", 1, 2, all_w),
        ("bicycle", "bike_road", 4, 7, bike_w),
        ("motorbike", "bike_road", 3, 5, bike_w),
        ("bicycle", "bike_park", 2, 4, rack_w),
        ("motorbike", "bike_park", 1, 3, rack_w),
    ]
    return _world_from_doc({
        "grid": GridSpec().to_dict(),
        "seed": 2024,
        "waypoints": waypoint_docs,
        "rules": [
            {"category": cat, "zones": [zone], "count": [lo, hi], "weights": weights}
            for cat, zone, lo, hi, weights in rules
        ],
    })


def nearest_waypoint(world: WorldSpec, gps: GpsLabel) -> int:
    """Index of the waypoint closest to a GPS label (squared-degree metric)."""
    best, best_d = 0, math.inf
    for i, wp in enumerate(world.waypoints):
        d = (wp.gps.latitude - gps.latitude) ** 2 + (wp.gps.longitude - gps.longitude) ** 2
        if d < best_d:
            best, best_d = i, d
    return best


# ---------------------------------------------------------------------------
# Scene sampling
# ---------------------------------------------------------------------------


# Scenes per batch: one array draw and one lockstep shuffle each. Batches of
# 32, 64, 128 and 256 sampled default-world scenes in 33, 32, 39 and 39 us.
_SCENE_BATCH = 64


def sample_scene(world: WorldSpec, waypoint_index: int, rng: Rng) -> tuple[GridTensor, GpsLabel]:
    """One normal scene: rule-driven placements plus jittered waypoint GPS,
    from the batch sampler of ``sample_dataset``. Each rule fills a drawn,
    weighted count of its cells that no earlier rule of its category took:
    the head of a Fisher-Yates shuffle of them."""
    if not 0 <= waypoint_index < len(world.waypoints):
        raise ValueError(f"waypoint index {waypoint_index} out of range")
    return _sample_batch(world, [waypoint_index], rng)[0]


def sample_dataset(world: WorldSpec, n: int, seed: int) -> list[tuple[GridTensor, GpsLabel]]:
    """n scenes cycling waypoints round-robin, from one seeded stream: those of
    n ``sample_scene`` calls on one ``Rng(seed)``, ``_SCENE_BATCH`` at a time."""
    rng, n_wp, scenes = Rng(seed), len(world.waypoints), []
    for start in range(0, n, _SCENE_BATCH):
        batch = range(start, min(n, start + _SCENE_BATCH))
        scenes += _sample_batch(world, [i % n_wp for i in batch], rng)
    return scenes


def _sample_batch(world: WorldSpec, waypoints: Sequence[int],
                  rng: Rng) -> list[tuple[GridTensor, GpsLabel]]:
    """A scene per waypoint index, with the bits and stream use of one
    ``sample_scene`` call per scene in turn. One array draw peeks at the
    batch's bounded block of uniforms; a scalar pass takes the GPS, the
    counts and each shuffle's offset in the block, and shuffles a rule that
    shares cells with its category on the cells still free; one lockstep
    Fisher-Yates shuffles the other (scene, rule) rows."""
    spec = world.grid
    block = rng._peek(sum(world._bounds[wi] for wi in waypoints))
    us = memoryview(block)  # its items are Python floats, as scalar draws give
    data = np.zeros((len(waypoints), spec.vector_length), np.uint8)
    # Per waypoint of the batch: each rule's index, least count, count span and weight.
    draws = {wi: [(ri, r.count_min, r.count_max - r.count_min + 1, r.weights[wi])
                  for ri, r in enumerate(world.rules)] for wi in set(waypoints)}
    gps, rows = [], []  # rows: scene, waypoint, rule, offset, cells and picks per shuffle
    pos = 0
    for s, wi in enumerate(waypoints):
        wp, placements, shared = world.waypoints[wi], world._placements[wi], world._shared[wi]
        z0, z1 = _box_muller(us[pos], us[pos + 1])
        gps.append(GpsLabel(wp.gps.latitude + wp.gps_jitter * z0,
                            wp.gps.longitude + wp.gps_jitter * z1))
        pos += 2
        taken: dict[str, set] = {}  # per category, the cells its shared rules took
        for ri, low, span, weight in draws[wi]:
            drawn = int(us[pos] * span)  # Rng.randint(span), clamped below
            pos += 1
            count = round(weight * (low + (drawn if drawn < span else span - 1)))
            if count <= 0:
                continue
            cells = placements[ri]
            if shared[ri]:
                seen = taken.setdefault(world.rules[ri].category, set())
                free = [i for i in cells if i not in seen] if seen else cells
                n = len(free)
                picked = _fisher_yates(free, min(count, n), us[pos : pos + max(n - 1, 0)])
                seen.update(picked)
                data[s, picked] = 1
            else:
                n = len(cells)
                rows += (s, wi, ri, pos, n, count if count < n else n)
            pos += n - 1 if n else 0
    rng._skip(pos)
    if rows:
        scene, wps, rule, offset, n, k = np.fromiter(rows, np.intp, len(rows)).reshape(-1, 6).T
        width = int(n.max())
        at = np.minimum(offset[:, None] + np.arange(width - 1), block.size - 1)
        cells = world._table[wps[:, None], rule[:, None], _lockstep_shuffle(n, block[at])]
        picks = np.arange(width) < k[:, None]
        data[np.broadcast_to(scene[:, None], picks.shape)[picks], cells[picks]] = 1
    shape = (spec.cells_y, spec.cells_x, N_CATEGORIES)
    return [(GridTensor(spec, d.reshape(shape)), g) for d, g in zip(data, gps)]


def split_sizes(n: int) -> tuple[int, int, int]:
    """Train/val/test sizes of a 60/10/30 split; val and test round down,
    train takes the rest."""
    n_val, n_test = n // 10, 3 * n // 10
    return n - n_val - n_test, n_val, n_test


def build_dataset(world: WorldSpec, n: int, out_dir: str, seed: int) -> dict:
    """Generate n scenes and write train/val/test JSON Lines (split 60/10/30)
    plus a manifest."""
    if n < 10:
        raise ValueError("dataset needs at least 10 samples")
    n_train, n_val, n_test = split_sizes(n)
    scenes = sample_dataset(world, n, seed)

    os.makedirs(out_dir, exist_ok=True)
    parts = {
        "train": scenes[:n_train],
        "val": scenes[n_train : n_train + n_val],
        "test": scenes[n_train + n_val :],
    }
    files = {}
    for name, part in parts.items():
        path = os.path.join(out_dir, f"{name}.jsonl")
        with atomic_write(path) as f:
            for g, gps in part:
                f.write(scene_to_record(g, gps) + "\n")
        files[name] = f"{name}.jsonl"
    manifest = {
        "n_samples": n,
        "seed": seed,
        "world_seed": world.seed,
        "n_waypoints": len(world.waypoints),
        "splits": {"train": n_train, "val": n_val, "test": n_test},
        "files": files,
        "grid": world.grid.to_dict(),
    }
    with atomic_write(os.path.join(out_dir, "manifest.json")) as f:
        json.dump(manifest, f, indent=1)
    logger.info("wrote %d scenes to %s (%d/%d/%d)", n, out_dir, n_train, n_val, n_test)
    return manifest


def load_scenes(path: str, spec: GridSpec) -> list[tuple[GridTensor, GpsLabel]]:
    return list(read_jsonl(path, lambda record, _: record_to_scene(record, spec)))


# ---------------------------------------------------------------------------
# Rule auditing
#
# The auditor sees only zone maps and the task rule definitions below; it
# shares no code or state with the placement sampler.
# ---------------------------------------------------------------------------


def audit_scene(waypoint: Waypoint, grid: GridTensor) -> list[tuple[str, str, int, int]]:
    """All task-1/2 rule violations in a scene as (rule, category, row, col)."""
    violations = []
    for row, col, cat in grid.occupied_cells():
        zone = waypoint.zone_at(row, col)
        name = CATEGORIES[cat]
        if zone == "forbidden_backside":
            violations.append(("private_backside", name, row, col))
        elif zone == "forbidden_leftside" and name in VEHICLE_CATEGORIES:
            violations.append(("private_leftside", name, row, col))
        if zone == "road" and name == "pedestrian":
            violations.append(("public_pedestrian_on_road", name, row, col))
        if zone in ("road", "pedestrian_road") and name == "bicycle":
            violations.append(("public_bicycle_off_bike_road", name, row, col))
        if zone == "bike_road" and name in HEAVY_VEHICLE_CATEGORIES:
            violations.append(("public_heavy_on_bike_road", name, row, col))
    return violations


# ---------------------------------------------------------------------------
# Anomaly injection
# ---------------------------------------------------------------------------


def _inject(
    task: int,
    world: WorldSpec,
    grid: GridTensor,
    waypoint_index: int,
    draw: Callable[[], float],
    scene_index: int,
) -> tuple[GridTensor, AnomalyCase] | None:
    """Plant one free candidate cell of ``task``, picked as ``Rng.randint``
    picks on the uniform ``draw()``. A scene with no free candidate gets
    None, and ``draw`` is not called."""
    candidates = world._candidates[waypoint_index][task]
    free = candidates[grid.data.reshape(-1)[candidates] == 0]
    if not free.size:
        return None
    cell, cat = divmod(int(free[min(int(draw() * free.size), free.size - 1)]), N_CATEGORIES)
    row, col = divmod(cell, world.grid.cells_x)
    case = AnomalyCase(
        task=TASK_NAMES[task],
        category=CATEGORIES[cat],
        row=row,
        col=col,
        scene_index=scene_index,
        waypoint_index=waypoint_index,
    )
    return grid.with_cell(row, col, cat), case


# build_benchmark calls the injectors through this table; perfbench wraps
# its entries to time each injection.
_INJECTORS = {task: functools.partial(_inject, task) for task in (1, 2, 3)}


def build_benchmark(
    world: WorldSpec,
    scenes: Sequence[tuple[GridTensor, GpsLabel]],
    task: int,
    rng: Rng,
) -> list[tuple[GridTensor, GpsLabel, AnomalyCase]]:
    """One injection per eligible scene; ineligible scenes are skipped.

    Each injection takes the next uniform of ``rng``, read ahead one per
    scene; a skipped scene takes none, and ``rng`` then moves past the ones
    taken."""
    if task not in _INJECTORS:
        raise ValueError(f"unknown task {task}")
    draw = iter(rng._peek(len(scenes)).tolist()).__next__
    records = []
    for i, (g, gps) in enumerate(scenes):
        injected = _INJECTORS[task](world, g, nearest_waypoint(world, gps), draw, scene_index=i)
        if injected is not None:
            modified, case = injected
            records.append((modified, gps, case))
    rng._skip(len(records))
    if len(records) < len(scenes):
        logger.info("task %d: skipped %d ineligible scenes", task, len(scenes) - len(records))
    return records


def write_benchmark(
    records: Sequence[tuple[GridTensor, GpsLabel, AnomalyCase]], path: str
) -> None:
    with atomic_write(path) as f:
        for g, gps, case in records:
            extra = {"task": case.task, "injected": [case.category, case.row, case.col]}
            f.write(scene_to_record(g, gps, extra) + "\n")


def read_benchmark(path: str, spec: GridSpec) -> list[tuple[GridTensor, GpsLabel, AnomalyCase]]:
    """Parse an injected-anomaly benchmark file; errors carry the path and
    the line number."""

    def parse(record: dict, index: int) -> tuple[GridTensor, GpsLabel, AnomalyCase]:
        g, gps = record_to_scene(record, spec)
        name, row, col = record["injected"]
        if type(row) is not int or type(col) is not int:
            raise ValueError(f"injected cell ({row!r}, {col!r}): row and col must be integers")
        if not (0 <= row < spec.cells_y and 0 <= col < spec.cells_x):
            raise ValueError(f"injected cell ({row}, {col}) outside grid")
        case = AnomalyCase(
            task=str(record["task"]),
            category=str(name),
            row=row,
            col=col,
            scene_index=index,
            waypoint_index=-1,
        )
        if str(name) not in CATEGORY_IDS:
            raise ValueError(f"unknown category {name!r}")
        if g.data[case.row, case.col, CATEGORY_IDS[case.category]] != 1:
            raise ValueError("injected cell is not occupied in the scene")
        return g, gps, case

    return list(read_jsonl(path, parse))
