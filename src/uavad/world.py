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
    atomic_write,
    read_jsonl,
    record_to_scene,
    scene_to_record,
    whole,
)
from .nn import Rng

__all__ = [
    "ZONE_KINDS",
    "VEHICLE_CATEGORIES",
    "HEAVY_VEHICLE_CATEGORIES",
    "TASK_NAMES",
    "WorldConfigError",
    "InjectionError",
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
    "inject_task1",
    "inject_task2",
    "inject_task3",
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


class InjectionError(Exception):
    """No feasible anomaly injection exists for a scene."""


@dataclass(frozen=True, eq=False)
class Waypoint:
    """One surveillance position: GPS plus a full zone labelling of the view."""

    gps: GpsLabel
    gps_jitter: float
    zone_map: np.ndarray  # (cells_y, cells_x) of zone-kind indices

    def __post_init__(self) -> None:
        zm = np.asarray(self.zone_map, dtype=np.int16)
        if zm.ndim != 2:
            raise WorldConfigError("zone map must be two-dimensional")
        if zm.min() < 0 or zm.max() >= len(ZONE_KINDS):
            raise WorldConfigError("zone map holds an undefined zone index")
        if self.gps_jitter < 0:
            raise WorldConfigError("gps jitter must be non-negative")
        zm = zm.copy()
        zm.flags.writeable = False
        object.__setattr__(self, "zone_map", zm)

    def zone_at(self, row: int, col: int) -> str:
        return ZONE_KINDS[self.zone_map[row, col]]

    def cells_of(self, kind: str) -> list[tuple[int, int]]:
        """All (row, col) with the given zone kind, row-major order."""
        rows, cols = np.nonzero(self.zone_map == _ZONE_IDS[kind])
        return list(zip(rows.tolist(), cols.tolist()))


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
        if any(w < 0 for w in self.weights):
            raise WorldConfigError(f"rule for {self.category!r} has a negative weight")


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
    _cells: dict = field(default_factory=dict, repr=False, compare=False)

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
        for rule in self.rules:
            if len(rule.weights) != len(self.waypoints):
                raise WorldConfigError(
                    f"rule for {rule.category!r} has {len(rule.weights)} weights "
                    f"for {len(self.waypoints)} waypoints"
                )
            for wi, wp in enumerate(self.waypoints):
                if rule.weights[wi] > 0 and rule.count_max > 0:
                    if not self.rule_cells(rule, wi):
                        raise WorldConfigError(
                            f"rule for {rule.category!r} allows zones {rule.allowed_zones} "
                            f"but waypoint {wi} has no such cells"
                        )
        for cat, zone in self.rare_list:
            if cat not in CATEGORY_IDS:
                raise WorldConfigError(f"rare list references unknown category {cat!r}")
            if zone not in _ZONE_IDS:
                raise WorldConfigError(f"rare list references unknown zone {zone!r}")

    def rule_cells(self, rule: PlacementRule, waypoint_index: int) -> list[tuple[int, int]]:
        """Cells where a rule may place objects at a waypoint, row-major."""
        key = (rule, waypoint_index)
        if key not in self._cells:
            wp = self.waypoints[waypoint_index]
            mask = np.zeros_like(wp.zone_map, dtype=bool)
            for kind in rule.allowed_zones:
                mask |= wp.zone_map == _ZONE_IDS[kind]
            rows, cols = np.nonzero(mask)
            self._cells[key] = list(zip(rows.tolist(), cols.tolist()))
        return self._cells[key]


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
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise WorldConfigError(f"{path}: malformed world file: {e}") from e
    try:
        grid = GridSpec.from_dict(doc["grid"])
        seed = whole(doc.get("seed", 0), "seed")
        waypoints = []
        for w in doc["waypoints"]:
            waypoints.append(
                Waypoint(
                    gps=GpsLabel(float(w["gps"][0]), float(w["gps"][1])),
                    gps_jitter=float(w.get("gps_jitter", 0.0)),
                    zone_map=build_zone_map(grid, w["zones"]),
                )
            )
        n_wp = len(waypoints)
        rules = []
        for r in doc["rules"]:
            if "weights" in r:
                weights = tuple(float(v) for v in r["weights"])
            else:
                weights = (float(r.get("weight", 1.0)),) * n_wp
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
    except RECORD_ERRORS as e:
        raise WorldConfigError(f"{path}: invalid world document: {e}") from e
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
    waypoints = [
        Waypoint(
            gps=GpsLabel(d["gps"][0], d["gps"][1]),
            gps_jitter=d["gps_jitter"],
            zone_map=build_zone_map(spec, d["zones"]),
        )
        for d in waypoint_docs
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
        PlacementRule("car", ("road",), 6, 10, road_w),
        PlacementRule("van", ("road",), 4, 6, road_w),
        PlacementRule("bus", ("road",), 4, 6, road_w),
        PlacementRule("truck", ("road",), 4, 6, road_w),
        PlacementRule("car", ("car_park",), 6, 10, park_w),
        PlacementRule("van", ("car_park",), 3, 5, park_w),
        PlacementRule("trailer", ("car_park",), 3, 5, park_w),
        PlacementRule("pedestrian", ("pedestrian_road",), 5, 9, ped_w),
        PlacementRule("pedestrian", ("zebra_crossing",), 1, 2, all_w),
        PlacementRule("bicycle", ("bike_road",), 4, 7, bike_w),
        PlacementRule("motorbike", ("bike_road",), 3, 5, bike_w),
        PlacementRule("bicycle", ("bike_park",), 2, 4, rack_w),
        PlacementRule("motorbike", ("bike_park",), 1, 3, rack_w),
    ]
    return WorldSpec(
        grid=spec,
        waypoints=waypoints,
        rules=rules,
        rare_list=list(DEFAULT_RARE_LIST),
        seed=2024,
    )


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


def sample_scene(world: WorldSpec, waypoint_index: int, rng: Rng) -> tuple[GridTensor, GpsLabel]:
    """One normal scene: rule-driven placements plus jittered waypoint GPS."""
    if not 0 <= waypoint_index < len(world.waypoints):
        raise ValueError(f"waypoint index {waypoint_index} out of range")
    wp = world.waypoints[waypoint_index]
    spec = world.grid

    lat = wp.gps.latitude + wp.gps_jitter * rng.gaussian()
    lon = wp.gps.longitude + wp.gps_jitter * rng.gaussian()
    gps = GpsLabel(lat, lon)

    data = np.zeros((spec.cells_y, spec.cells_x, N_CATEGORIES), dtype=np.uint8)
    for rule in world.rules:
        weight = rule.weights[waypoint_index]
        drawn = rule.count_min + rng.randint(rule.count_max - rule.count_min + 1)
        count = int(round(weight * drawn))
        if count <= 0:
            continue
        cat = CATEGORY_IDS[rule.category]
        free = [(r, c) for r, c in world.rule_cells(rule, waypoint_index) if data[r, c, cat] == 0]
        for r, c in rng.sample_without_replacement(free, min(count, len(free))):
            data[r, c, cat] = 1
    return GridTensor(spec, data), gps


def sample_dataset(world: WorldSpec, n: int, seed: int) -> list[tuple[GridTensor, GpsLabel]]:
    """n scenes cycling waypoints round-robin, from one seeded stream."""
    rng = Rng(seed)
    return [sample_scene(world, i % len(world.waypoints), rng) for i in range(n)]


def split_sizes(n: int, fracs: tuple[float, float, float] = (0.6, 0.1, 0.3)) -> tuple[int, int, int]:
    """Train/val/test sizes; val and test round down, train takes the rest."""
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    n_val = int(math.floor(fracs[1] * n + 1e-9))
    n_test = int(math.floor(fracs[2] * n + 1e-9))
    n_train = n - n_val - n_test
    if n_train <= 0:
        raise ValueError(f"split {fracs} leaves no training samples for n={n}")
    return n_train, n_val, n_test


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
                f.write(json.dumps(scene_to_record(g, gps)) + "\n")
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


def _read_records(path: str, parse: Callable[[dict, int], object]) -> list:
    """``parse(record, position)`` over the records of a JSON Lines file, in
    order. A malformed record raises ValueError naming the file and the line."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, record in read_jsonl(f):
            try:
                out.append(parse(record, len(out)))
            except RECORD_ERRORS as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from e
    return out


def load_scenes(path: str, spec: GridSpec) -> list[tuple[GridTensor, GpsLabel]]:
    return _read_records(path, lambda record, _: record_to_scene(record, spec))


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
    world: WorldSpec,
    task: int,
    grid: GridTensor,
    waypoint_index: int,
    rng: Rng,
    scene_index: int,
) -> tuple[GridTensor, AnomalyCase]:
    pairs = {1: _TASK1_PAIRS, 2: _TASK2_PAIRS, 3: world.rare_list}.get(task)
    if pairs is None:
        raise ValueError(f"unknown task {task}")
    wp = world.waypoints[waypoint_index]
    cells = {zone: wp.cells_of(zone) for zone in {zone for _, zone in pairs}}
    candidates = [
        (cat, r, c)
        for name, zone in pairs
        for cat in (CATEGORY_IDS[name],)
        for r, c in cells[zone]
        if grid.data[r, c, cat] == 0
    ]
    if not candidates:
        raise InjectionError(f"no feasible task-{task} injection at waypoint {waypoint_index}")
    cat, row, col = candidates[rng.randint(len(candidates))]
    case = AnomalyCase(
        task=TASK_NAMES[task],
        category=CATEGORIES[cat],
        row=row,
        col=col,
        scene_index=scene_index,
        waypoint_index=waypoint_index,
    )
    return grid.with_cell(row, col, cat), case


def inject_task1(
    world: WorldSpec, grid: GridTensor, waypoint_index: int, rng: Rng, scene_index: int = -1
) -> tuple[GridTensor, AnomalyCase]:
    """Add one object into a forbidden strip (any category behind the
    building; vehicles on its left side)."""
    return _inject(world, 1, grid, waypoint_index, rng, scene_index)


def inject_task2(
    world: WorldSpec, grid: GridTensor, waypoint_index: int, rng: Rng, scene_index: int = -1
) -> tuple[GridTensor, AnomalyCase]:
    """Add one traffic-rule violation: pedestrian on a road away from the
    crossing, bicycle off the bike road, or heavy vehicle on the bike road."""
    return _inject(world, 2, grid, waypoint_index, rng, scene_index)


def inject_task3(
    world: WorldSpec, grid: GridTensor, waypoint_index: int, rng: Rng, scene_index: int = -1
) -> tuple[GridTensor, AnomalyCase]:
    """Add one legal-but-rare placement from the world's rare list."""
    return _inject(world, 3, grid, waypoint_index, rng, scene_index)


_INJECTORS = {1: inject_task1, 2: inject_task2, 3: inject_task3}


def build_benchmark(
    world: WorldSpec,
    scenes: Sequence[tuple[GridTensor, GpsLabel]],
    task: int,
    rng: Rng,
) -> list[tuple[GridTensor, GpsLabel, AnomalyCase]]:
    """One injection per eligible scene; ineligible scenes are skipped."""
    if task not in _INJECTORS:
        raise ValueError(f"unknown task {task}")
    records = []
    skipped = 0
    for i, (g, gps) in enumerate(scenes):
        wi = nearest_waypoint(world, gps)
        try:
            modified, case = _INJECTORS[task](world, g, wi, rng, scene_index=i)
        except InjectionError:
            skipped += 1
            continue
        records.append((modified, gps, case))
    if skipped:
        logger.info("task %d: skipped %d ineligible scenes", task, skipped)
    return records


def write_benchmark(
    records: Sequence[tuple[GridTensor, GpsLabel, AnomalyCase]], path: str
) -> None:
    with atomic_write(path) as f:
        for g, gps, case in records:
            record = scene_to_record(g, gps)
            record["task"] = case.task
            record["injected"] = [case.category, case.row, case.col]
            f.write(json.dumps(record) + "\n")


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

    return _read_records(path, parse)
