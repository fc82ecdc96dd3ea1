"""Tests for the synthetic world: zone maps, sampling, auditing, injection."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from uavad import adnet, nn
from uavad import world as world_module
from uavad.adnet import Dataset, ModelConfig, TrainConfig, save_checkpoint
from uavad.evaluate import run_benchmark
from uavad.grid import CATEGORIES, CATEGORY_IDS, N_CATEGORIES, GpsLabel, GridSpec, GridTensor
from uavad.nn import Rng
from uavad.world import (
    DEFAULT_RARE_LIST,
    HEAVY_VEHICLE_CATEGORIES,
    PlacementRule,
    VEHICLE_CATEGORIES,
    Waypoint,
    WorldConfigError,
    WorldSpec,
    ZONE_KINDS,
    audit_scene,
    build_benchmark,
    build_dataset,
    build_zone_map,
    default_world,
    load_scenes,
    load_world,
    nearest_waypoint,
    read_benchmark,
    sample_dataset,
    sample_scene,
    save_world,
    split_sizes,
    write_benchmark,
)

from test_grid import BAD_GPS, record_dict

WORLD = default_world()


def toy_world() -> WorldSpec:
    """Two waypoints, one road band, one rule; no forbidden zones or rare list."""
    spec = GridSpec(cells_x=8, cells_y=8)
    zones_a = [
        {"kind": "grass", "rect": [0, 0, 7, 7]},
        {"kind": "road", "rect": [2, 0, 3, 7]},
    ]
    zones_b = [
        {"kind": "grass", "rect": [0, 0, 7, 7]},
        {"kind": "road", "rect": [2, 2, 3, 5]},
    ]
    waypoints = [
        Waypoint(GpsLabel(41.0, 29.0), 0.0, build_zone_map(spec, zones_a)),
        Waypoint(GpsLabel(41.2, 29.2), 0.0, build_zone_map(spec, zones_b)),
    ]
    rules = [PlacementRule("car", ("road",), 2, 4, (1.0, 1.0))]
    return WorldSpec(grid=spec, waypoints=waypoints, rules=rules, rare_list=[], seed=1)


def shared_zone_world() -> WorldSpec:
    """The default world plus three car rules that share the road with its
    own car rule. The first of them takes every road cell at most waypoints,
    so the next finds only the zebra crossing free, and the last nothing."""
    rules = list(WORLD.rules) + [
        PlacementRule("car", ("road",), 30, 40, (1.0, 1.0, 0.0, 1.0, 0.5, 1.0)),
        PlacementRule("car", ("road", "zebra_crossing"), 0, 3, (1.0,) * 6),
        PlacementRule("car", ("road",), 1, 2, (1.0,) * 6),
    ]
    return WorldSpec(grid=WORLD.grid, waypoints=WORLD.waypoints, rules=rules, seed=1)


class ScalarGaussians:
    """Standard normals one at a time on an Rng's scalar uniforms: a pair of
    uniforms gives one by Box-Muller and keeps the other as a spare, which
    the next call returns."""

    def __init__(self, rng: Rng):
        self.rng, self.spare = rng, None

    def __call__(self) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u0, u1 = self.rng.uniform(), self.rng.uniform()
        r = np.sqrt(-2.0 * np.log1p(-u0))
        self.spare = float(r * np.sin(2.0 * np.pi * u1))
        return float(r * np.cos(2.0 * np.pi * u1))


def rule_cells(world: WorldSpec, ri: int, wi: int) -> list[tuple[int, int]]:
    """The (row, col) cells of the zones that rule ``ri`` allows at waypoint
    ``wi``, read from its zone map, row-major."""
    wp = world.waypoints[wi]
    return sorted({cell for zone in world.rules[ri].allowed_zones for cell in wp.cells_of(zone)})


def reference_sample_scene(world: WorldSpec, wi: int, rng: Rng) -> tuple[GridTensor, GpsLabel]:
    """One scene, one scalar draw at a time: the GPS from two gaussians, then
    per rule a randint count and a partial shuffle of the rule's cells that
    no earlier rule of its category took."""
    wp, spec = world.waypoints[wi], world.grid
    gaussian = ScalarGaussians(rng)
    lat = wp.gps.latitude + wp.gps_jitter * gaussian()
    lon = wp.gps.longitude + wp.gps_jitter * gaussian()
    placed: list[int] = []
    taken = [set() for _ in range(N_CATEGORIES)]
    for ri, rule in enumerate(world.rules):
        drawn = rule.count_min + rng.randint(rule.count_max - rule.count_min + 1)
        count = int(round(rule.weights[wi] * drawn))
        if count <= 0:
            continue
        cat = CATEGORY_IDS[rule.category]
        cells = [(r * spec.cells_x + c) * N_CATEGORIES + cat for r, c in rule_cells(world, ri, wi)]
        free = [i for i in cells if i not in taken[cat]]
        picked = rng.sample_without_replacement(free, min(count, len(free)))
        taken[cat].update(picked)
        placed += picked
    data = np.zeros((spec.cells_y, spec.cells_x, N_CATEGORIES), dtype=np.uint8)
    data.reshape(-1)[placed] = 1
    return GridTensor(spec, data), GpsLabel(lat, lon)


def rule_reachable_pairs(world: WorldSpec) -> set[tuple[int, int, int]]:
    """Every (category, row, col) some placement rule can occupy at some waypoint."""
    reachable = set()
    for ri, rule in enumerate(world.rules):
        cat = CATEGORY_IDS[rule.category]
        for wi in range(len(world.waypoints)):
            if rule.weights[wi] > 0 and rule.count_max > 0:
                for r, c in rule_cells(world, ri, wi):
                    reachable.add((cat, r, c))
    return reachable


def inject(task: int, world: WorldSpec, grid: GridTensor, wi: int, rng: Rng, scene_index=-1):
    """One task injection through ``build_benchmark``'s table, on the next
    scalar uniform of ``rng``: the (scene, case) pair, or None."""
    return world_module._INJECTORS[task](world, grid, wi, rng.uniform, scene_index)


def injection_candidate_pairs(world: WorldSpec, wi: int) -> set[tuple[int, int, int]]:
    """All (category, row, col) the three injectors may target at a waypoint.

    Re-derived from the zone map and the task definitions, independently of
    the injector code.
    """
    wp = world.waypoints[wi]
    pairs = set()
    for name in CATEGORIES:
        for r, c in wp.cells_of("forbidden_backside"):
            pairs.add((CATEGORY_IDS[name], r, c))
    for name in VEHICLE_CATEGORIES:
        for r, c in wp.cells_of("forbidden_leftside"):
            pairs.add((CATEGORY_IDS[name], r, c))
    for r, c in wp.cells_of("road"):
        pairs.add((CATEGORY_IDS["pedestrian"], r, c))
    for r, c in wp.cells_of("road") + wp.cells_of("pedestrian_road"):
        pairs.add((CATEGORY_IDS["bicycle"], r, c))
    for name in HEAVY_VEHICLE_CATEGORIES:
        for r, c in wp.cells_of("bike_road"):
            pairs.add((CATEGORY_IDS[name], r, c))
    for name, zone in world.rare_list:
        for r, c in wp.cells_of(zone):
            pairs.add((CATEGORY_IDS[name], r, c))
    return pairs


class TestDefaultWorldStructure:
    def test_six_jittered_waypoints_on_the_full_grid(self):
        assert len(WORLD.waypoints) == 6
        for wp in WORLD.waypoints:
            assert wp.zone_map.shape == (16, 16)
            assert wp.gps_jitter == pytest.approx(1e-5)

    def test_waypoints_are_gps_separable(self):
        """Waypoint spacing must dwarf the jitter for GPS to identify views."""
        for i, a in enumerate(WORLD.waypoints):
            for j, b in enumerate(WORLD.waypoints):
                if i >= j:
                    continue
                d = abs(a.gps.latitude - b.gps.latitude) + abs(
                    a.gps.longitude - b.gps.longitude
                )
                assert d > 20 * max(a.gps_jitter, b.gps_jitter), (i, j)

    def test_object_bands_share_rows_across_waypoints(self):
        """Zone kinds that host objects always occupy the same rows, so a
        cell's role never flips between occupied-kind and empty-kind."""
        band_rows = {
            "road": {2, 3},
            "zebra_crossing": {2, 3},
            "pedestrian_road": {4, 5},
            "bike_road": {6, 7},
            "car_park": {8, 9},
            "bike_park": {10},
        }
        for wi, wp in enumerate(WORLD.waypoints):
            for kind, rows in band_rows.items():
                got = {r for r, _ in wp.cells_of(kind)}
                assert got and got <= rows, (wi, kind, got)

    def test_zone_lookup_is_consistent(self):
        wp = WORLD.waypoints[0]
        for kind in ZONE_KINDS:
            for r, c in wp.cells_of(kind):
                assert wp.zone_at(r, c) == kind

    def test_injection_targets_are_unreachable_by_normal_placement(self):
        """The load-bearing invariant: every cell any injector may hit is a
        (category, cell) pair that no placement rule produces at any
        waypoint, so normal scenes never occupy it anywhere."""
        reachable = rule_reachable_pairs(WORLD)
        for wi in range(len(WORLD.waypoints)):
            overlap = injection_candidate_pairs(WORLD, wi) & reachable
            assert not overlap, (wi, sorted(overlap)[:5])

    def test_task_feasibility_per_waypoint(self):
        """Tasks 2 and 3 work everywhere; the private strips (task 1) are
        visible only from the north gate and the service yard."""
        private = [
            wi
            for wi, wp in enumerate(WORLD.waypoints)
            if wp.cells_of("forbidden_backside") or wp.cells_of("forbidden_leftside")
        ]
        assert private == [0, 2]
        for wi, wp in enumerate(WORLD.waypoints):
            assert wp.cells_of("road") and wp.cells_of("bike_road")
            for _, zone in WORLD.rare_list:
                assert wp.cells_of(zone), (wi, zone)

    def test_rare_list_defaults(self):
        assert WORLD.rare_list == list(DEFAULT_RARE_LIST)


class TestZoneMapBuilder:
    SPEC = GridSpec(cells_x=4, cells_y=4)

    def test_later_entries_override_earlier_ones(self):
        zm = build_zone_map(
            self.SPEC,
            [
                {"kind": "grass", "rect": [0, 0, 3, 3]},
                {"kind": "road", "rect": [1, 0, 1, 3]},
                {"kind": "zebra_crossing", "rect": [1, 2, 1, 2]},
            ],
        )
        assert ZONE_KINDS[zm[1, 1]] == "road"
        assert ZONE_KINDS[zm[1, 2]] == "zebra_crossing"
        assert ZONE_KINDS[zm[0, 0]] == "grass"

    def test_explicit_cell_lists_work(self):
        zm = build_zone_map(
            self.SPEC,
            [
                {"kind": "grass", "rect": [0, 0, 3, 3]},
                {"kind": "roof", "cells": [[2, 2], [3, 3]]},
            ],
        )
        assert ZONE_KINDS[zm[2, 2]] == "roof" and ZONE_KINDS[zm[3, 3]] == "roof"

    def test_unlabelled_cells_are_rejected(self):
        with pytest.raises(WorldConfigError, match="unlabelled"):
            build_zone_map(self.SPEC, [{"kind": "road", "rect": [0, 0, 1, 1]}])

    def test_out_of_grid_rect_is_rejected(self):
        with pytest.raises(WorldConfigError, match="outside"):
            build_zone_map(self.SPEC, [{"kind": "grass", "rect": [0, 0, 4, 3]}])

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(WorldConfigError, match="unknown zone kind"):
            build_zone_map(self.SPEC, [{"kind": "lake", "rect": [0, 0, 3, 3]}])

    def test_entry_without_geometry_is_rejected(self):
        with pytest.raises(WorldConfigError, match="rect.*cells|cells.*rect"):
            build_zone_map(self.SPEC, [{"kind": "grass"}])


class TestWorldValidation:
    def test_needs_two_waypoints(self):
        w = toy_world()
        with pytest.raises(WorldConfigError, match="waypoints"):
            WorldSpec(grid=w.grid, waypoints=w.waypoints[:1], rules=w.rules)

    def test_zone_map_must_match_the_grid(self):
        w = toy_world()
        with pytest.raises(WorldConfigError, match="shape"):
            WorldSpec(grid=GridSpec(cells_x=16, cells_y=16), waypoints=w.waypoints, rules=w.rules)

    def test_weights_must_cover_all_waypoints(self):
        w = toy_world()
        bad = PlacementRule("car", ("road",), 1, 2, (1.0,))
        with pytest.raises(WorldConfigError, match="weights"):
            WorldSpec(grid=w.grid, waypoints=w.waypoints, rules=[bad])

    def test_rules_must_be_satisfiable_where_weighted(self):
        """A rule pointing at a zone a waypoint does not have is a config bug."""
        w = toy_world()
        bad = PlacementRule("car", ("car_park",), 1, 2, (1.0, 1.0))
        with pytest.raises(WorldConfigError, match="no such cells"):
            WorldSpec(grid=w.grid, waypoints=w.waypoints, rules=[bad])

    def test_rare_list_entries_are_checked(self):
        w = toy_world()
        with pytest.raises(WorldConfigError, match="rare list"):
            WorldSpec(
                grid=w.grid, waypoints=w.waypoints, rules=w.rules, rare_list=[("car", "lake")]
            )

    def test_placement_rule_validation(self):
        with pytest.raises(WorldConfigError, match="category"):
            PlacementRule("submarine", ("road",), 1, 2, (1.0,))
        with pytest.raises(WorldConfigError, match="zones"):
            PlacementRule("car", (), 1, 2, (1.0,))
        with pytest.raises(WorldConfigError, match="unknown zone"):
            PlacementRule("car", ("lake",), 1, 2, (1.0,))
        with pytest.raises(WorldConfigError, match="count"):
            PlacementRule("car", ("road",), 3, 2, (1.0,))
        with pytest.raises(WorldConfigError, match="weight"):
            PlacementRule("car", ("road",), 1, 2, (-1.0,))
        for weight in (math.inf, math.nan):
            with pytest.raises(WorldConfigError, match="non-finite weight"):
                PlacementRule("car", ("road",), 1, 2, (1.0, weight))

    def test_waypoint_validation(self):
        with pytest.raises(WorldConfigError, match="zone index"):
            Waypoint(GpsLabel(41.0, 29.0), 0.0, np.full((4, 4), 99))
        for jitter in (-1.0, math.inf, math.nan):
            with pytest.raises(WorldConfigError, match="jitter"):
                Waypoint(GpsLabel(41.0, 29.0), jitter, np.zeros((4, 4), dtype=np.int16))


class TestNearestWaypoint:
    def test_exact_positions_map_to_themselves(self):
        for i, wp in enumerate(WORLD.waypoints):
            assert nearest_waypoint(WORLD, wp.gps) == i

    def test_jitter_does_not_change_the_owner(self):
        rng = Rng(17)
        for i, wp in enumerate(WORLD.waypoints):
            for z_lat, z_lon in rng.gaussian((20, 2)):
                gps = GpsLabel(
                    wp.gps.latitude + wp.gps_jitter * z_lat,
                    wp.gps.longitude + wp.gps_jitter * z_lon,
                )
                assert nearest_waypoint(WORLD, gps) == i


class TestSampling:
    def test_same_stream_reproduces_the_scene(self):
        a = sample_scene(WORLD, 0, Rng(5))
        b = sample_scene(WORLD, 0, Rng(5))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_sampled_scenes_pass_the_independent_audit(self):
        """Normal scenes must never violate a task-1/2 rule."""
        rng = Rng(31)
        for wi in range(len(WORLD.waypoints)):
            for _ in range(10):
                grid, _ = sample_scene(WORLD, wi, rng)
                assert audit_scene(WORLD.waypoints[wi], grid) == []

    def test_placements_stay_inside_rule_zones(self):
        reachable = rule_reachable_pairs(WORLD)
        rng = Rng(32)
        for wi in range(len(WORLD.waypoints)):
            grid, _ = sample_scene(WORLD, wi, rng)
            for r, c, cat in grid.occupied_cells():
                assert (cat, r, c) in reachable, (wi, r, c, CATEGORIES[cat])

    def test_zebra_crossing_hosts_one_or_two_pedestrians(self):
        rng = Rng(33)
        wp = WORLD.waypoints[0]
        ped = CATEGORY_IDS["pedestrian"]
        for _ in range(10):
            grid, _ = sample_scene(WORLD, 0, rng)
            n = sum(grid.data[r, c, ped] for r, c in wp.cells_of("zebra_crossing"))
            assert 1 <= n <= 2

    def test_scenes_are_nonempty_and_plausibly_busy(self):
        rng = Rng(34)
        for wi in range(len(WORLD.waypoints)):
            grid, _ = sample_scene(WORLD, wi, rng)
            assert 15 <= grid.popcount() <= 80, (wi, grid.popcount())

    def test_gps_is_jittered_around_the_waypoint(self):
        rng = Rng(35)
        _, gps = sample_scene(WORLD, 2, rng)
        wp = WORLD.waypoints[2]
        assert gps.latitude != wp.gps.latitude
        assert abs(gps.latitude - wp.gps.latitude) < 1e-4
        assert abs(gps.longitude - wp.gps.longitude) < 1e-4

    def test_dataset_cycles_waypoints_round_robin(self):
        scenes = sample_dataset(WORLD, 12, seed=3)
        assert len(scenes) == 12
        for i, (_, gps) in enumerate(scenes):
            assert nearest_waypoint(WORLD, gps) == i % 6

    def test_dataset_is_seed_deterministic(self):
        a = sample_dataset(WORLD, 12, seed=8)
        b = sample_dataset(WORLD, 12, seed=8)
        c = sample_dataset(WORLD, 12, seed=9)
        assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(a, b))
        assert any(x[0] != y[0] for x, y in zip(a, c))

    def test_bad_waypoint_index_is_rejected(self):
        with pytest.raises(ValueError, match="waypoint index"):
            sample_scene(WORLD, 6, Rng(0))

    def test_a_rule_over_several_zones_covers_their_union_row_major(self):
        zones = ("car_park", "road", "road", "bike_park")
        rule = PlacementRule("car", zones, 1, 2, (1.0,) * len(WORLD.waypoints))
        world = WorldSpec(WORLD.grid, WORLD.waypoints, [rule], rare_list=[], seed=3)
        for wi, wp in enumerate(world.waypoints):
            rows, cols = np.nonzero(np.isin(wp.zone_map, [ZONE_KINDS.index(z) for z in zones]))
            cells = [divmod(i // N_CATEGORIES, world.grid.cells_x) for i in world._placements[wi][0]]
            assert cells == list(zip(rows.tolist(), cols.tolist()))
        grid, _ = sample_scene(world, 0, Rng(3))
        assert all(world.waypoints[0].zone_at(r, c) in zones for r, c, _ in grid.occupied_cells())

    def test_rules_sharing_a_zone_skip_taken_cells_as_pinned(self):
        """Rules of one category on disjoint zones (as in the default world)
        never meet a taken cell; two car rules on one road do. The pin was
        computed when the filter read the grid array itself."""
        world = toy_world()
        world = WorldSpec(
            grid=world.grid,
            waypoints=[Waypoint(wp.gps, 1e-5, wp.zone_map) for wp in world.waypoints],
            rules=[
                PlacementRule("car", ("road",), 2, 4, (1.0, 1.0)),
                PlacementRule("car", ("road",), 3, 6, (1.0, 1.0)),
            ],
            rare_list=[],
            seed=1,
        )
        h = hashlib.sha256()
        saturated = 0
        for i, (grid, gps) in enumerate(sample_dataset(world, 30, seed=17)):
            h.update(grid.data.tobytes())
            h.update(np.array([gps.latitude, gps.longitude]).tobytes())
            saturated += i % 2 == 1 and grid.popcount() == 8
        assert saturated > 0  # some scenes fill all 8 road cells of waypoint 1
        assert h.hexdigest() == "ad66e2329727a36845fb6901718f1cd544185a407d99bffc8793579ab1b00928"


SAMPLER_WORLDS = {"default": WORLD, "shared": shared_zone_world()}


class TestBatchSampler:
    """Scenes are sampled in batches; each must keep the bits, and the
    stream the bits and state, of one scalar-draw scene at a time."""

    def test_the_worlds_cover_rules_with_and_without_shared_cells(self):
        assert not any(flag for row in WORLD._shared for flag in row)
        shared = SAMPLER_WORLDS["shared"]._shared
        assert all(row[len(WORLD.rules):] == [True] * 3 for row in shared)
        assert [row[:len(WORLD.rules)] for row in shared] == [
            [ri == 0 for ri in range(len(WORLD.rules))] for _ in shared
        ]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("name", SAMPLER_WORLDS)
    def test_a_dataset_equals_the_per_scene_reference(self, name, n):
        world = SAMPLER_WORLDS[name]
        ref = Rng(91)
        expected = [reference_sample_scene(world, i % len(world.waypoints), ref) for i in range(n)]
        got = sample_dataset(world, n, seed=91)
        assert [g for g, _ in got] == [g for g, _ in expected]
        assert [gps for _, gps in got] == [gps for _, gps in expected]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("name", SAMPLER_WORLDS)
    def test_a_batch_leaves_the_stream_as_the_reference_does(self, name, n):
        """One batch call from part-way through the stream: the same scenes,
        then the same state and next draws as scene-by-scene scalar
        sampling."""
        world = SAMPLER_WORLDS[name]
        rng, ref = Rng(2**64 - 5), Rng(2**64 - 5)
        for r in (rng, ref):
            r.uniform()
        waypoints = [(3 + 5 * i) % len(world.waypoints) for i in range(n)]
        got = world_module._sample_batch(world, waypoints, rng)
        assert got == [reference_sample_scene(world, wi, ref) for wi in waypoints]
        assert rng._state == ref._state
        assert rng.uniform() == ref.uniform()
        assert rng.gaussian(3).tobytes() == ref.gaussian(3).tobytes()

    def test_a_dataset_draws_once_per_batch_and_shuffles_in_lockstep(self, monkeypatch):
        """Per batch of scenes, one array draw reads the stream and no scene
        runs the scalar Fisher-Yates loop of the default world's rules."""
        calls = {"draws": 0, "scalar": 0, "sample": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        expected = sample_dataset(WORLD, 200, seed=5)
        monkeypatch.setattr(Rng, "_raw", counting("draws", Rng._raw))
        monkeypatch.setattr(nn, "_fisher_yates", counting("scalar", nn._fisher_yates))
        monkeypatch.setattr(world_module, "_fisher_yates", counting("scalar", nn._fisher_yates))
        monkeypatch.setattr(
            Rng, "sample_without_replacement", counting("sample", Rng.sample_without_replacement)
        )
        assert sample_dataset(WORLD, 200, seed=5) == expected
        assert calls == {"draws": math.ceil(200 / world_module._SCENE_BATCH), "scalar": 0, "sample": 0}


class TestSplitSizes:
    def test_default_fractions(self):
        assert split_sizes(15000) == (9000, 1500, 4500)
        assert split_sizes(10) == (6, 1, 3)

    def test_parts_always_partition_n(self):
        for n in range(10, 200):
            tr, va, te = split_sizes(n)
            assert tr + va + te == n
            assert tr >= 1 and va >= 0 and te >= 0

    def test_exact_fractions_do_not_round_down(self):
        """0.1*30 must count as 3 even if the product lands just below 3.0."""
        assert split_sizes(30) == (18, 3, 9)
        assert split_sizes(110) == (66, 11, 33)

    def test_degenerate_split_is_rejected(self, tmp_path):
        """Below 10 scenes the 60/10/30 split leaves val empty; the dataset
        is refused before any file is written."""
        assert split_sizes(9)[1] == 0
        with pytest.raises(ValueError, match="at least 10 samples"):
            build_dataset(WORLD, 9, str(tmp_path / "d"), seed=4)
        assert not (tmp_path / "d").exists()


class TestBuildDataset:
    def test_writes_split_files_and_manifest(self, tmp_path):
        manifest = build_dataset(WORLD, 20, str(tmp_path), seed=4)
        assert manifest["splits"] == {"train": 12, "val": 2, "test": 6}
        for name, lines in (("train", 12), ("val", 2), ("test", 6)):
            path = tmp_path / f"{name}.jsonl"
            assert path.exists()
            assert len(path.read_text().splitlines()) == lines
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["n_samples"] == 20 and saved["seed"] == 4

    def test_same_seed_writes_identical_bytes(self, tmp_path):
        build_dataset(WORLD, 20, str(tmp_path / "a"), seed=5)
        build_dataset(WORLD, 20, str(tmp_path / "b"), seed=5)
        build_dataset(WORLD, 20, str(tmp_path / "c"), seed=6)
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        assert (tmp_path / "a" / "train.jsonl").read_bytes() != (
            tmp_path / "c" / "train.jsonl"
        ).read_bytes()

    def test_files_round_trip_through_the_scene_reader(self, tmp_path):
        build_dataset(WORLD, 20, str(tmp_path), seed=7)
        scenes = sample_dataset(WORLD, 20, seed=7)
        loaded = load_scenes(str(tmp_path / "train.jsonl"), WORLD.grid)
        assert len(loaded) == 12
        for (g0, gps0), (g1, gps1) in zip(scenes[:12], loaded):
            assert g0 == g1
            assert gps0 == gps1

    def test_lines_are_json_dumps_of_the_record(self, tmp_path):
        build_dataset(WORLD, 20, str(tmp_path), seed=8)
        lines = [json.dumps(record_dict(g, gps)) + "\n" for g, gps in sample_dataset(WORLD, 20, 8)]
        written = "".join((tmp_path / f"{name}.jsonl").read_text() for name in ("train", "val", "test"))
        assert written == "".join(lines)

    def test_files_match_the_pinned_digests(self, tmp_path):
        """The RNG stream and the file format, pinned across versions: same-run
        reproducibility cannot catch a change that alters both runs alike."""
        build_dataset(WORLD, 60, str(tmp_path), seed=5)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("manifest.json", "train.jsonl", "val.jsonl", "test.jsonl")
        }
        assert digests == {
            "manifest.json": "895bf2cc6d577d5736a4d4e6d399d424b710b06893a575120d29a8a2f2208119",
            "train.jsonl": "89b8142ef009ef9a27cf97a5f475fdb5d2b3633d1745e90b5723721a190ea5af",
            "val.jsonl": "b3a8012d8d009bfb515f236502380e2076778886931c825dae4381a3838ecea2",
            "test.jsonl": "fa16329a8705d25268a9466b36a0b7aec024a353380ffe9a8dfdfed5a6edfb6b",
        }

    def test_task_files_match_the_pinned_digests(self, tmp_path):
        """Task 1-3 files of digest (a)'s test split: the zone cells, the
        candidate order of each injector and its draw, pinned across versions."""
        build_dataset(WORLD, 60, str(tmp_path), seed=5)
        test = load_scenes(str(tmp_path / "test.jsonl"), WORLD.grid)
        digests = {}
        for task in (1, 2, 3):
            path = tmp_path / f"task{task}.jsonl"
            write_benchmark(build_benchmark(WORLD, test, task, Rng(50 + task)), str(path))
            digests[task] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == {
            1: "3607456460aba6b84d45d2769b9da0750a354ca5dcd616f446ab34dc824d1ff2",
            2: "e386e439dd23fd331f8f398b73921421eda676946bf5c6f467301d3c7d18e8f8",
            3: "52c549e8b25888771077f716743c2dfc12e413604e3356eae1c9219aa96bb53b",
        }

    @pytest.fixture(scope="class")
    def digest_b_checkpoint(self, tmp_path_factory):
        """Training draws its epoch permutations and noise from the same
        stream, so a 3-epoch checkpoint pins that stream through training."""
        data = tmp_path_factory.mktemp("digest_b")
        build_dataset(WORLD, 60, str(data), seed=5)
        train_set, val_set = (
            Dataset.from_scenes(load_scenes(str(data / f"{split}.jsonl"), WORLD.grid))
            for split in ("train", "val")
        )
        checkpoint, _ = adnet.train(
            ModelConfig("uav_adnet"), train_set, val_set, TrainConfig(max_epochs=3, seed=5)
        )
        return checkpoint

    def test_checkpoint_matches_the_pinned_digest(self, digest_b_checkpoint, tmp_path):
        """The checkpoint file's bytes: the training bits and the file format."""
        path = tmp_path / "checkpoint.json"
        save_checkpoint(digest_b_checkpoint, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3843bd6b349f8479996e7cc2d5944ddf415b87073ddab53a09174cd84415418b"
        )

    def test_parameter_bytes_match_the_pinned_digest(self, digest_b_checkpoint, tmp_path):
        """The same checkpoint's parameters, hashed apart from the file format
        (name, shape and little-endian float64 bytes, in sorted name order),
        both as trained and as loaded back from the file."""

        def parameter_digest(values: dict) -> str:
            h = hashlib.sha256()
            for name in sorted(values):
                arr = values[name]
                h.update(json.dumps([name, list(arr.shape)]).encode("ascii"))
                h.update(arr.astype("<f8").tobytes())
            return h.hexdigest()

        path = tmp_path / "checkpoint.json"
        save_checkpoint(digest_b_checkpoint, str(path))
        loaded = adnet.load_checkpoint(str(path))
        pinned = "8d7654deafba757a73805b3dc020a9f9eee3e96db3e477f83586075c5382b458"
        assert parameter_digest(digest_b_checkpoint.values) == pinned
        assert parameter_digest(loaded.values) == pinned

    def test_every_variant_trains_to_the_pinned_parameter_bytes(self, tmp_path):
        """Digest (b)'s 3-epoch training for all four variants, hashed as in
        the test above: each wiring's gradients and updates, pinned across
        versions. The uav_adnet value is the one pinned there."""
        build_dataset(WORLD, 60, str(tmp_path), seed=5)
        train_set, val_set = (
            Dataset.from_scenes(load_scenes(str(tmp_path / f"{split}.jsonl"), WORLD.grid))
            for split in ("train", "val")
        )
        digests = {}
        for variant in adnet.VARIANTS:
            checkpoint, _ = adnet.train(
                ModelConfig(variant), train_set, val_set, TrainConfig(max_epochs=3, seed=5)
            )
            h = hashlib.sha256()
            for name in sorted(checkpoint.values):
                arr = checkpoint.values[name]
                h.update(json.dumps([name, list(arr.shape)]).encode("ascii"))
                h.update(arr.astype("<f8").tobytes())
            digests[variant] = h.hexdigest()
        assert digests == {
            "uav_adnet": "8d7654deafba757a73805b3dc020a9f9eee3e96db3e477f83586075c5382b458",
            "uav_adnet_wo_gps": "b0b45831bf0f6f5442ae3cf738272e7d13bc491c3b77889c23c7ed3e37fedd53",
            "cvae": "1ec7338230a9cde41925c4891760bebfa034782f46d28919668e172d99bd6da7",
            "vae": "9ce3eab6f7a1ab4b5d2817e594a5665c3bafaf627781198158907063c8458d6b",
        }

    def test_evaluation_matches_the_pinned_digest(self, tmp_path):
        """run_benchmark's result document on digest (b)'s data and task
        files of its test split, scored by 3-epoch checkpoints of all four
        variants: the inference bits, the detection rule and the metrics,
        pinned across versions."""
        build_dataset(WORLD, 60, str(tmp_path), seed=5)
        train_set, val_set = (
            Dataset.from_scenes(load_scenes(str(tmp_path / f"{split}.jsonl"), WORLD.grid))
            for split in ("train", "val")
        )
        test = load_scenes(str(tmp_path / "test.jsonl"), WORLD.grid)
        for task in (1, 2, 3):
            records = build_benchmark(WORLD, test, task, Rng(50 + task))
            write_benchmark(records, str(tmp_path / f"task{task}.jsonl"))
        checkpoints = {
            variant: adnet.train(
                ModelConfig(variant), train_set, val_set, TrainConfig(max_epochs=3, seed=5)
            )[0]
            for variant in adnet.VARIANTS
        }
        result = run_benchmark(WORLD, str(tmp_path), checkpoints, str(tmp_path))
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()
        assert digest == "c4ddda018c862ca52bbafe46b247670125044551c64c781c8b1de48d3dfe0d48"

    def test_tiny_datasets_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 10"):
            build_dataset(WORLD, 9, str(tmp_path), seed=0)

    def test_scene_reader_reports_line_numbers(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        good = json.dumps({"gps": [41.1, 29.0], "cells": []})
        bad = json.dumps({"gps": [41.1, 29.0], "cells": [["car", 99, 0]]})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scenes(str(path), WORLD.grid)


class TestAudit:
    def test_empty_scene_is_clean(self):
        assert audit_scene(WORLD.waypoints[0], GridTensor(WORLD.grid)) == []

    def audit_one(self, wi: int, kind: str, category: str):
        wp = WORLD.waypoints[wi]
        r, c = wp.cells_of(kind)[0]
        grid = GridTensor(WORLD.grid).with_cell(r, c, CATEGORY_IDS[category])
        return audit_scene(wp, grid), (category, r, c)

    def test_anything_behind_the_building_is_private(self):
        for category in ("car", "pedestrian"):
            violations, (cat, r, c) = self.audit_one(0, "forbidden_backside", category)
            assert violations == [("private_backside", cat, r, c)]

    def test_vehicles_left_of_the_building_are_private(self):
        violations, (cat, r, c) = self.audit_one(2, "forbidden_leftside", "car")
        assert violations == [("private_leftside", cat, r, c)]

    def test_pedestrians_left_of_the_building_are_tolerated(self):
        violations, _ = self.audit_one(2, "forbidden_leftside", "pedestrian")
        assert violations == []

    def test_pedestrian_on_the_road_is_public(self):
        violations, (cat, r, c) = self.audit_one(0, "road", "pedestrian")
        assert violations == [("public_pedestrian_on_road", cat, r, c)]

    def test_pedestrian_on_the_crossing_is_legal(self):
        violations, _ = self.audit_one(0, "zebra_crossing", "pedestrian")
        assert violations == []

    def test_bicycle_off_the_bike_road_is_public(self):
        for kind in ("road", "pedestrian_road"):
            violations, (cat, r, c) = self.audit_one(0, kind, "bicycle")
            assert violations == [("public_bicycle_off_bike_road", cat, r, c)]

    def test_heavy_vehicles_on_the_bike_road_are_public(self):
        for category in HEAVY_VEHICLE_CATEGORIES:
            violations, (cat, r, c) = self.audit_one(0, "bike_road", category)
            assert violations == [("public_heavy_on_bike_road", cat, r, c)]

    def test_motorbike_on_the_bike_road_is_legal(self):
        violations, _ = self.audit_one(0, "bike_road", "motorbike")
        assert violations == []

    def test_legal_placements_are_clean(self):
        violations, _ = self.audit_one(0, "road", "car")
        assert violations == []


class TestInjection:
    def fresh(self, wi: int = 0, seed: int = 40):
        rng = Rng(seed)
        grid, gps = sample_scene(WORLD, wi, rng)
        return grid, gps, rng

    def test_injection_adds_exactly_one_cell(self):
        for task in (1, 2, 3):
            grid, _, rng = self.fresh()
            modified, case = inject(task, WORLD, grid, 0, rng, scene_index=7)
            cat = CATEGORY_IDS[case.category]
            changed = np.argwhere(modified.data != grid.data).tolist()
            assert changed == [[case.row, case.col, cat]]
            assert modified.data[case.row, case.col, cat] == 1
            assert case.scene_index == 7 and case.waypoint_index == 0
            assert case.injected == (case.category, case.row, case.col)

    def test_injection_leaves_the_original_untouched(self):
        grid, _, rng = self.fresh()
        before = grid.data.copy()
        inject(1, WORLD, grid, 0, rng)
        assert np.array_equal(grid.data, before)

    def test_private_and_public_injections_fail_the_audit(self):
        for task, rules, waypoints in (
            (1, {"private_backside", "private_leftside"}, (0, 2)),
            (2, {
                "public_pedestrian_on_road",
                "public_bicycle_off_bike_road",
                "public_heavy_on_bike_road",
            }, range(len(WORLD.waypoints))),
        ):
            for wi in waypoints:
                grid, _, rng = self.fresh(wi, seed=41 + wi)
                modified, case = inject(task, WORLD, grid, wi, rng)
                violations = audit_scene(WORLD.waypoints[wi], modified)
                assert len(violations) == 1
                rule, cat, r, c = violations[0]
                assert rule in rules
                assert (cat, r, c) == case.injected

    def test_rare_injections_pass_the_audit_but_match_the_rare_list(self):
        """Task 3 placements are legal, just out of distribution."""
        for wi in range(len(WORLD.waypoints)):
            grid, _, rng = self.fresh(wi, seed=50 + wi)
            modified, case = inject(3, WORLD, grid, wi, rng)
            assert audit_scene(WORLD.waypoints[wi], modified) == []
            zone = WORLD.waypoints[wi].zone_at(case.row, case.col)
            assert (case.category, zone) in WORLD.rare_list

    def test_injection_targets_an_empty_cell(self):
        grid, _, rng = self.fresh()
        modified, case = inject(2, WORLD, grid, 0, rng)
        cat = CATEGORY_IDS[case.category]
        assert grid.data[case.row, case.col, cat] == 0
        assert modified.data[case.row, case.col, cat] == 1

    def test_injection_is_seed_deterministic(self):
        grid, _, _ = self.fresh()
        _, a = inject(1, WORLD, grid, 0, Rng(99))
        _, b = inject(1, WORLD, grid, 0, Rng(99))
        assert a == b

    def test_infeasible_tasks_inject_nothing_and_draw_nothing(self):
        world = toy_world()
        grid, _ = sample_scene(world, 0, Rng(1))
        for task in (1, 3):
            rng = Rng(2)
            assert inject(task, world, grid, 0, rng) is None
            assert rng._state == Rng(2)._state


class TestBenchmarks:
    def test_build_benchmark_covers_eligible_scenes(self):
        scenes = sample_dataset(WORLD, 18, seed=60)
        records = build_benchmark(WORLD, scenes, task=2, rng=Rng(61))
        assert len(records) == 18
        for i, (grid, gps, case) in enumerate(records):
            assert case.scene_index == i
            assert case.waypoint_index == nearest_waypoint(WORLD, gps)
            assert grid.data[case.row, case.col, CATEGORY_IDS[case.category]] == 1

    def test_build_benchmark_equals_one_scalar_draw_injection_per_scene(self):
        """Records and the stream left behind equal those of injecting into
        each scene on the next scalar uniform of the same ``Rng``: a skipped
        scene draws nothing (task 1 skips 20 of these 30 scenes)."""
        scenes = sample_dataset(WORLD, 30, seed=66)
        for task in (1, 2, 3):
            batch, one = Rng(67), Rng(67)
            records = build_benchmark(WORLD, scenes, task, batch)
            expected = []
            for i, (grid, gps) in enumerate(scenes):
                injected = inject(task, WORLD, grid, nearest_waypoint(WORLD, gps), one, i)
                if injected is not None:
                    expected.append((injected[0], gps, injected[1]))
            assert [(g.data.tobytes(), gps, case) for g, gps, case in records] == [
                (g.data.tobytes(), gps, case) for g, gps, case in expected
            ], task
            assert len(records) == {1: 10, 2: 30, 3: 30}[task]
            assert batch._state == one._state and batch.uniform() == one.uniform(), task

    def test_ineligible_scenes_are_skipped(self):
        world = toy_world()
        scenes = sample_dataset(world, 6, seed=62)
        assert build_benchmark(world, scenes, task=1, rng=Rng(63)) == []

    def test_unknown_task_is_rejected(self):
        with pytest.raises(ValueError, match="task"):
            build_benchmark(WORLD, [], task=4, rng=Rng(0))

    def test_write_read_round_trip(self, tmp_path):
        scenes = sample_dataset(WORLD, 12, seed=64)
        records = build_benchmark(WORLD, scenes, task=3, rng=Rng(65))
        path = tmp_path / "task3.jsonl"
        write_benchmark(records, str(path))
        loaded = read_benchmark(str(path), WORLD.grid)
        assert len(loaded) == len(records)
        for (g0, gps0, c0), (g1, gps1, c1) in zip(records, loaded):
            assert g0 == g1 and gps0 == gps1
            assert (c1.task, c1.category, c1.row, c1.col) == (
                c0.task, c0.category, c0.row, c0.col,
            )

    @pytest.mark.parametrize("task", [1, 2, 3])
    def test_lines_are_json_dumps_of_the_record_with_task_and_injected(self, tmp_path, task):
        records = build_benchmark(WORLD, sample_dataset(WORLD, 30, seed=68), task, Rng(68 + task))
        path = tmp_path / f"task{task}.jsonl"
        write_benchmark(records, str(path))
        lines = []
        for grid, gps, case in records:
            record = record_dict(grid, gps)
            record["task"] = case.task
            record["injected"] = [case.category, case.row, case.col]
            lines.append(json.dumps(record) + "\n")
        assert len(lines) >= 5
        assert path.read_text() == "".join(lines)

    def test_reader_rejects_unmarked_injections_with_line_numbers(self, tmp_path):
        scenes = sample_dataset(WORLD, 2, seed=66)
        records = build_benchmark(WORLD, scenes, task=2, rng=Rng(67))[:2]
        path = tmp_path / "bad.jsonl"
        write_benchmark(records, str(path))
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["injected"] = ["car", 15, 15]  # building row: never occupied
        path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_benchmark(str(path), WORLD.grid)

    @pytest.mark.parametrize("row", [1.9, 2.0, True, "2"])
    def test_reader_rejects_non_integer_injected_cells(self, tmp_path, row):
        scenes = sample_dataset(WORLD, 1, seed=66)
        records = build_benchmark(WORLD, scenes, task=2, rng=Rng(67))[:1]
        path = tmp_path / "bad.jsonl"
        write_benchmark(records, str(path))
        doc = json.loads(path.read_text())
        doc["injected"][1] = row
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match="line 1: .*must be integers"):
            read_benchmark(str(path), WORLD.grid)


    @pytest.mark.parametrize("row, col", [(-1, 3), (3, -1), (16, 3)])
    def test_reader_rejects_injected_cells_outside_the_grid(self, tmp_path, row, col):
        """A negative index would wrap to the last row or column."""
        doc = {"gps": [41.1, 29.0], "cells": [["car", 15, 3], ["car", 3, 15]],
               "task": "task2_public", "injected": ["car", row, col]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match="line 1: .*outside grid"):
            read_benchmark(str(path), WORLD.grid)


class TestWorldPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        loaded = load_world(str(path))
        assert loaded.grid == WORLD.grid
        assert loaded.seed == WORLD.seed
        assert loaded.rare_list == WORLD.rare_list
        assert loaded.rules == WORLD.rules
        assert len(loaded.waypoints) == len(WORLD.waypoints)
        for a, b in zip(loaded.waypoints, WORLD.waypoints):
            assert a.gps == b.gps
            assert a.gps_jitter == b.gps_jitter
            assert np.array_equal(a.zone_map, b.zone_map)

    def test_default_world_file_matches_the_pinned_digest(self, tmp_path):
        """The default world's zone maps, rules and seed as save_world writes
        them, pinned across versions."""
        path = tmp_path / "world.json"
        save_world(default_world(), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e24ac035c6076306079a5da8d7280e402fc0123a4b670c15aca98a899fb4a003"
        )

    def test_round_trip_samples_identically(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        loaded = load_world(str(path))
        a = sample_dataset(WORLD, 6, seed=70)
        b = sample_dataset(loaded, 6, seed=70)
        assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(a, b))

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(WorldConfigError, match="malformed"):
            load_world(str(path))

    @pytest.mark.parametrize(
        "first_zone, count",
        [
            ({"kind": "grass", "rect": [0, 0, 1.9, 1]}, [6, 10]),
            ({"kind": "grass", "rect": [0, 0, 1, True]}, [6, 10]),
            ({"kind": "grass", "cells": [[2.0, 3]]}, [6, 10]),
            (None, [6.7, 10]),
            (None, [6, "10"]),
        ],
        ids=["fractional-rect", "bool-rect", "float-cell", "fractional-count", "string-count"],
    )
    def test_non_integer_bounds_cells_and_counts_are_rejected(self, tmp_path, first_zone, count):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        doc = json.loads(path.read_text())
        if first_zone is not None:  # painted first, so later zones still cover the grid
            doc["waypoints"][0]["zones"].insert(0, first_zone)
        doc["rules"][0]["count"] = count
        path.write_text(json.dumps(doc))
        with pytest.raises(WorldConfigError, match="must be an integer"):
            load_world(str(path))

    @pytest.mark.parametrize(
        "field, value", [(("seed",), 3.7), (("grid", "cells_x"), 16.9)], ids=["seed", "cells_x"]
    )
    def test_non_integer_seed_and_grid_are_rejected(self, tmp_path, field, value):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        doc = json.loads(path.read_text())
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(WorldConfigError, match=f"{field[-1]} {value} must be an integer"):
            load_world(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (("rules", 0, "weights", 1), math.inf, "non-finite weight"),
            (("rules", 0, "weights", 1), math.nan, "non-finite weight"),
            (("waypoints", 1, "gps_jitter"), math.nan, "gps jitter nan"),
            (("rules", 0, "weights", 1), -1.0, "negative"),
            (("waypoints",), [], "at least 2 waypoints"),
            (("waypoints", 0, "zones", 0), 5, "zone entry 5 is not a JSON object"),
            (("rules", 0), "x", "rule 'x' is not a JSON object"),
        ],
        ids=[
            "infinite-weight", "nan-weight", "nan-jitter", "negative-weight", "no-waypoints",
            "zone-not-object", "rule-not-object",
        ],
    )
    def test_invalid_world_names_the_file(self, tmp_path, field, value, message):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        doc = json.loads(path.read_text())
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(WorldConfigError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_world(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            *((("waypoints", 0, "gps"), gps, "exactly two numbers") for gps in BAD_GPS.values()),
            (("waypoints", 1, "gps_jitter"), "0.0001", "gps jitter '0.0001' must be a number"),
            (("waypoints", 1, "gps_jitter"), False, "gps jitter False must be a number"),
            (("rules", 0, "weights", 1), True, "weight True must be a number"),
            (("rules", 0, "weights", 1), "2", "weight '2' must be a number"),
            (("rules", 0, "weights"), "12", "weight '1' must be a number"),
            (("rules", 0, "weight"), "2", "weight '2' must be a number"),
            (("rules", 0, "weight"), True, "weight True must be a number"),
        ],
        ids=[
            *(f"gps-{name}" for name in BAD_GPS), "string-jitter", "bool-jitter",
            "bool-weights", "string-weights", "string-weights-list", "string-weight",
            "bool-weight",
        ],
    )
    def test_numbers_that_are_not_json_numbers_are_rejected(self, tmp_path, field, value, message):
        """gps, gps_jitter, weight and weights take JSON numbers only: no
        string, no bool, and gps exactly two of them."""
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        doc = json.loads(path.read_text())
        if field[-1] == "weight":
            del doc["rules"][0]["weights"]
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(WorldConfigError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_world(str(path))

    def test_a_single_weight_is_read_for_every_waypoint(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        doc = json.loads(path.read_text())
        del doc["rules"][0]["weights"]
        doc["rules"][0]["weight"] = 2
        path.write_text(json.dumps(doc))
        assert load_world(str(path)).rules[0].weights == (2.0,) * len(WORLD.waypoints)

    def test_non_utf8_world_names_the_file(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(WORLD, str(path))
        path.write_bytes(path.read_bytes().replace(b'"road"', b'"r\xf6ad"', 1))
        with pytest.raises(WorldConfigError, match=f"^{re.escape(str(path))}: malformed"):
            load_world(str(path))

    def test_missing_fields_are_a_config_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"grid": GridSpec().to_dict()}))
        with pytest.raises(WorldConfigError, match="invalid world document"):
            load_world(str(path))
