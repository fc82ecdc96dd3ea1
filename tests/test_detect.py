"""Tests for reconstruction-comparison detection and report serialization."""

import json
import math

import numpy as np
import pytest

from uavad.adnet import (
    VARIANTS,
    Checkpoint,
    GpsNormalization,
    ModelConfig,
    expected_param_shapes,
    init_params,
)
from uavad.detect import AnomalyCell, AnomalyReport, detect, detect_batch, write_reports
from uavad.evaluate import reconstruction_metrics
from uavad.grid import CATEGORIES, CATEGORY_IDS, N_CATEGORIES, GpsLabel, GridSpec, GridTensor
from uavad.nn import Rng
from uavad.world import build_benchmark, default_world, sample_dataset, write_benchmark

GPS = GpsLabel(41.1, 29.0)


def constant_checkpoint(biases: dict[str, float], variant: str = "vae") -> Checkpoint:
    """All-zero weights with chosen output biases: the reconstruction of any
    scene is a constant sigmoid(bias) per category, giving exact oracles."""
    config = ModelConfig(variant)
    values = {name: np.zeros(shape) for name, shape in expected_param_shapes(config).items()}
    for category, bias in biases.items():
        values["out.b"][CATEGORY_IDS[category]] = bias
    return Checkpoint(config, GpsNormalization(41.1, 29.0), values)


def random_checkpoint(variant: str, seed: int = 0) -> Checkpoint:
    config = ModelConfig(variant)
    return Checkpoint(
        config, GpsNormalization(41.1, 29.0), init_params(config, seed).copy_values()
    )


class TestDetect:
    def test_suppressed_categories_are_flagged_with_their_probability(self):
        ck = constant_checkpoint({"car": -2.0, "pedestrian": 2.0})
        scene = GridTensor(ck.config.grid).with_cell(3, 4, CATEGORY_IDS["car"]).with_cell(
            5, 6, CATEGORY_IDS["pedestrian"]
        )
        report = detect(ck, scene)
        assert report.flagged() == {("car", 3, 4)}
        cell = report.anomalies[0]
        assert cell.reconstruction_prob == pytest.approx(1.0 / (1.0 + math.exp(2.0)))
        assert report.model_variant == "vae"
        assert report.gps is None

    def test_supported_categories_hallucinate_everywhere_else(self):
        biases = {c: -2.0 for c in CATEGORIES}
        biases["pedestrian"] = 2.0
        ck = constant_checkpoint(biases)
        scene = GridTensor(ck.config.grid).with_cell(5, 6, CATEGORY_IDS["pedestrian"])
        report = detect(ck, scene)
        assert report.anomalies == ()
        assert len(report.hallucinated) == 16 * 16 - 1
        assert all(cell.category == "pedestrian" for cell in report.hallucinated)
        assert ("pedestrian", 5, 6) not in {
            (c.category, c.row, c.col) for c in report.hallucinated
        }

    def test_probability_at_the_threshold_counts_as_reconstructed(self):
        """The comparison is prob >= threshold, so exactly 0.5 is kept."""
        ck = constant_checkpoint({})  # zero bias: every probability is 0.5
        scene = GridTensor(ck.config.grid).with_cell(2, 2, 0)
        assert detect(ck, scene, threshold=0.5).anomalies == ()

    def test_threshold_zero_flags_nothing(self):
        ck = constant_checkpoint({"car": -10.0})
        scene = GridTensor(ck.config.grid).with_cell(0, 0, 0)
        report = detect(ck, scene, threshold=0.0)
        assert report.anomalies == ()

    def test_threshold_one_flags_every_occupied_cell(self):
        ck = constant_checkpoint({c: 10.0 for c in CATEGORIES})
        scene = GridTensor(ck.config.grid).with_cell(0, 0, 0).with_cell(9, 9, 7)
        report = detect(ck, scene, threshold=1.0)
        assert report.flagged() == {("car", 0, 0), ("trailer", 9, 9)}
        assert report.hallucinated == ()

    @pytest.mark.parametrize("threshold", [math.nan, 1.5, -0.25, math.inf])
    def test_threshold_outside_the_unit_interval_is_rejected(self, threshold):
        ck = constant_checkpoint({})
        scene = GridTensor(ck.config.grid).with_cell(0, 0, 0)
        with pytest.raises(ValueError, match="threshold"):
            detect(ck, scene, threshold=threshold)

    def test_anomalies_are_a_subset_of_occupied_cells(self):
        world = default_world()
        ck = random_checkpoint("uav_adnet")
        for grid, gps in sample_dataset(world, 6, seed=2):
            report = detect(ck, grid, gps)
            occupied = {(CATEGORIES[cat], r, c) for r, c, cat in grid.occupied_cells()}
            assert report.flagged() <= occupied
            assert not {
                (c.category, c.row, c.col) for c in report.hallucinated
            } & occupied

    def test_detection_is_deterministic(self):
        world = default_world()
        ck = random_checkpoint("uav_adnet", seed=4)
        grid, gps = sample_dataset(world, 1, seed=5)[0]
        assert detect(ck, grid, gps) == detect(ck, grid, gps)

    def test_reports_are_sorted_by_position(self):
        ck = constant_checkpoint({c: -5.0 for c in CATEGORIES})
        scene = (
            GridTensor(ck.config.grid)
            .with_cell(9, 9, 7)
            .with_cell(0, 5, 2)
            .with_cell(0, 2, 3)
        )
        report = detect(ck, scene)
        keys = [(c.row, c.col, c.category) for c in report.anomalies]
        assert keys == sorted(keys)

    def test_gps_presence_must_match_the_variant(self):
        scene = GridTensor(GridSpec())
        with pytest.raises(ValueError, match="requires a gps"):
            detect(random_checkpoint("uav_adnet"), scene)
        with pytest.raises(ValueError, match="takes no gps"):
            detect(random_checkpoint("vae"), scene, GPS)

    def test_scene_must_match_the_checkpoint_grid(self):
        small = GridTensor(GridSpec(cells_x=4, cells_y=4))
        with pytest.raises(ValueError, match="does not match"):
            detect(random_checkpoint("vae"), small)

    def test_gps_is_echoed_in_the_report(self):
        ck = random_checkpoint("cvae")
        report = detect(ck, GridTensor(ck.config.grid), GPS)
        assert report.gps == (41.1, 29.0)


class TestDetectBatch:
    def write_scenes(self, tmp_path, n: int = 4, seed: int = 8):
        world = default_world()
        scenes = sample_dataset(world, n, seed=seed)
        path = tmp_path / "scenes.jsonl"
        from uavad.grid import scene_to_record

        with open(path, "w", encoding="utf-8") as f:
            for g, gps in scenes:
                f.write(json.dumps(scene_to_record(g, gps)) + "\n")
        return scenes, str(path)

    def test_batch_matches_single_scene_calls(self, tmp_path):
        scenes, path = self.write_scenes(tmp_path)
        ck = random_checkpoint("uav_adnet", seed=1)
        reports = detect_batch(ck, path)
        assert len(reports) == len(scenes)
        for (grid, gps), report in zip(scenes, reports):
            assert report == detect(ck, grid, gps)

    def test_batch_accepts_injected_benchmark_files(self, tmp_path):
        """Benchmark files carry extra fields; the detector ignores them."""
        world = default_world()
        scenes = sample_dataset(world, 6, seed=9)
        records = build_benchmark(world, scenes, task=2, rng=Rng(10))
        path = tmp_path / "task2.jsonl"
        write_benchmark(records, str(path))
        reports = detect_batch(random_checkpoint("vae"), str(path))
        assert len(reports) == len(records)

    def test_non_gps_variants_ignore_the_stored_gps(self, tmp_path):
        _, path = self.write_scenes(tmp_path)
        reports = detect_batch(random_checkpoint("uav_adnet_wo_gps"), path)
        assert all(r.gps is None for r in reports)

    def test_bad_records_carry_line_numbers(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        good = json.dumps({"gps": [41.1, 29.0], "cells": []})
        for cell in (["car", 99, 0], ["car", 1.5, 2]):
            bad = json.dumps({"gps": [41.1, 29.0], "cells": [cell]})
            path.write_text(good + "\n" + bad + "\n")
            with pytest.raises(ValueError, match="line 2"):
                detect_batch(random_checkpoint("vae"), str(path))


def reference_cells(grid: GridTensor, probs: np.ndarray, threshold: float):
    """The detection rule as a plain loop over every cell of one flattened
    reconstruction: (anomalies, hallucinated) sorted by (row, col, category)."""
    anomalies, hallucinated = [], []
    for i, prob in enumerate(probs.tolist()):
        row, rest = divmod(i, grid.spec.cells_x * N_CATEGORIES)
        col, cat = divmod(rest, N_CATEGORIES)
        cell = AnomalyCell(CATEGORIES[cat], row, col, prob)
        if grid.data[row, col, cat] and prob < threshold:
            anomalies.append(cell)
        elif not grid.data[row, col, cat] and prob >= threshold:
            hallucinated.append(cell)

    def order(c: AnomalyCell) -> tuple[int, int, str]:
        return (c.row, c.col, c.category)

    return tuple(sorted(anomalies, key=order)), tuple(sorted(hallucinated, key=order))


class TestReference:
    """detect and reconstruction_metrics against a loop over all cells of
    Checkpoint.reconstruct's output; no pinned floats."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_detect_and_counts_match_a_loop_over_every_cell(self, variant, threshold):
        ck = random_checkpoint(variant, seed=3)
        scenes = sample_dataset(default_world(), 3, seed=11)
        for grid, gps in scenes:
            probs = ck.reconstruct(grid.data.reshape(1, -1), [[gps.latitude, gps.longitude]])
            report = detect(ck, grid, gps if ck.config.use_gps else None, threshold)
            assert (report.anomalies, report.hallucinated) == reference_cells(
                grid, probs[0], threshold
            )

        x = np.array([grid.data.reshape(-1) for grid, _ in scenes])
        probs = ck.reconstruct(x, [[gps.latitude, gps.longitude] for _, gps in scenes])
        fn = fp = 0
        for (grid, _), row in zip(scenes, probs):
            anomalies, hallucinated = reference_cells(grid, row, threshold)
            fn += len(anomalies)
            fp += len(hallucinated)
        occupied = int(x.sum())
        counts, _ = reconstruction_metrics(ck, scenes, threshold)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (
            occupied - fn, fp, fn, x.size - occupied - fp
        )


class TestReportSerialization:
    def test_written_reports_are_json_lines(self, tmp_path):
        report = AnomalyReport(
            anomalies=(AnomalyCell("car", 1, 2, 0.125),),
            hallucinated=(AnomalyCell("bus", 3, 4, 0.875),),
            threshold=0.5,
            model_variant="uav_adnet",
            gps=(41.1, 29.0),
        )
        path = tmp_path / "reports.jsonl"
        write_reports([report, report], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert doc["model_variant"] == "uav_adnet"
        assert doc["threshold"] == 0.5
        assert doc["gps"] == [41.1, 29.0]
        assert doc["anomalies"] == [
            {"category": "car", "row": 1, "col": 2, "reconstruction_prob": 0.125}
        ]
        assert doc["hallucinated"][0]["category"] == "bus"

    def test_missing_gps_serializes_as_null(self, tmp_path):
        report = AnomalyReport((), (), 0.5, "vae", None)
        path = tmp_path / "reports.jsonl"
        write_reports([report], str(path))
        assert json.loads(path.read_text())["gps"] is None
