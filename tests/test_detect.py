"""Tests for reconstruction-comparison detection and report serialization."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from uavad.world import (
    build_benchmark, build_dataset, default_world, load_scenes, sample_dataset, write_benchmark,
)

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

    @pytest.mark.parametrize("threshold", [math.nan, 1.5])
    def test_bad_threshold_is_rejected_on_an_empty_file(self, tmp_path, threshold):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="threshold"):
            detect_batch(random_checkpoint("vae"), str(path), threshold)

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


    def test_cells_are_anomaly_cells_equal_to_direct_construction(self):
        """_cells builds its tuples without AnomalyCell's own __new__: they
        must still be AnomalyCells, equal to the directly built reference."""
        ck = random_checkpoint("uav_adnet", seed=7)
        grid, gps = sample_dataset(default_world(), 1, seed=8)[0]
        probs = ck.reconstruct(grid.data.reshape(1, -1), [[gps.latitude, gps.longitude]])
        report = detect(ck, grid, gps)
        assert report.anomalies and report.hallucinated
        for cell in report.anomalies + report.hallucinated:
            assert type(cell) is AnomalyCell
            assert list(cell._asdict()) == ["category", "row", "col", "reconstruction_prob"]
        assert (report.anomalies, report.hallucinated) == reference_cells(grid, probs[0], 0.5)


def dict_encoded_line(report: AnomalyReport) -> str:
    """A report line as json.dumps writes it from a dict per report and per cell."""
    return json.dumps({
        "model_variant": report.model_variant,
        "threshold": report.threshold,
        "gps": list(report.gps) if report.gps is not None else None,
        "anomalies": [c._asdict() for c in report.anomalies],
        "hallucinated": [c._asdict() for c in report.hallucinated],
    }) + "\n"


EDGE_PROBS = (5e-324, 1e-300, 1 - 2**-53, 0.5, 1.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.lists(st.builds(
    AnomalyCell,
    st.sampled_from(CATEGORIES),
    st.integers(0, GridSpec().cells_y - 1),
    st.integers(0, GridSpec().cells_x - 1),
    st.one_of(FINITE, FINITE.map(np.float64), st.sampled_from(EDGE_PROBS)),
), max_size=12).map(tuple)
REPORTS = st.builds(
    AnomalyReport,
    anomalies=CELLS,
    hallucinated=CELLS,
    threshold=st.sampled_from([0.0, 0.5, 1.0, 1]),
    model_variant=st.sampled_from(VARIANTS),
    gps=st.one_of(st.none(), st.tuples(FINITE, FINITE)),
)
# Every run also writes the edge probabilities as Python floats and as np.float64.
EDGE_REPORT = AnomalyReport(
    anomalies=tuple(AnomalyCell("car", 0, 1, p) for p in EDGE_PROBS),
    hallucinated=tuple(AnomalyCell("van", 15, 15, np.float64(p)) for p in EDGE_PROBS),
    threshold=1,
    model_variant="uav_adnet",
    gps=(41.1, 29.0),
)


class TestReportSerialization:
    @settings(max_examples=300, deadline=None)
    @given(reports=st.lists(REPORTS, max_size=4))
    def test_lines_match_the_dict_encoder_byte_for_byte(self, tmp_path_factory, reports):
        reports = [*reports, EDGE_REPORT]
        path = tmp_path_factory.mktemp("reports") / "reports.jsonl"
        write_reports(reports, str(path))
        assert path.read_bytes() == "".join(map(dict_encoded_line, reports)).encode()

    def test_category_names_need_no_json_escapes(self):
        """The cell template writes a name between quotes as it is."""
        for name in CATEGORIES:
            assert json.dumps(name) == f'"{name}"'

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["anomalies", "hallucinated", "threshold", "gps"])
    def test_non_finite_number_is_rejected_naming_the_report(self, tmp_path, field, value):
        """JSON has no token for NaN or infinity: the writer raises before
        replacing the file, instead of writing NaN or Infinity."""
        cells = (AnomalyCell("car", 1, 2, 0.25), AnomalyCell("bus", 3, 4, value))
        bad = {
            "anomalies": AnomalyReport(cells, (), 0.5, "vae", None),
            "hallucinated": AnomalyReport((), cells, 0.5, "vae", None),
            "threshold": AnomalyReport((), (), value, "vae", None),
            "gps": AnomalyReport((), (), 0.5, "uav_adnet", (41.1, value)),
        }[field]
        path = tmp_path / "reports.jsonl"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match=r"^report 1: "):
            write_reports([EDGE_REPORT, bad, EDGE_REPORT], str(path))
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["reports.jsonl"]

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

    def test_report_file_matches_the_pinned_digest(self, tmp_path):
        """The report bytes of criterion 8's untrained checkpoint on digest
        (a)'s dataset, injected with task 2: cell order, probabilities and
        the report format, pinned across versions."""
        w = default_world()
        build_dataset(w, 60, str(tmp_path), seed=5)
        test = load_scenes(str(tmp_path / "test.jsonl"), w.grid)
        write_benchmark(build_benchmark(w, test, 2, Rng(2)), str(tmp_path / "task2.jsonl"))
        reports = detect_batch(random_checkpoint("uav_adnet"), str(tmp_path / "task2.jsonl"), 0.5)
        write_reports(reports, str(tmp_path / "reports.jsonl"))
        assert hashlib.sha256((tmp_path / "reports.jsonl").read_bytes()).hexdigest() == (
            "26780c270f3648f8f665711c12d25713604f9a32ee8154315aeaf227e084a1a1"
        )
