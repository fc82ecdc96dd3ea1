"""Tests for reconstruction-comparison detection and report serialization."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uavad.adnet import (
    VARIANTS,
    Checkpoint,
    Dataset,
    GpsNormalization,
    ModelConfig,
    TrainConfig,
    expected_param_shapes,
    init_params,
)
from uavad import adnet
from uavad import detect as detect_mod
from uavad.detect import AnomalyCell, AnomalyReport, CellArrays, detect, detect_batch, write_reports
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

    @pytest.mark.parametrize("threshold", [True, False, np.bool_(True)])
    def test_bool_threshold_is_rejected(self, threshold):
        ck = constant_checkpoint({})
        scene = GridTensor(ck.config.grid).with_cell(0, 0, 0)
        with pytest.raises(ValueError, match="threshold"):
            detect(ck, scene, threshold=threshold)

    @pytest.mark.parametrize("threshold", [np.float16(0.5), np.float32(0.5), np.float64(0.5)])
    def test_numpy_threshold_is_stored_as_a_python_float(self, tmp_path, threshold):
        ck = constant_checkpoint({"car": -2.0})
        scene = GridTensor(ck.config.grid).with_cell(3, 4, CATEGORY_IDS["car"])
        report = detect(ck, scene, threshold=threshold)
        assert type(report.threshold) is float
        assert report == detect(ck, scene, threshold=0.5)
        write_reports([report], str(tmp_path / "reports.jsonl"))
        assert json.loads((tmp_path / "reports.jsonl").read_text())["threshold"] == 0.5

    def test_report_arrays_are_read_only(self):
        """A report's cells are read once and cached: its arrays cannot change under them."""
        ck = random_checkpoint("uav_adnet", seed=7)
        grid, gps = sample_dataset(default_world(), 1, seed=8)[0]
        report = detect(ck, grid, gps)
        empty = detect(constant_checkpoint({c: -10.0 for c in CATEGORIES}), GridTensor(GridSpec()))
        for cells in (report.missing, report.added, empty.missing, empty.added):
            assert cells.index.size == cells.prob.size
            for array in cells:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0

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
                f.write(scene_to_record(g, gps) + "\n")
        return scenes, str(path)

    def test_batch_matches_single_scene_calls(self, tmp_path):
        scenes, path = self.write_scenes(tmp_path)
        ck = random_checkpoint("uav_adnet", seed=1)
        reports = detect_batch(ck, path)
        assert len(reports) == len(scenes)
        for (grid, gps), report in zip(scenes, reports):
            assert report == detect(ck, grid, gps)

    def test_every_chunk_matches_single_scene_calls(self, tmp_path, monkeypatch):
        """130 scenes are read in chunks of 64, 64 and 2. Every report, for
        each variant, equals detect on its scene, and its score and cell
        arrays have the same bytes."""
        scenes, path = self.write_scenes(tmp_path, n=130, seed=13)
        for variant in VARIANTS:
            ck = random_checkpoint(variant)
            rows = []
            reconstruct = ck.reconstruct

            def counting(x, *args, **kwargs):
                rows.append(x.shape[0])
                return reconstruct(x, *args, **kwargs)

            monkeypatch.setattr(ck, "reconstruct", counting)
            reports = detect_batch(ck, path)
            assert rows == [64, 64, 2], variant
            assert len(reports) == len(scenes)
            for (grid, gps), report in zip(scenes, reports):
                single = detect(ck, grid, gps if ck.config.use_gps else None)
                assert report == single, variant
                assert np.float64(report.score).tobytes() == np.float64(single.score).tobytes()
                for got, want in ((report.missing, single.missing), (report.added, single.added)):
                    assert got.index.tobytes() == want.index.tobytes(), variant
                    assert got.prob.tobytes() == want.prob.tobytes(), variant

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

    @pytest.mark.parametrize("threshold", [math.nan, 1.5, True])
    def test_bad_threshold_is_rejected_on_an_empty_file(self, tmp_path, threshold):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="threshold"):
            detect_batch(random_checkpoint("vae"), str(path), threshold)

    def test_batch_and_writer_build_no_cells(self, tmp_path, monkeypatch):
        """Reports are written from their arrays: per-cell objects stay off
        the detect_batch + write_reports path."""
        _, path = self.write_scenes(tmp_path)

        def no_cells(*_):
            raise AssertionError("a report built its cells")

        monkeypatch.setattr(detect_mod, "_cells", no_cells)
        reports = detect_batch(random_checkpoint("uav_adnet", seed=1), path)
        write_reports(reports, str(tmp_path / "reports.jsonl"))
        assert len((tmp_path / "reports.jsonl").read_text().splitlines()) == len(reports)

    def test_training_and_detection_results_outlive_later_calls(self, tmp_path):
        """A checkpoint and the reports made from it own their arrays: after
        a second train and detect_batch on other scenes, the first ones
        write the same bytes as before."""
        runs = []
        for n, seed in ((20, 8), (70, 9)):
            scenes, path = self.write_scenes(tmp_path, n=n, seed=seed)
            data = Dataset.from_scenes(scenes)
            ck, _ = adnet.train(
                ModelConfig("uav_adnet", n_h=4, hidden1=8),
                Dataset(data.x[:16], data.gps[:16]), Dataset(data.x[16:], data.gps[16:]),
                TrainConfig(batch_size=8, max_epochs=1, seed=seed),
            )
            reports = detect_batch(ck, path)
            assert len(reports) == n
            runs.append((ck, reports, self.written(tmp_path, ck, reports)))
        for ck, reports, written in runs:
            assert self.written(tmp_path, ck, reports) == written

    @staticmethod
    def written(tmp_path, ck, reports) -> tuple[bytes, bytes]:
        adnet.save_checkpoint(ck, str(tmp_path / "ck.json"))
        write_reports(reports, str(tmp_path / "reports.jsonl"))
        return (tmp_path / "ck.json").read_bytes(), (tmp_path / "reports.jsonl").read_bytes()

    def test_bad_records_carry_line_numbers(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        good = json.dumps({"gps": [41.1, 29.0], "cells": []})
        for cell in (["car", 99, 0], ["car", 1.5, 2]):
            bad = json.dumps({"gps": [41.1, 29.0], "cells": [cell]})
            path.write_text(good + "\n" + bad + "\n")
            with pytest.raises(ValueError, match="line 2"):
                detect_batch(random_checkpoint("vae"), str(path))

    def test_bad_record_in_a_later_chunk_carries_its_line_number(self, tmp_path):
        """Line 70 is read with the second chunk, after the first has been
        reconstructed."""
        path = tmp_path / "scenes.jsonl"
        good = json.dumps({"gps": [41.1, 29.0], "cells": [["car", 1, 2]]})
        bad = json.dumps({"gps": [41.1, 29.0], "cells": [["car", 99, 0]]})
        path.write_text("\n".join([good] * 69 + [bad] + [good] * 5) + "\n")
        with pytest.raises(ValueError, match=r"line 70\b"):
            detect_batch(random_checkpoint("uav_adnet"), str(path))

    def test_checkpoint_with_other_channels_is_rejected_as_detect_rejects_it(self, tmp_path):
        _, path = self.write_scenes(tmp_path)
        config = ModelConfig("vae", n_o=N_CATEGORIES - 1)
        ck = Checkpoint(config, GpsNormalization(41.1, 29.0), init_params(config, 0).copy_values())
        with pytest.raises(ValueError) as single:
            detect(ck, GridTensor(GridSpec()))
        with pytest.raises(ValueError) as batch:
            detect_batch(ck, path)
        assert str(batch.value) == str(single.value)

    def test_checkpoint_with_other_channels_is_rejected_on_an_empty_file(self, tmp_path):
        """The checkpoint's grid is checked before the file is read."""
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        config = ModelConfig("vae", n_o=7)
        ck = Checkpoint(config, GpsNormalization(41.1, 29.0), init_params(config, 0).copy_values())
        with pytest.raises(ValueError) as single:
            detect(ck, GridTensor(GridSpec()))
        with pytest.raises(ValueError) as batch:
            detect_batch(ck, str(path))
        assert str(batch.value) == str(single.value)


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
        counts, _ = reconstruction_metrics(ck, Dataset.from_scenes(scenes), threshold)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (
            occupied - fn, fp, fn, x.size - occupied - fp
        )


    def test_cells_are_anomaly_cells_equal_to_direct_construction(self):
        """The cells a report builds from its arrays are AnomalyCells, equal
        to the directly built reference."""
        ck = random_checkpoint("uav_adnet", seed=7)
        grid, gps = sample_dataset(default_world(), 1, seed=8)[0]
        probs = ck.reconstruct(grid.data.reshape(1, -1), [[gps.latitude, gps.longitude]])
        report = detect(ck, grid, gps)
        assert report.anomalies and report.hallucinated
        for cell in report.anomalies + report.hallucinated:
            assert type(cell) is AnomalyCell
            assert list(cell._asdict()) == ["category", "row", "col", "reconstruction_prob"]
        assert (report.anomalies, report.hallucinated) == reference_cells(grid, probs[0], 0.5)

    def test_a_chunk_matches_a_loop_over_every_cell_of_each_scene(self):
        """Five scenes of a 3x5 grid reconstructed together, the middle one
        with no cell in either list. The first and last cells of each other
        scene hold bicycle and van, which sort first and last by name, and
        car and trailer, at flat indices 0 and size - 1 of the grid."""
        spec = GridSpec(cells_x=5, cells_y=3)
        shape = (5, spec.cells_y, spec.cells_x, N_CATEGORIES)
        rng = np.random.default_rng(19)
        data = (rng.random(shape) < 0.3).astype(np.uint8)
        probs = rng.random(shape)
        corners = [CATEGORY_IDS[c] for c in ("bicycle", "van", "car", "trailer")]
        for i, held in zip((0, 1, 3, 4), ((1, 1), (0, 0), (1, 0), (0, 1))):
            for corner, h in zip((0, -1), held):
                data[i, corner, corner, corners] = h
                probs[i, corner, corner, corners] = 0.125 if h else 0.875
        data[2], probs[2] = 0, 0.25
        scenes = [(GridTensor(spec, d), GPS) for d in data]
        reports = detect_mod._detect_chunk(FixedCheckpoint(probs), scenes, 0.5)

        assert len(reports) == len(scenes)
        for (grid, _), row, report in zip(scenes, probs, reports):
            for got, cells in zip(
                (report.missing, report.added), reference_cells(grid, row.reshape(-1), 0.5)
            ):
                index = [
                    np.ravel_multi_index((c.row, c.col, CATEGORY_IDS[c.category]), shape[1:])
                    for c in cells
                ]
                assert got.index.tobytes() == np.array(index, np.intp).tobytes()
                assert got.prob.tobytes() == np.array(
                    [c.reconstruction_prob for c in cells], np.float64
                ).tobytes()
        assert reports[2].missing is reports[2].added is detect_mod._NO_CELLS
        last = probs[0].size - 1
        for cells in ([r.missing for r in reports], [r.added for r in reports]):
            assert {0, last} <= set(np.concatenate([c.index for c in cells]).tolist())


class FixedCheckpoint:
    """A stand-in checkpoint whose reconstruction is ``probs``: one scene's
    (rows, cols, categories) or a chunk's (n, rows, cols, categories)."""

    def __init__(self, probs: np.ndarray):
        rows, cols, _ = probs.shape[-3:]
        self.config = ModelConfig("vae", GridSpec(cells_x=cols, cells_y=rows))
        self.probs = probs

    def reconstruct(self, x, gps, **_):
        return self.probs.reshape(len(x), -1)


class TestReport:
    def test_reports_with_the_same_header_and_cells_are_equal(self):
        """The score does not take part in ==; the grid shape does."""
        cells = (AnomalyCell("car", 1, 2, 0.25),)
        report = cell_report(cells, (), 0.5, "vae", None)
        assert report == AnomalyReport(
            GRID_SHAPE, cell_arrays(cells), cell_arrays(()), 0.125, 0.5, "vae", None
        )
        assert report != AnomalyReport((20, 20, N_CATEGORIES), cell_arrays(
            cells, (20, 20, N_CATEGORIES)
        ), cell_arrays(()), 0.25, 0.5, "vae", None)
        assert report != cell_report(cells, (), 0.5, "cvae", None)
        assert report != cell_report((), cells, 0.5, "vae", None)
        assert report != cell_report((AnomalyCell("car", 1, 2, 0.375),), (), 0.5, "vae", None)

    def test_equality_compares_the_cell_arrays_and_builds_no_cells(self):
        """Two detections of one scene are equal without building their
        AnomalyCells; one ulp, one cell index or the grid shape tells apart."""
        ck = random_checkpoint("uav_adnet", seed=7)
        grid, gps = sample_dataset(default_world(), 1, seed=8)[0]
        a, b = detect(ck, grid, gps), detect(ck, grid, gps)
        assert a.missing.index.size and a.added.index.size
        assert a == b
        for report in (a, b):
            assert "anomalies" not in report.__dict__
            assert "hallucinated" not in report.__dict__

        prob = a.missing.prob.copy()
        prob[0] = np.nextafter(prob[0], 1.0)
        index = a.added.index.copy()
        index[-1] = (index[-1] + 1) % grid.data.size
        for other in (
            dataclasses.replace(a, missing=CellArrays(a.missing.index, prob)),
            dataclasses.replace(a, added=CellArrays(index, a.added.prob)),
            dataclasses.replace(a, shape=(20, 20, N_CATEGORIES)),
        ):
            assert a != other

    @settings(max_examples=300, deadline=None)
    @given(
        x=arrays(np.uint8, (3, 3, N_CATEGORIES), elements=st.integers(0, 1)),
        probs=arrays(np.float64, (3, 3, N_CATEGORIES), elements=st.one_of(
            st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        )),
        threshold=st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    )
    def test_scene_has_an_anomaly_exactly_when_its_score_is_below_the_threshold(
        self, x, probs, threshold
    ):
        ck = FixedCheckpoint(probs)
        report = detect(ck, GridTensor(ck.config.grid, x), threshold=threshold)
        assert report.score == min(probs[x != 0].tolist(), default=1.0)
        assert (report.score < threshold) == bool(report.anomalies)

    def test_detected_scene_score_is_its_lowest_occupied_probability(self):
        ck = random_checkpoint("uav_adnet", seed=3)
        for grid, gps in sample_dataset(default_world(), 4, seed=12):
            probs = ck.reconstruct(grid.data.reshape(1, -1), [[gps.latitude, gps.longitude]])
            report = detect(ck, grid, gps)
            assert report.score == probs[0][grid.data.reshape(-1) != 0].min()
            assert (report.score < 0.5) == bool(report.anomalies)

    def test_empty_scene_scores_one(self):
        ck = constant_checkpoint({c: -10.0 for c in CATEGORIES})
        report = detect(ck, GridTensor(ck.config.grid), threshold=1.0)
        assert report.score == 1.0
        assert report.anomalies == ()


GRID_SHAPE = (GridSpec().cells_y, GridSpec().cells_x, N_CATEGORIES)


def cell_arrays(cells, shape=GRID_SHAPE) -> CellArrays:
    """The arrays of the given cells, in the order given."""
    return CellArrays(
        np.array([np.ravel_multi_index(
            (c.row, c.col, CATEGORY_IDS[c.category]), shape
        ) for c in cells], dtype=np.intp),
        np.array([c.reconstruction_prob for c in cells], dtype=np.float64),
    )


def cell_report(anomalies, hallucinated, threshold, model_variant, gps) -> AnomalyReport:
    """A report of the given cells over a default grid; its score is the
    lowest anomaly probability, as if no other cell were occupied."""
    score = min((c.reconstruction_prob for c in anomalies), default=1.0)
    return AnomalyReport(
        GRID_SHAPE, cell_arrays(anomalies), cell_arrays(hallucinated),
        score, threshold, model_variant, gps,
    )


def dict_encoded_line(report: AnomalyReport) -> str:
    """A report line as json.dumps writes it from a dict per report and per cell."""
    return json.dumps({
        "model_variant": report.model_variant,
        "threshold": report.threshold,
        "gps": list(report.gps) if report.gps is not None else None,
        "anomalies": [c._asdict() for c in report.anomalies],
        "hallucinated": [c._asdict() for c in report.hallucinated],
    }) + "\n"


def split_cells(placed) -> tuple[tuple[AnomalyCell, ...], tuple[AnomalyCell, ...]]:
    """(anomalies, hallucinated) from (row, col, name, prob, hallucinated)
    draws at distinct cells, each list in (row, col, name) order."""
    cells = ([], [])
    for row, col, name, prob, hallucinated in sorted(placed, key=lambda c: c[:3]):
        cells[hallucinated].append(AnomalyCell(name, row, col, prob))
    return tuple(cells[0]), tuple(cells[1])


EDGE_PROBS = (5e-324, 1e-300, 1 - 2**-53, 0.5, 1.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.lists(st.tuples(
    st.integers(0, GridSpec().cells_y - 1),
    st.integers(0, GridSpec().cells_x - 1),
    st.sampled_from(CATEGORIES),
    st.one_of(FINITE, FINITE.map(np.float64), st.sampled_from(EDGE_PROBS)),
    st.booleans(),
), max_size=24, unique_by=lambda c: c[:3]).map(split_cells)
# The arguments of cell_report: the cells, then the header fields.
REPORTS = st.tuples(
    CELLS,
    st.sampled_from([0.0, 0.5, 1.0, 1]),
    st.sampled_from(VARIANTS),
    st.one_of(st.none(), st.tuples(FINITE, FINITE)),
)
# Every run also writes the edge probabilities.
EDGE_REPORT = cell_report(
    anomalies=tuple(AnomalyCell("car", 0, col, p) for col, p in enumerate(EDGE_PROBS)),
    hallucinated=tuple(AnomalyCell("van", 15, col, p) for col, p in enumerate(EDGE_PROBS, 8)),
    threshold=1,
    model_variant="uav_adnet",
    gps=(41.1, 29.0),
)


def task2_file(tmp_path) -> str:
    """Digest (a)'s dataset with its test split injected with task 2."""
    w = default_world()
    build_dataset(w, 60, str(tmp_path), seed=5)
    test = load_scenes(str(tmp_path / "test.jsonl"), w.grid)
    write_benchmark(build_benchmark(w, test, 2, Rng(2)), str(tmp_path / "task2.jsonl"))
    return str(tmp_path / "task2.jsonl")


class TestReportSerialization:
    @settings(max_examples=300, deadline=None)
    @given(drawn=st.lists(REPORTS, max_size=4))
    def test_lines_match_the_dict_encoder_byte_for_byte(self, tmp_path_factory, drawn):
        reports = [*(cell_report(*cells, *header) for cells, *header in drawn), EDGE_REPORT]
        for report, (cells, *_) in zip(reports, drawn):
            assert (report.anomalies, report.hallucinated) == cells
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
            "anomalies": cell_report(cells, (), 0.5, "vae", None),
            "hallucinated": cell_report((), cells, 0.5, "vae", None),
            "threshold": cell_report((), (), value, "vae", None),
            "gps": cell_report((), (), 0.5, "uav_adnet", (41.1, value)),
        }[field]
        path = tmp_path / "reports.jsonl"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match=r"^report 1: "):
            write_reports([EDGE_REPORT, bad, EDGE_REPORT], str(path))
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["reports.jsonl"]

    def test_written_reports_are_json_lines(self, tmp_path):
        report = cell_report(
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
        report = cell_report((), (), 0.5, "vae", None)
        path = tmp_path / "reports.jsonl"
        write_reports([report], str(path))
        assert json.loads(path.read_text())["gps"] is None

    def test_report_file_matches_the_pinned_digest(self, tmp_path):
        """The report bytes of criterion 8's untrained checkpoint on digest
        (a)'s dataset, injected with task 2: cell order, probabilities and
        the report format, pinned across versions."""
        reports = detect_batch(random_checkpoint("uav_adnet"), task2_file(tmp_path), 0.5)
        write_reports(reports, str(tmp_path / "reports.jsonl"))
        assert hashlib.sha256((tmp_path / "reports.jsonl").read_bytes()).hexdigest() == (
            "26780c270f3648f8f665711c12d25713604f9a32ee8154315aeaf227e084a1a1"
        )

    def test_reports_of_every_variant_and_threshold_match_the_pinned_digest(self, tmp_path):
        """As above for the untrained checkpoint of each variant at three
        thresholds: one digest over the twelve report files in turn."""
        path = task2_file(tmp_path)
        digest = hashlib.sha256()
        for variant in VARIANTS:
            ck = random_checkpoint(variant)
            for threshold in (0.2, 0.5, 0.9):
                write_reports(detect_batch(ck, path, threshold), str(tmp_path / "reports.jsonl"))
                digest.update((tmp_path / "reports.jsonl").read_bytes())
        assert digest.hexdigest() == (
            "d625d677da8846310a24884838a50216a3d7879ccc52aa33b3ccef51ccaf0359"
        )
