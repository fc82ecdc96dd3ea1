"""Tests for metrics, task scoring, and the four-variant benchmark runner."""

import json
import math

import numpy as np
import pytest

from uavad import evaluate
from uavad.adnet import (
    Checkpoint,
    Dataset,
    GpsNormalization,
    ModelConfig,
    VARIANTS,
    expected_param_shapes,
    init_params,
)
from uavad.detect import detect_batch
from uavad.evaluate import (
    MetricCounts,
    format_table,
    mse_on_scenes,
    prf1,
    reconstruction_metrics,
    run_benchmark,
    task_accuracy,
)
from uavad.grid import CATEGORY_IDS, N_CATEGORIES, GpsLabel, GridSpec, GridTensor
from uavad.nn import Rng
from uavad.world import (
    AnomalyCase,
    build_benchmark,
    build_dataset,
    default_world,
    sample_dataset,
    write_benchmark,
)

WORLD = default_world()
GPS = GpsLabel(41.1, 29.0)


def constant_checkpoint(bias: float | np.ndarray, variant: str = "vae") -> Checkpoint:
    """All-zero weights with an output bias shared by every cell: each
    reconstruction probability is sigmoid(bias) of its category, giving
    closed-form metric oracles."""
    config = ModelConfig(variant)
    values = {name: np.zeros(shape) for name, shape in expected_param_shapes(config).items()}
    values["out.b"][:] = bias
    return Checkpoint(config, GpsNormalization(41.1, 29.0), values)


def case(category: str, row: int, col: int) -> AnomalyCase:
    return AnomalyCase(
        task="task2_public", category=category, row=row, col=col,
        scene_index=0, waypoint_index=0,
    )


def car_suppressing_checkpoint() -> Checkpoint:
    """Cars are reconstructed nowhere and every other category everywhere."""
    bias = np.full(len(CATEGORY_IDS), 2.0)
    bias[CATEGORY_IDS["car"]] = -2.0
    return constant_checkpoint(bias)


def task_set(records) -> tuple[Dataset, list[AnomalyCase]]:
    """Benchmark records as task_accuracy takes them: their scenes as one
    Dataset and their cases in the same order."""
    return Dataset.from_scenes((g, gps) for g, gps, _ in records), [c for *_, c in records]


def scene(*cells: tuple[str, int, int]) -> GridTensor:
    g = GridTensor(GridSpec())
    for category, row, col in cells:
        g = g.with_cell(row, col, CATEGORY_IDS[category])
    return g


class TestMetricCounts:
    def test_total(self):
        assert MetricCounts(1, 2, 3, 4).total == 10

    def test_negative_counts_are_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MetricCounts(1, -1, 0, 0)


class TestReconstructionCounts:
    def test_hand_checked_confusion(self):
        spec = GridSpec()
        x = scene(("car", 0, 0), ("bus", 1, 1))
        counts, _ = reconstruction_metrics(
            car_suppressing_checkpoint(), Dataset.from_scenes([(x, GPS)])
        )
        # Every non-car cell is reconstructed.
        kept = (N_CATEGORIES - 1) * spec.cells_y * spec.cells_x
        assert (counts.tp, counts.fp, counts.fn) == (1, kept - 1, 1)
        assert counts.tn == spec.vector_length - kept - 1
        assert counts.total == spec.vector_length

    def test_spec_mismatch_is_rejected(self):
        small = GridTensor(GridSpec(cells_x=4, cells_y=4))
        with pytest.raises(ValueError, match="components"):
            reconstruction_metrics(constant_checkpoint(0.0), Dataset.from_scenes([(small, GPS)]))


class TestPrf1:
    def test_textbook_values(self):
        precision, recall, f1 = prf1(MetricCounts(tp=3, fp=1, fn=2, tn=10))
        assert precision == pytest.approx(0.75)
        assert recall == pytest.approx(0.6)
        assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_no_predictions_and_no_positives_is_perfect(self):
        """An empty scene reconstructed as empty should not be punished."""
        assert prf1(MetricCounts(0, 0, 0, 8)) == (1.0, 1.0, 1.0)

    def test_silent_detector_has_perfect_precision_zero_recall(self):
        precision, recall, f1 = prf1(MetricCounts(tp=0, fp=0, fn=5, tn=3))
        assert (precision, recall, f1) == (1.0, 0.0, 0.0)

    def test_pure_noise_has_perfect_recall_zero_precision(self):
        precision, recall, f1 = prf1(MetricCounts(tp=0, fp=5, fn=0, tn=3))
        assert (precision, recall, f1) == (0.0, 1.0, 0.0)

    def test_all_wrong_everywhere_scores_zero_f1(self):
        assert prf1(MetricCounts(tp=0, fp=2, fn=3, tn=1)) == (0.0, 0.0, 0.0)


class TestAnomalyAccuracy:
    def test_counts_exact_matches(self):
        records = [
            (scene(("car", 1, 2)), GPS, case("car", 1, 2)),
            (scene(("bus", 3, 4), ("car", 0, 0)), GPS, case("bus", 3, 4)),
            (scene(("van", 5, 5)), GPS, case("van", 5, 5)),
        ]
        accuracy = task_accuracy(car_suppressing_checkpoint(), *task_set(records))
        assert accuracy == pytest.approx(1 / 3)

    def test_category_must_match_not_just_the_cell(self):
        """The car at the injected cell is missing, the injected bus is not."""
        records = [(scene(("car", 1, 2), ("bus", 1, 2)), GPS, case("bus", 1, 2))]
        assert task_accuracy(car_suppressing_checkpoint(), *task_set(records)) == 0.0


class TestReconstructionMetrics:
    def test_suppressing_model_has_precision_one_recall_zero(self):
        scenes = sample_dataset(WORLD, 6, seed=1)
        counts, (precision, recall, f1) = reconstruction_metrics(
            constant_checkpoint(-2.0), Dataset.from_scenes(scenes)
        )
        occupied = sum(g.popcount() for g, _ in scenes)
        assert (counts.tp, counts.fp) == (0, 0)
        assert counts.fn == occupied
        assert (precision, recall, f1) == (1.0, 0.0, 0.0)

    def test_saturating_model_has_recall_one(self):
        scenes = sample_dataset(WORLD, 6, seed=1)
        counts, (precision, recall, f1) = reconstruction_metrics(
            constant_checkpoint(2.0), Dataset.from_scenes(scenes)
        )
        occupied = sum(g.popcount() for g, _ in scenes)
        total = len(scenes) * WORLD.grid.vector_length
        assert counts.tp == occupied and counts.fn == 0
        assert counts.fp == total - occupied
        assert recall == 1.0
        assert precision == pytest.approx(occupied / total)


class TestTaskAccuracy:
    def test_suppressing_model_flags_every_injection(self):
        scenes = sample_dataset(WORLD, 6, seed=4)
        records = build_benchmark(WORLD, scenes, task=2, rng=Rng(5))
        assert task_accuracy(constant_checkpoint(-2.0), *task_set(records)) == 1.0

    def test_saturating_model_misses_every_injection(self):
        scenes = sample_dataset(WORLD, 6, seed=4)
        records = build_benchmark(WORLD, scenes, task=2, rng=Rng(5))
        assert task_accuracy(constant_checkpoint(2.0), *task_set(records)) == 0.0

    def test_agrees_with_full_detection_reports(self, tmp_path):
        """Scoring probabilities directly must match running the detector
        and checking its flagged set, for any model."""
        scenes = sample_dataset(WORLD, 8, seed=6)
        records = build_benchmark(WORLD, scenes, task=3, rng=Rng(7))
        path = tmp_path / "task3.jsonl"
        write_benchmark(records, str(path))
        config = ModelConfig("uav_adnet")
        ck = Checkpoint(
            config, GpsNormalization(41.1, 29.0), init_params(config, 8).copy_values()
        )
        reports = detect_batch(ck, str(path))
        hits = sum(
            case.injected in report.flagged() for report, (_, _, case) in zip(reports, records)
        )
        assert task_accuracy(ck, *task_set(records)) == hits / len(records)

    def test_empty_benchmark_is_rejected(self):
        empty = Dataset(np.zeros((0, WORLD.grid.vector_length)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="no benchmark records"):
            task_accuracy(constant_checkpoint(0.0), empty, [])

    def test_one_case_per_scene_is_checked(self):
        scenes = sample_dataset(WORLD, 6, seed=4)
        data, cases = task_set(build_benchmark(WORLD, scenes, task=2, rng=Rng(5)))
        with pytest.raises(ValueError, match="cases for"):
            task_accuracy(constant_checkpoint(-2.0), data, cases[:-1])


class TestMseOnScenes:
    def test_constant_model_oracle(self):
        scenes = sample_dataset(WORLD, 4, seed=9)
        p = 1.0 / (1.0 + math.exp(2.0))
        occupied = sum(g.popcount() for g, _ in scenes)
        total = len(scenes) * WORLD.grid.vector_length
        want = (occupied * (1.0 - p) ** 2 + (total - occupied) * p * p) / total
        got = mse_on_scenes(constant_checkpoint(-2.0), Dataset.from_scenes(scenes))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    bench_dir = tmp_path_factory.mktemp("bench")
    build_dataset(WORLD, 24, str(data_dir), seed=10)
    test_scenes = sample_dataset(WORLD, 24, seed=10)[-7:]
    for task in (1, 2, 3):
        records = build_benchmark(WORLD, test_scenes, task, Rng(100 + task))
        write_benchmark(records, str(bench_dir / f"task{task}.jsonl"))
    return str(data_dir), str(bench_dir)


class TestRunBenchmark:
    def checkpoints(self, bias: float) -> dict[str, Checkpoint]:
        return {v: constant_checkpoint(bias, v) for v in VARIANTS}

    def test_result_document_shape_and_oracle_values(self, artifacts, tmp_path):
        data_dir, bench_dir = artifacts
        out = tmp_path / "result.json"
        result = run_benchmark(
            WORLD, data_dir, self.checkpoints(-2.0), bench_dir, str(out)
        )
        assert set(result["variants"]) == set(VARIANTS)
        assert result["counts"]["val_scenes"] == 2
        assert result["counts"]["test_scenes"] == 7
        for variant in VARIANTS:
            entry = result["variants"][variant]
            assert entry["precision"] == 1.0 and entry["recall"] == 0.0
            assert entry["task1_acc"] == 1.0
            assert entry["task2_acc"] == 1.0
            assert entry["task3_acc"] == 1.0
        assert json.loads(out.read_text()) == result

    def test_missing_checkpoint_is_rejected(self, artifacts):
        data_dir, bench_dir = artifacts
        checkpoints = self.checkpoints(0.0)
        del checkpoints["vae"]
        with pytest.raises(ValueError, match="vae"):
            run_benchmark(WORLD, data_dir, checkpoints, bench_dir)

    def test_missing_artifact_is_reported(self, artifacts, tmp_path):
        data_dir, _ = artifacts
        with pytest.raises(FileNotFoundError, match="task1"):
            run_benchmark(WORLD, data_dir, self.checkpoints(0.0), str(tmp_path))

    @pytest.mark.parametrize(
        "grid",
        [GridSpec(image_width=540), GridSpec(cells_x=4, cells_y=4)],
        ids=["same-cells", "other-cells"],
    )
    def test_checkpoint_for_another_grid_is_rejected_before_reading(self, grid, tmp_path):
        """A checkpoint whose grid differs from the world's is named, even when
        its cell counts match (it would otherwise score silently), and no
        file is read: the directories here do not exist."""
        checkpoints = self.checkpoints(0.0)
        config = ModelConfig("cvae", grid=grid)
        checkpoints["cvae"] = Checkpoint(
            config, GpsNormalization(41.1, 29.0), init_params(config, 0).copy_values()
        )
        absent = str(tmp_path / "absent")
        with pytest.raises(ValueError, match="variant 'cvae' has grid"):
            run_benchmark(WORLD, absent, checkpoints, absent)

    def test_flattens_each_scene_set_once(self, artifacts, monkeypatch):
        """Five scene sets (val, test, three task files) are flattened once
        each, whatever the number of variants scored on them."""
        data_dir, bench_dir = artifacts
        from_scenes = Dataset.from_scenes
        calls = []

        def counting(scenes):
            calls.append(1)
            return from_scenes(scenes)

        monkeypatch.setattr(Dataset, "from_scenes", staticmethod(counting))
        for variants in (VARIANTS[:1], VARIANTS):
            monkeypatch.setattr(evaluate, "VARIANTS", variants)
            calls.clear()
            result = run_benchmark(WORLD, data_dir, self.checkpoints(-2.0), bench_dir)
            assert list(result["variants"]) == list(variants)
            assert len(calls) == 5

    def test_scores_through_the_public_metrics(self, artifacts, monkeypatch):
        """Every score comes from the public metric of that name: one
        reconstruction and one MSE per variant, one task accuracy per
        variant and task, and the result is what they return."""
        data_dir, bench_dir = artifacts
        checkpoints = {
            v: Checkpoint(
                ModelConfig(v), GpsNormalization(41.1, 29.0),
                init_params(ModelConfig(v), 3).copy_values(),
            )
            for v in VARIANTS
        }
        want = run_benchmark(WORLD, data_dir, checkpoints, bench_dir)
        calls = dict.fromkeys(("reconstruction_metrics", "task_accuracy", "mse_on_scenes"), 0)
        for name in calls:
            def counting(*args, _name=name, _metric=getattr(evaluate, name)):
                calls[_name] += 1
                return _metric(*args)

            monkeypatch.setattr(evaluate, name, counting)
        assert run_benchmark(WORLD, data_dir, checkpoints, bench_dir) == want
        n = len(VARIANTS)
        assert calls == {"reconstruction_metrics": n, "task_accuracy": 3 * n, "mse_on_scenes": n}

    def test_format_table_lists_every_variant(self, artifacts):
        data_dir, bench_dir = artifacts
        result = run_benchmark(WORLD, data_dir, self.checkpoints(-2.0), bench_dir)
        table = format_table(result)
        lines = table.splitlines()
        assert len(lines) == 2 + len(VARIANTS)
        for variant in VARIANTS:
            assert any(line.startswith(variant) for line in lines)
        assert "task1" in lines[0] and "val_mse" in lines[0]
