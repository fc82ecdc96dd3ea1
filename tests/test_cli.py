"""End-to-end tests of the command-line interface via its main() entry point."""

import base64
import hashlib
import json
import logging
import math
import os
import shutil

import numpy as np
import pytest

from uavad import adnet, evaluate, grid, world
from uavad.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from uavad.grid import scene_to_record
from uavad.world import default_world, sample_scene, save_world
from uavad.nn import Rng

FAST_TRAIN = ["--n-h", "4", "--batch", "8", "--max-epochs", "1"]


def must_not_run(*args, **kwargs):
    raise AssertionError("work ran although the output cannot be written")


def checkpoint_header(path) -> dict:
    """The parsed JSON header line of a saved checkpoint."""
    with open(path, "rb") as f:
        return json.loads(f.readline())


def with_header_field(src: str, dst, field: tuple, value) -> str:
    """Copy checkpoint ``src`` to ``dst`` with ``value`` at key path ``field``
    of its header line; the payload bytes after the header are kept."""
    with open(src, "rb") as f:
        header, payload = json.loads(f.readline()), f.read()
    node = header
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    dst.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    return str(dst)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated dataset, four one-epoch checkpoints, three benchmarks."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    bench = root / "bench"
    bench.mkdir()
    assert main(["generate", "--n", "20", "--out", str(data), "--seed", "11"]) == EXIT_OK
    ckpts = {}
    for variant in ("uav_adnet", "uav_adnet_wo_gps", "cvae", "vae"):
        out = root / f"{variant}.ckpt"
        code = main(
            ["train", "--variant", variant, "--data", str(data), "--out", str(out),
             "--seed", "1", *FAST_TRAIN]
        )
        assert code == EXIT_OK
        ckpts[variant] = str(out)
    for task in ("1", "2", "3"):
        code = main(
            ["inject", "--data", str(data / "test.jsonl"), "--task", task,
             "--out", str(bench / f"task{task}.jsonl"), "--seed", "2"]
        )
        assert code == EXIT_OK
    return {"root": root, "data": data, "bench": bench, "ckpts": ckpts}


class TestGenerate:
    def test_writes_the_announced_files(self, pipeline, capsys):
        data = pipeline["data"]
        capsys.readouterr()
        for name, lines in (("train.jsonl", 12), ("val.jsonl", 2), ("test.jsonl", 6)):
            assert len((data / name).read_text().splitlines()) == lines
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["splits"] == {"train": 12, "val": 2, "test": 6}

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert main(
                ["generate", "--n", "10", "--out", str(tmp_path / sub), "--seed", "3"]
            ) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "a" / "train.jsonl").read_bytes() == (
            tmp_path / "b" / "train.jsonl"
        ).read_bytes()

    def test_prints_the_manifest(self, tmp_path, capsys):
        assert main(["generate", "--n", "10", "--out", str(tmp_path / "d")]) == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["n_samples"] == 10

    def test_missing_world_file_is_a_config_error(self, tmp_path):
        code = main(
            ["generate", "--n", "10", "--out", str(tmp_path / "d"),
             "--world", str(tmp_path / "absent.json")]
        )
        assert code == EXIT_CONFIG


    def test_fractional_zone_bound_is_a_config_error(self, tmp_path, caplog):
        path = tmp_path / "world.json"
        save_world(default_world(), str(path))
        doc = json.loads(path.read_text())
        doc["waypoints"][0]["zones"].insert(0, {"kind": "grass", "rect": [0, 0, 1.9, 1]})
        path.write_text(json.dumps(doc))
        with caplog.at_level(logging.ERROR):
            code = main(
                ["generate", "--n", "10", "--out", str(tmp_path / "d"), "--world", str(path)]
            )
        assert code == EXIT_CONFIG
        assert "1.9" in caplog.text

    @pytest.mark.parametrize("weight", [math.inf, math.nan], ids=["infinite", "nan"])
    def test_non_finite_rule_weight_is_a_config_error_naming_the_file(
        self, tmp_path, caplog, weight
    ):
        path = tmp_path / "world.json"
        save_world(default_world(), str(path))
        doc = json.loads(path.read_text())
        doc["rules"][0]["weights"][1] = weight
        path.write_text(json.dumps(doc))
        with caplog.at_level(logging.ERROR):
            code = main(
                ["generate", "--n", "10", "--out", str(tmp_path / "d"), "--world", str(path)]
            )
        assert code == EXIT_CONFIG
        assert f"{path}: rule for 'car' has a negative or non-finite weight" in caplog.text

    def test_non_utf8_world_file_is_a_config_error_naming_the_file(self, tmp_path, caplog):
        path = tmp_path / "world.json"
        path.write_bytes(b'{"grid": "\xff"}')
        with caplog.at_level(logging.ERROR):
            code = main(
                ["generate", "--n", "10", "--out", str(tmp_path / "d"), "--world", str(path)]
            )
        assert code == EXIT_CONFIG
        assert f"{path}: malformed world file" in caplog.text


class TestInject:
    def test_announces_the_case_count(self, pipeline, capsys):
        bench = pipeline["bench"]
        capsys.readouterr()
        for task in ("2", "3"):
            lines = (bench / f"task{task}.jsonl").read_text().splitlines()
            assert len(lines) == 6  # every test scene is eligible
        assert (bench / "task1.jsonl").read_text().splitlines()

    def test_infeasible_injection_is_a_runtime_error(self, tmp_path, capsys):
        """A file of scenes from a waypoint without private strips cannot
        host a task-1 injection."""
        world = default_world()
        grid, gps = sample_scene(world, 1, Rng(5))
        path = tmp_path / "w1.jsonl"
        path.write_text(scene_to_record(grid, gps) + "\n")
        code = main(
            ["inject", "--data", str(path), "--task", "1", "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == EXIT_RUNTIME

    def test_a_file_with_no_scenes_is_a_config_error_naming_it(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with caplog.at_level(logging.ERROR):
            code = main(
                ["inject", "--data", str(path), "--task", "1", "--out", str(tmp_path / "o.jsonl")]
            )
        assert code == EXIT_CONFIG
        assert f"{path} holds no scenes" in caplog.text
        assert not (tmp_path / "o.jsonl").exists()

    def test_missing_scene_file_is_a_config_error(self, tmp_path):
        code = main(
            ["inject", "--data", str(tmp_path / "absent.jsonl"), "--task", "2",
             "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == EXIT_CONFIG


class TestTrain:
    def test_writes_checkpoint_and_history(self, pipeline, capsys):
        root = pipeline["root"]
        capsys.readouterr()
        header = checkpoint_header(root / "vae.ckpt")
        assert header["format_version"] == adnet.CHECKPOINT_FORMAT_VERSION
        assert header["config"]["variant"] == "vae"
        assert header["training_meta"]["seed"] == 1
        history = json.loads((root / "vae.ckpt.history.json").read_text())
        assert len(history) == 1
        assert set(history[0]) == {"train_loss", "val_loss", "val_mse", "wall_s"}
        assert history[0]["wall_s"] > 0

    def test_reports_training_summary(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ck.json"
        code = main(
            ["train", "--variant", "vae", "--data", str(pipeline["data"]),
             "--out", str(out), "--seed", "4", *FAST_TRAIN]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "vae"
        assert summary["epochs_run"] == 1
        assert summary["checkpoint"] == str(out)

    def test_missing_dataset_is_a_config_error(self, tmp_path):
        code = main(
            ["train", "--variant", "vae", "--data", str(tmp_path / "absent"),
             "--out", str(tmp_path / "ck.json")]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "manifest",
        ["{}", '{"grid": {"image_width": 1080, "image_height": 1080, "cells_x": 16.9, '
         '"cells_y": 16}}', "{broken"],
        ids=["no-grid", "fractional-cells", "malformed-json"],
    )
    def test_malformed_manifest_is_a_config_error_naming_it(
        self, pipeline, tmp_path, caplog, manifest
    ):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / "manifest.json").write_text(manifest)
        with caplog.at_level(logging.ERROR):
            code = main(
                ["train", "--variant", "vae", "--data", str(data),
                 "--out", str(tmp_path / "ck.json"), *FAST_TRAIN]
            )
        assert code == EXIT_CONFIG
        assert str(data / "manifest.json") in caplog.text
        assert not (tmp_path / "ck.json").exists()

    @pytest.mark.parametrize("name", ["train.jsonl", "val.jsonl"])
    def test_a_split_with_no_scenes_is_a_config_error_naming_it(
        self, pipeline, tmp_path, caplog, name
    ):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / name).write_text("")
        with caplog.at_level(logging.ERROR):
            code = main(
                ["train", "--variant", "vae", "--data", str(data),
                 "--out", str(tmp_path / "ck.json"), *FAST_TRAIN]
            )
        assert code == EXIT_CONFIG
        assert f"{data / name} holds no scenes" in caplog.text
        assert not (tmp_path / "ck.json").exists()

    def test_non_finite_learning_rate_is_a_config_error(
        self, pipeline, tmp_path, caplog, monkeypatch
    ):
        """Rejected before training starts, rather than failing later on a
        non-finite gradient with exit 3."""
        monkeypatch.setattr(adnet, "train", must_not_run)
        with caplog.at_level(logging.ERROR):
            code = main(
                ["train", "--variant", "vae", "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "ck.json"), "--lr", "nan", *FAST_TRAIN]
            )
        assert code == EXIT_CONFIG
        assert "lr nan" in caplog.text
        assert not (tmp_path / "ck.json").exists()

    def test_checkpoint_records_the_dataset_manifest_digest(self, pipeline):
        want = hashlib.sha256((pipeline["data"] / "manifest.json").read_bytes()).hexdigest()
        for path in pipeline["ckpts"].values():
            assert adnet.load_checkpoint(path).training_meta["data_manifest_sha256"] == want

    def test_checkpoint_records_the_numpy_version(self, pipeline):
        for path in pipeline["ckpts"].values():
            assert adnet.load_checkpoint(path).training_meta["numpy_version"] == np.__version__

    def test_usage_errors_exit_two(self):
        assert main(["train", "--variant", "vae"]) == EXIT_CONFIG
        assert main(["train", "--variant", "nonsense", "--data", "d", "--out", "o"]) == EXIT_CONFIG


class TestDetect:
    def test_writes_one_report_per_scene(self, pipeline, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        code = main(
            ["detect", "--ckpt", pipeline["ckpts"]["uav_adnet"],
             "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["reports"] == 6
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert json.loads(lines[0])["model_variant"] == "uav_adnet"
        assert summary["anomaly_cells"] == sum(len(json.loads(line)["anomalies"]) for line in lines)

    def test_accepts_benchmark_files(self, pipeline, tmp_path):
        out = tmp_path / "reports.jsonl"
        code = main(
            ["detect", "--ckpt", pipeline["ckpts"]["vae"],
             "--in", str(pipeline["bench"] / "task2.jsonl"), "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_threshold_outside_the_unit_interval_is_a_config_error(self, pipeline, tmp_path):
        for threshold in ("nan", "1.5"):
            code = main(
                ["detect", "--ckpt", pipeline["ckpts"]["vae"],
                 "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(tmp_path / "o"),
                 "--threshold", threshold]
            )
            assert code == EXIT_CONFIG

    def test_bad_threshold_on_an_empty_input_is_a_config_error(self, pipeline, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(
            ["detect", "--ckpt", pipeline["ckpts"]["vae"],
             "--in", str(empty), "--out", str(tmp_path / "o"), "--threshold", "nan"]
        )
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_bad_record_in_a_later_chunk_exits_two_naming_its_line(
        self, pipeline, tmp_path, caplog
    ):
        lines = (pipeline["data"] / "test.jsonl").read_text().splitlines()
        bad = json.loads(lines[0])
        bad["cells"] = [["car", 99, 0]]
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("\n".join((lines * 12)[:69] + [json.dumps(bad)] + lines) + "\n")
        with caplog.at_level(logging.ERROR):
            code = main(
                ["detect", "--ckpt", pipeline["ckpts"]["uav_adnet"],
                 "--in", str(scenes), "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_CONFIG
        assert f"{scenes}: line 70:" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_is_a_config_error(self, pipeline, tmp_path):
        code = main(
            ["detect", "--ckpt", str(tmp_path / "absent.json"),
             "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG

    def test_corrupt_checkpoint_is_a_config_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(
            ["detect", "--ckpt", str(bad),
             "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG


    def test_malformed_checkpoint_field_is_a_config_error(self, pipeline, tmp_path, caplog):
        bad = with_header_field(pipeline["ckpts"]["vae"], tmp_path / "bad.ckpt",
                                ("training_meta",), 5)
        with caplog.at_level(logging.ERROR):
            code = main(
                ["detect", "--ckpt", str(bad),
                 "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_CONFIG
        assert "training_meta" in caplog.text


    @pytest.mark.parametrize(
        "field, value",
        [(("config", "n_h"), 4.9), (("params", 2, 1), [128.5]),
         (("gps_normalization", "scale"), float("nan"))],
        ids=["fractional-n_h", "fractional-shape", "nan-scale"],
    )
    def test_non_integer_or_non_finite_checkpoint_field_is_a_config_error(
        self, pipeline, tmp_path, caplog, field, value
    ):
        # params lists dec.b, dec.w, enc.b, ...: entry 2 is enc.b.
        bad = with_header_field(pipeline["ckpts"]["uav_adnet"], tmp_path / "bad.ckpt", field, value)
        with caplog.at_level(logging.ERROR):
            code = main(
                ["detect", "--ckpt", str(bad),
                 "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_CONFIG
        assert str(bad) in caplog.text
        assert not (tmp_path / "o").exists()

    def test_format_2_checkpoint_is_a_config_error_naming_it(self, pipeline, tmp_path, caplog):
        """A checkpoint in format 2's layout, one JSON document with base64
        parameters, is no longer read."""
        ck = adnet.load_checkpoint(pipeline["ckpts"]["vae"])
        params = {
            name: {"shape": list(arr.shape),
                   "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
            for name, arr in sorted(ck.values.items())
        }
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "format_version": 2, "config": ck.config.to_dict(),
            "gps_normalization": ck.gps_normalization.to_dict(), "params": params,
            "training_meta": ck.training_meta,
        }))
        with caplog.at_level(logging.ERROR):
            code = main(
                ["detect", "--ckpt", str(old),
                 "--in", str(pipeline["data"] / "test.jsonl"), "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_CONFIG
        assert f"{old}: format version 2, supported 3" in caplog.text
        assert not (tmp_path / "o").exists()


class TestEval:
    def test_runs_the_four_variant_benchmark(self, pipeline, tmp_path, capsys):
        out = tmp_path / "result.json"
        ckpts = pipeline["ckpts"]
        code = main(
            ["eval", "--data", str(pipeline["data"]), "--bench", str(pipeline["bench"]),
             "--ckpts", ckpts["uav_adnet"], ckpts["uav_adnet_wo_gps"],
             ckpts["cvae"], ckpts["vae"], "--out", str(out)]
        )
        assert code == EXIT_OK
        table = capsys.readouterr().out
        for variant in ("uav_adnet", "uav_adnet_wo_gps", "cvae", "vae"):
            assert variant in table
        result = json.loads(out.read_text())
        assert set(result["variants"]) == {"uav_adnet", "uav_adnet_wo_gps", "cvae", "vae"}
        for entry in result["variants"].values():
            assert 0.0 <= entry["task1_acc"] <= 1.0

    def test_checkpoints_from_different_data_log_a_warning(self, pipeline, tmp_path, caplog):
        ckpts = dict(pipeline["ckpts"])
        ckpts["vae"] = with_header_field(ckpts["vae"], tmp_path / "vae.ckpt",
                                         ("training_meta", "data_manifest_sha256"), "0" * 64)
        args = ["eval", "--data", str(pipeline["data"]), "--bench", str(pipeline["bench"]),
                "--out", str(tmp_path / "r.json"), "--ckpts"]
        with caplog.at_level(logging.WARNING):
            assert main([*args, *pipeline["ckpts"].values()]) == EXIT_OK
            assert "different data" not in caplog.text
            assert main([*args, *ckpts.values()]) == EXIT_OK
        assert "trained on different data" in caplog.text
        assert "vae=" + "0" * 64 in caplog.text

    def test_checkpoint_for_another_grid_is_a_config_error(self, pipeline, tmp_path, caplog):
        """Same cell counts, other image size: eval names the variant and
        writes nothing."""
        ckpts = dict(pipeline["ckpts"])
        ckpts["vae"] = with_header_field(ckpts["vae"], tmp_path / "vae.ckpt",
                                         ("config", "grid", "image_width"), 540)
        out = tmp_path / "r.json"
        with caplog.at_level(logging.ERROR):
            code = main(
                ["eval", "--data", str(pipeline["data"]), "--bench", str(pipeline["bench"]),
                 "--out", str(out), "--ckpts", *ckpts.values()]
            )
        assert code == EXIT_CONFIG
        assert "variant 'vae'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("name", ["val.jsonl", "test.jsonl"])
    def test_a_split_with_no_scenes_is_a_config_error_naming_it(
        self, pipeline, tmp_path, caplog, name
    ):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / name).write_text("")
        out = tmp_path / "r.json"
        with caplog.at_level(logging.ERROR):
            code = main(
                ["eval", "--data", str(data), "--bench", str(pipeline["bench"]),
                 "--out", str(out), "--ckpts", *pipeline["ckpts"].values()]
            )
        assert code == EXIT_CONFIG
        assert f"{data / name} holds no scenes" in caplog.text
        assert not out.exists()

    def test_duplicate_variants_are_a_config_error(self, pipeline, tmp_path):
        ckpts = pipeline["ckpts"]
        code = main(
            ["eval", "--data", str(pipeline["data"]), "--bench", str(pipeline["bench"]),
             "--ckpts", ckpts["vae"], ckpts["vae"], ckpts["cvae"], ckpts["uav_adnet"],
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_CONFIG

    def test_fractional_injected_cell_is_a_config_error_naming_the_line(
        self, pipeline, tmp_path, caplog
    ):
        bench = tmp_path / "bench"
        bench.mkdir()
        for task in ("1", "2", "3"):
            name = f"task{task}.jsonl"
            (bench / name).write_text((pipeline["bench"] / name).read_text())
        lines = (bench / "task2.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        doc["injected"][1] += 0.9
        lines[0] = json.dumps(doc)
        (bench / "task2.jsonl").write_text("\n".join(lines) + "\n")
        ckpts = pipeline["ckpts"]
        with caplog.at_level(logging.ERROR):
            code = main(
                ["eval", "--data", str(pipeline["data"]), "--bench", str(bench),
                 "--ckpts", ckpts["uav_adnet"], ckpts["uav_adnet_wo_gps"],
                 ckpts["cvae"], ckpts["vae"], "--out", str(tmp_path / "r.json")]
            )
        assert code == EXIT_CONFIG
        assert "line 1" in caplog.text


class TestRender:
    def test_prints_one_glyph_row_per_grid_row(self, pipeline, capsys):
        code = main(["render", "--in", str(pipeline["data"] / "test.jsonl"), "--index", "0"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert all(len(line) == 16 for line in lines)
        assert any(ch != "." for line in lines for ch in line)

    def test_the_grid_comes_from_the_manifest_beside_the_file(self, tmp_path, capsys):
        """A dataset of the default world cut to 12x12 cells renders as
        12 rows of 12 glyphs."""
        path = tmp_path / "world.json"
        save_world(default_world(), str(path))
        doc = json.loads(path.read_text())
        doc["grid"].update(cells_x=12, cells_y=12)
        for wp in doc["waypoints"]:
            for zone in wp["zones"]:
                zone["cells"] = [[r, c] for r, c in zone["cells"] if r < 12 and c < 12]
        path.write_text(json.dumps(doc))
        data = tmp_path / "data"
        assert main(["generate", "--world", str(path), "--n", "10", "--out", str(data)]) == EXIT_OK
        capsys.readouterr()
        assert main(["render", "--in", str(data / "test.jsonl")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12 and all(len(line) == 12 for line in lines)
        assert any(ch != "." for line in lines for ch in line)

    def test_out_of_range_index_is_a_config_error(self, pipeline):
        code = main(["render", "--in", str(pipeline["data"] / "test.jsonl"), "--index", "99"])
        assert code == EXIT_CONFIG

    def test_fractional_cell_index_is_a_config_error_naming_the_line(self, tmp_path, caplog):
        path = tmp_path / "scenes.jsonl"
        path.write_text(json.dumps({"gps": [41.1, 29.0], "cells": [["car", 1.5, 2]]}) + "\n")
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", str(path)]) == EXIT_CONFIG
        assert "line 1" in caplog.text


    @pytest.mark.parametrize("gps", [["41.1", "29.0"], [True, 29.0], [41.1, 29.0, 7]],
                             ids=["strings", "bool", "three-numbers"])
    def test_gps_that_is_not_two_numbers_is_a_config_error_naming_the_line(
        self, tmp_path, caplog, gps
    ):
        path = tmp_path / "scenes.jsonl"
        path.write_text(json.dumps({"gps": gps, "cells": [["car", 1, 2]]}) + "\n")
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", str(path)]) == EXIT_CONFIG
        assert f"{path}: line 1: " in caplog.text and "exactly two numbers" in caplog.text

    def test_malformed_json_line_is_a_config_error_naming_the_file(self, tmp_path, caplog):
        path = tmp_path / "scenes.jsonl"
        path.write_text(json.dumps({"gps": [41.1, 29.0], "cells": []}) + "\n{broken\n")
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", str(path)]) == EXIT_CONFIG
        assert f"{path}: line 2: malformed JSON record" in caplog.text

    def test_non_utf8_line_is_a_config_error_naming_the_file(self, tmp_path, caplog):
        path = tmp_path / "scenes.jsonl"
        good = json.dumps({"gps": [41.1, 29.0], "cells": []}).encode("utf-8")
        path.write_bytes(good + b"\n" + good.replace(b"cells", b"c\xe9lls") + b"\n")
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", str(path)]) == EXIT_CONFIG
        assert f"{path}: line 2: " in caplog.text


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["inject", "train", "train-history", "detect", "eval"])
    def test_missing_output_directory_is_a_config_error_before_any_work(
        self, pipeline, tmp_path, caplog, monkeypatch, command
    ):
        absent = str(tmp_path / "absent" / "out.json")
        data, ckpts = pipeline["data"], pipeline["ckpts"]
        for module, name in [(adnet, "load_checkpoint"), (adnet, "train"),
                             (evaluate, "run_benchmark"), (world, "load_scenes")]:
            monkeypatch.setattr(module, name, must_not_run)
        argv = {
            "inject": ["inject", "--data", str(data / "test.jsonl"), "--task", "1",
                       "--out", absent],
            "train": ["train", "--variant", "vae", "--data", str(data), "--out", absent],
            "train-history": ["train", "--variant", "vae", "--data", str(data),
                              "--out", str(tmp_path / "ck.json"), "--history", absent],
            "detect": ["detect", "--ckpt", ckpts["vae"], "--in", str(data / "test.jsonl"),
                       "--out", absent],
            "eval": ["eval", "--data", str(data), "--bench", str(pipeline["bench"]),
                     "--ckpts", *ckpts.values(), "--out", absent],
        }[command]
        with caplog.at_level(logging.ERROR):
            assert main(argv) == EXIT_CONFIG
        assert f"{absent}: directory" in caplog.text
        assert list(tmp_path.iterdir()) == []


class TestUnreadableInput:
    def test_directory_as_input_is_a_config_error(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", str(tmp_path)]) == EXIT_CONFIG
        assert str(tmp_path) in caplog.text

    def test_path_through_a_file_is_a_config_error(self, tmp_path, caplog):
        (tmp_path / "scenes.jsonl").write_text("")
        path = str(tmp_path / "scenes.jsonl" / "child.jsonl")
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", path]) == EXIT_CONFIG
        assert path in caplog.text

    def test_unreadable_file_is_a_config_error(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "scenes.jsonl"
        path.write_text(json.dumps({"gps": [41.1, 29.0], "cells": []}) + "\n")
        path.chmod(0)
        if os.access(path, os.R_OK):
            # A privileged user reads through the mode bits; raise what the
            # open would raise for anyone else.
            def denied(file, *args, **kwargs):
                raise PermissionError(13, "Permission denied", file)

            monkeypatch.setattr(grid, "open", denied, raising=False)
        with caplog.at_level(logging.ERROR):
            assert main(["render", "--in", str(path)]) == EXIT_CONFIG
        assert "Permission denied" in caplog.text


class TestGradcheck:
    def test_reports_success_for_all_variants(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all gradients within" in out
        for variant in ("uav_adnet", "uav_adnet_wo_gps", "cvae", "vae"):
            assert variant in out


class TestUsage:
    def test_no_command_exits_two(self):
        assert main([]) == EXIT_CONFIG

    def test_unknown_command_exits_two(self):
        assert main(["prognosticate"]) == EXIT_CONFIG
