"""The file boundary: every artifact replaces its file atomically, and every
read error names the file and the line."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavad import cli, detect, evaluate, world
from uavad.adnet import (
    VARIANTS,
    Checkpoint,
    GpsNormalization,
    ModelConfig,
    expected_param_shapes,
    save_checkpoint,
)
from uavad.grid import atomic_write, read_annotations
from uavad.nn import Rng

WORLD = world.default_world()
OLD = b"the previous artifact\n"


def zero_checkpoint(variant: str = "vae") -> Checkpoint:
    config = ModelConfig(variant)
    values = {name: np.zeros(shape) for name, shape in expected_param_shapes(config).items()}
    return Checkpoint(config, GpsNormalization(41.1, 29.0), values)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A dataset, its three task files and the four zero checkpoints."""
    root = tmp_path_factory.mktemp("inputs")
    data, bench = root / "data", root / "bench"
    world.build_dataset(WORLD, 20, str(data), seed=3)
    bench.mkdir()
    test = world.load_scenes(str(data / "test.jsonl"), WORLD.grid)
    for task in (1, 2, 3):
        records = world.build_benchmark(WORLD, test, task, Rng(task))
        world.write_benchmark(records, str(bench / f"task{task}.jsonl"))
    return {"data": str(data), "bench": str(bench), "test": test,
            "ckpts": {v: zero_checkpoint(v) for v in VARIANTS}}


class Boom(Exception):
    """The failure injected part-way through a write."""


def fail_call(monkeypatch, owner, name: str, call: int) -> None:
    """Make the ``call``-th call of ``owner.<name>`` raise ``Boom``; a failing
    ``json.dump`` first writes part of its document."""
    real = getattr(owner, name)
    calls = []

    def fake(*args, **kwargs):
        calls.append(None)
        if len(calls) < call:
            return real(*args, **kwargs)
        if (owner, name) == (json, "dump"):
            args[1].write('{"partial": ')
        raise Boom

    monkeypatch.setattr(owner, name, fake)


def _reports(inputs, d, path):
    reports = [detect.detect(inputs["ckpts"]["vae"], g, None) for g, _ in inputs["test"][:3]]
    detect.write_reports(reports, path)


# (target file, the function that fails, on which call, the writer)
WRITERS = {
    "build_dataset-split": ("train.jsonl", (world, "scene_to_record"), 2,
                            lambda inputs, d, p: world.build_dataset(WORLD, 10, d, seed=1)),
    "build_dataset-manifest": ("manifest.json", (json, "dump"), 1,
                               lambda inputs, d, p: world.build_dataset(WORLD, 10, d, seed=1)),
    "write_benchmark": ("task2.jsonl", (json, "dumps"), 2, lambda inputs, d, p: world.write_benchmark(
        world.build_benchmark(WORLD, inputs["test"], 2, Rng(0)), p)),
    "save_world": ("world.json", (json, "dump"), 1, lambda inputs, d, p: world.save_world(WORLD, p)),
    "write_reports": ("reports.jsonl", (json, "dumps"), 2, _reports),
    "run_benchmark": ("result.json", (json, "dump"), 1, lambda inputs, d, p: evaluate.run_benchmark(
        WORLD, inputs["data"], inputs["ckpts"], inputs["bench"], p)),
    "cli-history": ("ck.json.history.json", (json, "dump"), 1, lambda inputs, d, p: cli.main(
        ["train", "--variant", "vae", "--data", inputs["data"], "--out",
         os.path.join(d, "ck.json"), "--n-h", "4", "--batch", "8", "--max-epochs", "1"])),
    "save_checkpoint": ("ck.json", (json, "dumps"), 1,
                        lambda inputs, d, p: save_checkpoint(inputs["ckpts"]["vae"], p)),
}


class TestAtomicWriters:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failure_mid_write_keeps_the_old_file_and_leaves_no_temp(
        self, inputs, tmp_path, monkeypatch, writer
    ):
        name, (owner, fn), call, write = WRITERS[writer]
        path = tmp_path / name
        path.write_bytes(OLD)
        fail_call(monkeypatch, owner, fn, call)
        with pytest.raises(Boom):
            write(inputs, str(tmp_path), str(path))
        monkeypatch.undo()
        assert path.read_bytes() == OLD
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []

    def test_success_replaces_the_file_through_a_temp_in_its_directory(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_bytes(OLD)
        with atomic_write(str(path)) as f:
            f.write("new\n")
            assert f.name == f"{path}.{os.getpid()}.tmp"
            assert path.read_bytes() == OLD
        assert path.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]

    def test_failure_without_an_old_file_leaves_nothing(self, tmp_path):
        with pytest.raises(Boom):
            with atomic_write(str(tmp_path / "artifact.txt")) as f:
                f.write("half")
                raise Boom
        assert list(tmp_path.iterdir()) == []


def _read(reader: str, path: str):
    if reader == "load_scenes":
        return world.load_scenes(path, WORLD.grid)
    if reader == "read_benchmark":
        return world.read_benchmark(path, WORLD.grid)
    return detect.detect_batch(zero_checkpoint("uav_adnet"), path)


READERS = ("load_scenes", "read_benchmark", "detect_batch")
ANNOTATION = {"image_width": 1080, "image_height": 1080, "gps": [41.1, 29.0], "boxes": []}


def _first_record(inputs) -> dict:
    with open(os.path.join(inputs["bench"], "task2.jsonl"), encoding="utf-8") as f:
        return json.loads(f.readline())


def _write_lines(path: str, first: dict, second: bytes) -> None:
    with open(path, "wb") as f:
        f.write(json.dumps(first).encode("utf-8") + b"\n" + second + b"\n")


# A record whose category is written in Latin-1, not UTF-8.
NOT_UTF8 = '{"gps": [41.1, 29.0], "cells": [["c\xe4r", 1, 2]]}'.encode("latin-1")


class TestReadErrorsNameTheFileAndLine:
    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "bad",
        [b"{not json", b'{"gps": [41.1], "cells": []}',
         b'{"gps": [1%s, 29.0]}' % (b"0" * 400), b'{"gps": [1%s, 29.0]}' % (b"0" * 5000),
         NOT_UTF8],
        ids=["malformed-json", "short-gps", "gps-beyond-float-range", "int-beyond-digit-limit",
             "not-utf-8"],
    )
    def test_bad_second_line(self, inputs, tmp_path, reader, bad):
        path = str(tmp_path / "input.jsonl")
        _write_lines(path, _first_record(inputs), bad)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: line 2: "):
            _read(reader, path)

    @pytest.mark.parametrize("bad", [b"{not json", NOT_UTF8], ids=["malformed-json", "not-utf-8"])
    def test_bad_second_annotation_line(self, tmp_path, bad):
        path = str(tmp_path / "annotations.jsonl")
        _write_lines(path, ANNOTATION, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: line 2: "):
            list(read_annotations(path))

    def test_scene_index_is_the_record_position(self, inputs):
        records = world.read_benchmark(os.path.join(inputs["bench"], "task3.jsonl"), WORLD.grid)
        assert [case.scene_index for _, _, case in records] == list(range(len(records)))


# Any JSON value, NaN, infinities and integers beyond float range included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

# Key paths into a benchmark record; () swaps the whole record.
_FIELDS = [
    (), ("gps",), ("gps", 0), ("gps", 1), ("cells",), ("cells", 0), ("cells", 0, 0),
    ("cells", 0, 1), ("cells", 0, 2), ("task",), ("injected",), ("injected", 0),
    ("injected", 1), ("injected", 2),
]


class TestRecordFuzz:
    @settings(max_examples=200, deadline=None)
    @given(reader=st.sampled_from(READERS), field=st.sampled_from(_FIELDS), value=JSON_VALUES)
    def test_any_swapped_field_parses_or_names_the_line(self, inputs, tmp_path_factory,
                                                        reader, field, value):
        record = _first_record(inputs)
        if field:
            node = record
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = value
        else:
            record = value
        path = str(tmp_path_factory.mktemp("fuzz") / "input.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(_first_record(inputs)) + "\n" + json.dumps(record) + "\n")
        try:
            parsed = _read(reader, path)
        except ValueError as e:
            assert str(e).startswith(f"{path}: line 2: ")
        else:
            assert len(parsed) == 2
