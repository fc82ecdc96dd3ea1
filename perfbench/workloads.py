"""The two benchmark workloads: set-up, one measured iteration, and checks.

Every workload is single-process and closed-loop with one caller: the next
call starts when the previous one returns. Inputs come from the workload
seed through ``uavad.world``. The workloads call the package through its
module attributes (``adnet.train``, not a local alias), so that the traced
run's wrappers see every call.

Each timed operation is checked after its timer stops. A failed call or
check counts one failure and the run goes on.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import traceback
from time import perf_counter
from typing import Iterator

from uavad import adnet, detect, evaluate, world
from uavad.nn import Rng

THRESHOLD = 0.5
SETUP_MIN_S = 0.2  # set-up runs at least SETUP_REPEATS times, and until this has passed
SETUP_MAX_REPEATS = 200


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive(seed: int, *salt: int) -> int:
    """A seed for one input, fixed by the workload seed and the salt."""
    value = seed
    for s in salt:
        value = value * 1_000_003 + s
    return value & ((1 << 63) - 1)


class Tally:
    """Samples of one measured phase, plus attempted and failed operations."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.props: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.items = 0  # items of the workload's main throughput
        self.items_s = 0.0  # time spent on them

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def prop(self, name: str, value: float) -> None:
        self.props.setdefault(name, []).append(value)

    def throughput(self, name: str, items: int, seconds: float) -> None:
        self.add(name, items / seconds)
        self.items += items
        self.items_s += seconds

    @contextlib.contextmanager
    def op(self, what: str) -> Iterator[None]:
        """One attempted operation; an exception inside counts it as failed."""
        self.attempted += 1
        try:
            yield
        except Exception as e:  # noqa: BLE001 - the run records the failure and goes on
            self.fail(what, e)

    def fail(self, what: str, error: BaseException | str) -> None:
        self.failed += 1
        print(f"perfbench: {what} failed: {error}", file=sys.stderr)
        if isinstance(error, BaseException) and not isinstance(error, CheckFailed):
            traceback.print_exception(error, file=sys.stderr)


class Workload:
    """Base class: per-workload set-up, warm-up and one measured iteration."""

    name = ""
    # Named metrics reported as the median of their samples, with units.
    MEDIANS: dict[str, str] = {}
    # Latency samples (ms) of the workload's repeated call; reported as
    # <CALL>.p50_ms, <CALL>.p90_ms and <CALL>.p99_ms.
    CALL = ""
    # Which named metric fills each generic end-to-end slot, and the statistic
    # of the rates that fills it: ".p10", or "" for the median.
    THROUGHPUT = ""
    AUX_THROUGHPUT = ""
    RATE_STAT = ".p10"
    SETUP_REPEATS = 5

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.rec = None  # a spans.Recorder during the traced phase
        self.iteration = 0

    # The traced phase records spans only for the workload's own timed calls.
    def untraced(self):
        return self.rec.paused() if self.rec is not None else contextlib.nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        if self.rec is not None:
            self.rec.count(name, n)

    def run_setups(self) -> list[float]:
        times = []
        while len(times) < SETUP_MAX_REPEATS and (
            len(times) < self.SETUP_REPEATS or sum(times) < SETUP_MIN_S
        ):
            t0 = perf_counter()
            self.setup()
            times.append(perf_counter() - t0)
        return times

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work that lets first-call costs (BLAS start-up, page faults) pass."""

    def iterate(self, t: Tally) -> None:
        raise NotImplementedError

    def path(self, *parts: str) -> str:
        return os.path.join(self.work_dir, *parts)


def _make_tasks(w: world.WorldSpec, test: list, seed: int, out_dir: str) -> None:
    for task in (1, 2, 3):
        records = world.build_benchmark(w, test, task, Rng(derive(seed, task)))
        world.write_benchmark(records, os.path.join(out_dir, f"task{task}.jsonl"))


def _same_records(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        ga == gb and pa == pb and ca.task == cb.task and ca.injected == cb.injected
        for (ga, pa, ca), (gb, pb, cb) in zip(a, b)
    )


# ---------------------------------------------------------------------------
# generate_detect
# ---------------------------------------------------------------------------


def untrained_checkpoint() -> adnet.Checkpoint:
    """The untrained ``uav_adnet`` checkpoint of acceptance criterion 8."""
    config = adnet.ModelConfig("uav_adnet")
    return adnet.Checkpoint(config, adnet.GpsNormalization(41.1, 29.0),
                            adnet.init_params(config, 0).copy_values())


def _cells(report: detect.AnomalyReport) -> int:
    """A digest of the flagged and the hallucinated cells of a report.

    The run keeps a digest per batch-1 report, not the report, so that the
    objects it holds do not slow the garbage collector in the timed calls.
    """
    return hash((frozenset(report.flagged()),
                 frozenset((a.category, a.row, a.col) for a in report.hallucinated)))


class GenerateDetect(Workload):
    """Dataset generation, anomaly injection and detection on the fresh task
    files, with the untrained checkpoint of acceptance criterion 8."""

    name = "generate_detect"
    N_SCENES = 100  # per dataset; the test split (30%) feeds the three tasks
    MEDIANS = {
        "generate.scenes_per_s": "scenes/s",
        "inject.cases_per_s": "cases/s",
        "detect_batch.scenes_per_s": "scenes/s",
        "detect.calls_per_s": "calls/s",
    }
    CALL = "detect"
    THROUGHPUT = "generate.scenes_per_s"
    AUX_THROUGHPUT = "detect_batch.scenes_per_s"

    def setup(self) -> None:
        self.world = world.default_world()
        self.checkpoint = untrained_checkpoint()
        os.makedirs(self.path("data"), exist_ok=True)

    def warm_up(self) -> None:
        w = self.world
        rng = Rng(derive(self.seed, 0, 0))
        for wi in range(min(5, len(w.waypoints))):
            g, gps = world.sample_scene(w, wi, rng)
            detect.detect(self.checkpoint, g, gps, THRESHOLD)

    def iterate(self, t: Tally) -> None:
        tasks = self.generate_tasks(t)
        if tasks:
            self.detect_tasks(t, tasks)

    def generate_tasks(self, t: Tally) -> dict[str, list]:
        """Build a dataset and its task files; return the task records read back."""
        w = self.world
        data_seed = derive(self.seed, self.iteration)
        self.iteration += 1
        out = self.path("data")
        test = None
        with t.op("generate"):
            t0 = perf_counter()
            manifest = world.build_dataset(w, self.N_SCENES, out, data_seed)
            dt = perf_counter() - t0
            t.throughput("generate.scenes_per_s", self.N_SCENES, dt)
            with self.untraced():
                scenes = {split: world.load_scenes(os.path.join(out, f"{split}.jsonl"), w.grid)
                          for split in ("train", "val", "test")}
                for split, part in scenes.items():
                    expect(len(part) == manifest["splits"][split], f"{split} split size")
                    for g, gps in part:
                        wp = w.waypoints[world.nearest_waypoint(w, gps)]
                        expect(not world.audit_scene(wp, g), "generated scene breaks a rule")
                        t.prop("occupied_cells_per_scene", g.popcount())
            test = scenes["test"]
        if test is None:
            return {}
        tasks = {}
        cases = 0
        inject_s = 0.0
        for task in (1, 2, 3):
            path = os.path.join(out, f"task{task}.jsonl")
            with t.op(f"inject task {task}"):
                rng = Rng(derive(data_seed, task))
                t0 = perf_counter()
                records = world.build_benchmark(w, test, task, rng)
                world.write_benchmark(records, path)
                dt = perf_counter() - t0
                cases += len(records)
                inject_s += dt
                with self.untraced():
                    expect(len(records) > 0, f"task {task} has no cases")
                    back = world.read_benchmark(path, w.grid)
                    expect(_same_records(records, back), f"task {task} file does not round-trip")
                tasks[path] = back
        if inject_s > 0:
            t.add("inject.cases_per_s", cases / inject_s)
            t.prop("cases_per_iteration", cases)
        return tasks

    def detect_tasks(self, t: Tally, tasks: dict[str, list]) -> None:
        """Batch-1 detection per case, then batch detection and report files."""
        ckpt = self.checkpoint
        singles: dict[str, list] = {}
        latencies = []
        for path, records in tasks.items():
            out = singles[path] = []
            for g, gps, _ in records:
                out.append(None)  # stays None when the call fails
                with t.op("detect"):
                    t0 = perf_counter()
                    report = detect.detect(ckpt, g, gps, THRESHOLD)
                    latencies.append(perf_counter() - t0)
                    out[-1] = _cells(report)
        for seconds in latencies:
            t.add("detect", seconds * 1e3)
        if latencies:
            t.add("detect.calls_per_s", len(latencies) / sum(latencies))

        scenes = 0
        batch_s = 0.0
        out_path = self.path("reports.jsonl")
        for path, records in tasks.items():
            with t.op("detect_batch"):
                t0 = perf_counter()
                reports = detect.detect_batch(ckpt, path, THRESHOLD)
                detect.write_reports(reports, out_path)
                dt = perf_counter() - t0
                scenes += len(reports)
                batch_s += dt
                mismatched = sum(len(r.anomalies) + len(r.hallucinated) for r in reports)
                self.count("reports_written", len(reports))
                self.count("mismatch_cells", mismatched)
                self.count("mismatch_scenes", len(reports))
                t.prop("mismatch_cells_per_scene", mismatched / max(len(reports), 1))
                with self.untraced():
                    with open(out_path, encoding="utf-8") as f:
                        lines = sum(1 for _ in f)
                    expect(len(reports) == len(records) == lines, "one report line per scene")
                # Each batch-1 report was counted as its own operation above;
                # a disagreement with the batch report fails that operation.
                for line, (single, batch) in enumerate(zip(singles[path], reports), start=1):
                    if single is not None and single != _cells(batch):
                        t.fail("detect", f"{os.path.basename(path)} line {line}: "
                                         "detect and detect_batch flag different cells")
        if batch_s > 0:
            t.throughput("detect_batch.scenes_per_s", scenes, batch_s)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train(Workload):
    """All four variants on a fixed schedule, checkpoint I/O, then evaluation."""

    name = "train"
    N_SCENES = 400  # 240 train / 40 val / 120 test rows
    EPOCHS = 5  # patience = max epochs, so every variant runs exactly this many
    MEDIANS = {
        "train.rows_per_s": "rows/s",
        "train.val_loss": "loss",
        "ckpt.save_s": "s",
        "ckpt.load_s": "s",
        "eval.scenes_per_s": "scenes/s",
    }
    CALL = "ckpt.roundtrip"
    THROUGHPUT = "train.rows_per_s"
    AUX_THROUGHPUT = "eval.scenes_per_s"
    RATE_STAT = ""  # 7-9 iterations a run: its p10 would be the slowest one
    SETUP_REPEATS = 3  # each set-up generates 400 scenes (~2.7 s)

    def setup(self) -> None:
        self.world = w = world.default_world()
        data = self.path("data")
        world.build_dataset(w, self.N_SCENES, data, self.seed)
        test = world.load_scenes(os.path.join(data, "test.jsonl"), w.grid)
        _make_tasks(w, test, self.seed, data)
        self.train_set = adnet.Dataset.from_scenes(
            world.load_scenes(os.path.join(data, "train.jsonl"), w.grid))
        self.val_set = adnet.Dataset.from_scenes(
            world.load_scenes(os.path.join(data, "val.jsonl"), w.grid))
        self.best_val: dict[str, float] = {}

    def warm_up(self) -> None:
        tiny = adnet.Dataset(self.train_set.x[:64], self.train_set.gps[:64])
        adnet.train(adnet.ModelConfig("uav_adnet"), tiny, tiny,
                    adnet.TrainConfig(max_epochs=1, patience=1))

    def iterate(self, t: Tally) -> None:
        rows_per_epoch = self.train_set.n + self.val_set.n
        tc = adnet.TrainConfig(max_epochs=self.EPOCHS, patience=self.EPOCHS, seed=self.seed)
        loaded = {}
        rows = 0
        train_s = 0.0
        for variant in adnet.VARIANTS:
            checkpoint = None
            with t.op(f"train {variant}"):
                t0 = perf_counter()
                checkpoint, history = adnet.train(
                    adnet.ModelConfig(variant), self.train_set, self.val_set, tc)
                dt = perf_counter() - t0
                rows += len(history) * rows_per_epoch
                train_s += dt
                best = checkpoint.training_meta["best_val_loss"]
                if variant == "uav_adnet":
                    t.add("train.val_loss", best)
                t.prop("steps_per_variant", len(history) * math.ceil(self.train_set.n / tc.batch_size))
                expect(len(history) == self.EPOCHS, f"{variant}: {len(history)} epochs run")
                losses = [v for h in history for v in (h.train_loss, h.val_loss, h.val_mse)]
                expect(all(math.isfinite(v) for v in losses), f"{variant}: non-finite history")
                expect(history[-1].val_loss < history[0].val_loss,
                       f"{variant}: validation loss did not fall")
                expect(self.best_val.setdefault(variant, best) == best,
                       f"{variant}: same seed gave another validation loss")
            if checkpoint is None:
                continue
            path = self.path(f"{variant}.json")
            with t.op(f"checkpoint {variant}"):
                t0 = perf_counter()
                adnet.save_checkpoint(checkpoint, path)
                t1 = perf_counter()
                back = adnet.load_checkpoint(path)
                t2 = perf_counter()
                t.add("ckpt.save_s", t1 - t0)
                t.add("ckpt.load_s", t2 - t1)
                t.add("ckpt.roundtrip", (t2 - t0) * 1e3)
                size = os.path.getsize(path)
                self.count("checkpoint.bytes", size)
                self.count("checkpoint.files")
                t.prop("checkpoint_bytes", size)
                expect(back.config == checkpoint.config, f"{variant}: config changed")
                expect(back.gps_normalization == checkpoint.gps_normalization,
                       f"{variant}: gps normalization changed")
                expect(back.training_meta == checkpoint.training_meta, f"{variant}: meta changed")
                expect(set(back.values) == set(checkpoint.values), f"{variant}: parameter names")
                for name, value in checkpoint.values.items():
                    got = back.values[name]
                    expect(got.shape == value.shape and got.tobytes() == value.tobytes(),
                           f"{variant}: parameter {name} is not bit-identical after load")
                loaded[variant] = back
        if train_s > 0:
            t.throughput("train.rows_per_s", rows, train_s)
            t.prop("rows_per_epoch", rows_per_epoch)
        data = self.path("data")
        with t.op("evaluate"):
            t0 = perf_counter()
            result = evaluate.run_benchmark(self.world, data, loaded, data, threshold=THRESHOLD)
            dt = perf_counter() - t0
            scored = len(adnet.VARIANTS) * sum(result["counts"].values())
            t.add("eval.scenes_per_s", scored / dt)
            t.prop("eval_scenes", scored)
            expect(set(result["variants"]) == set(adnet.VARIANTS), "evaluated variants")
            for variant, entry in result["variants"].items():
                expect(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in entry.values()),
                       f"{variant}: evaluation metric outside [0, 1]")


WORKLOADS = {cls.name: cls for cls in (GenerateDetect, Train)}
