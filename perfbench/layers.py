"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

The layers are the package modules ``grid``, ``nn``, ``adnet``, ``world``,
``detect`` and ``evaluate``. ``cli`` is not measured: it parses flags and
calls the functions the workloads call directly. A metric whose layer a
workload bypasses reads 0 on that workload.
"""

from __future__ import annotations

from typing import Callable

from spans import KERNELS, NameStats, Summary

US = 1e-3  # ns -> us
MS = 1e-6  # ns -> ms

RNG_METHODS = ("uniform", "gaussian", "randint", "permutation", "sample_without_replacement")


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _mean_total(s: NameStats, scale: float) -> float:
    return _per(s.total_ns, s.calls, scale)


def _mean_self(s: NameStats, scale: float) -> float:
    return _per(s.self_ns, s.calls, scale)


class _View:
    """Derived counts shared by several metrics."""

    def __init__(self, s: Summary) -> None:
        self.s = s
        self.steps = s.get("nn.adam_step", "adnet.train").calls
        self.scenes = s.get("world.sample_scene").calls
        self.epochs = s.get("nn.Rng.permutation", "adnet.train").calls

    def per_step(self, name: str, ctx: str | None = "adnet.train", own: bool = False) -> float:
        st = self.s.get(name, ctx)
        return _per(st.self_ns if own else st.total_ns, self.steps, MS)

    def per_item(self, name: str, scale: float) -> float:
        return _per(self.s.get(name).total_ns, self.s.items.get(name, 0), scale)

    def per_count(self, num: str, den: str) -> float:
        return _per(self.s.counts.get(num, 0), self.s.counts.get(den, 0))


# (name, unit, better, end-to-end metric it should move and on which workload, value)
Metric = tuple[str, str, str, str, Callable[[_View], float]]

_GEN = "generate.scenes_per_s on generate_detect"
_INJ = "inject.cases_per_s on generate_detect"
_TRAIN = "train.rows_per_s on train"
_EVAL = "eval.scenes_per_s on train"
_DET = "detect.p50_ms and detect.p90_ms, detect_batch.scenes_per_s on generate_detect"

METRICS: list[Metric] = [
    # world
    ("world.sample_scene.self_us", "us", "lower", _GEN,
     lambda v: _mean_self(v.s.get("world.sample_scene"), US)),
    ("world.build_dataset.self_ms", "ms", "lower", _GEN,
     lambda v: _mean_self(v.s.get("world.build_dataset"), MS)),
    ("world.inject.us_per_case", "us", "lower", _INJ,
     lambda v: _per(sum(v.s.get(f"world.inject_task{k}").total_ns for k in (1, 2, 3)),
                    sum(v.s.get(f"world.inject_task{k}").calls for k in (1, 2, 3)), US)),
    ("world.nearest_waypoint.us_per_case", "us", "lower", _INJ,
     lambda v: _mean_total(v.s.get("world.nearest_waypoint"), US)),
    ("world.write_benchmark.self_ms", "ms", "lower", _INJ,
     lambda v: _mean_self(v.s.get("world.write_benchmark"), MS)),
    # nn: the random stream
    ("nn.Rng.uniform.calls_per_scene", "count", "lower", _GEN,
     lambda v: _per(v.s.get("nn.Rng.uniform", "world.sample_scene").calls, v.scenes)),
    ("nn.Rng.self_us_per_scene", "us", "lower", _GEN,
     lambda v: _per(sum(v.s.get(f"nn.Rng.{m}", "world.sample_scene").self_ns for m in RNG_METHODS),
                    v.scenes, US)),
    ("nn.Rng.permutation.ms_per_epoch", "ms", "lower", _TRAIN,
     lambda v: _per(v.s.get("nn.Rng.permutation", "adnet.train").total_ns, v.epochs, MS)),
    # grid
    ("grid.scene_to_record.us_per_scene", "us", "lower", f"{_GEN}; {_INJ}",
     lambda v: _mean_total(v.s.get("grid.scene_to_record"), US)),
    ("grid.read_jsonl.us_per_scene", "us", "lower", f"{_DET}; {_EVAL}",
     lambda v: v.per_item("grid.read_jsonl", US)),
    ("grid.record_to_scene.us_per_scene", "us", "lower", f"{_DET}; {_EVAL}",
     lambda v: _mean_total(v.s.get("grid.record_to_scene"), US)),
    # nn: kernels, per training step (per-epoch validation excluded)
    *[(f"nn.{k}.ms_per_step", "ms", "lower", _TRAIN,
       (lambda name: lambda v: v.per_step(name))(f"nn.{k}")) for k in KERNELS],
    # adnet
    ("adnet.loss.ms_per_step", "ms", "lower", _TRAIN, lambda v: v.per_step("adnet.loss")),
    ("adnet.backward.self_ms_per_step", "ms", "lower", _TRAIN,
     lambda v: v.per_step("adnet.backward", own=True)),
    ("adnet.train.self_ms_per_step", "ms", "lower", _TRAIN,
     lambda v: v.per_step("adnet.train", ctx=None, own=True)),
    ("adnet.train.steps", "count", "higher", _TRAIN, lambda v: float(v.steps)),
    ("adnet.validation.ms_per_epoch", "ms", "lower", _TRAIN,
     lambda v: _mean_total(v.s.get("adnet.validation"), MS)),
    ("adnet.save_checkpoint.ms", "ms", "lower", "ckpt.save_s on train",
     lambda v: _mean_total(v.s.get("adnet.save_checkpoint"), MS)),
    ("adnet.load_checkpoint.ms", "ms", "lower", "ckpt.load_s on train",
     lambda v: _mean_total(v.s.get("adnet.load_checkpoint"), MS)),
    ("adnet.checkpoint.bytes", "bytes", "lower", "ckpt.save_s and ckpt.load_s on train",
     lambda v: v.per_count("checkpoint.bytes", "checkpoint.files")),
    ("adnet.Checkpoint.reconstruct.us_per_call", "us", "lower", _DET,
     lambda v: _mean_total(v.s.get("adnet.Checkpoint.reconstruct"), US)),
    ("adnet.forward.us_per_call", "us", "lower",
     f"{_DET}; {_EVAL}; {_TRAIN} (validation)",
     lambda v: _mean_total(v.s.get("adnet.forward"), US)),
    ("adnet.forward.calls_per_scene", "count", "lower", "detect_batch.scenes_per_s on generate_detect",
     lambda v: _per(v.s.get("adnet.forward", "detect.detect_batch").calls,
                    v.s.items.get("detect.detect_batch", 0))),
    # detect
    ("detect.detect.self_us", "us", "lower", _DET,
     lambda v: _mean_self(v.s.get("detect.detect"), US)),
    ("detect.detect_batch.self_ms", "ms", "lower", "detect_batch.scenes_per_s on generate_detect",
     lambda v: _mean_self(v.s.get("detect.detect_batch"), MS)),
    ("detect.write_reports.us_per_scene", "us", "lower",
     "detect_batch.scenes_per_s on generate_detect",
     lambda v: _per(v.s.get("detect.write_reports").total_ns, v.s.counts.get("reports_written", 0), US)),
    ("detect.mismatch_cells_per_scene", "count", "lower",
     "a property of the workload: ~1 300 on generate_detect",
     lambda v: v.per_count("mismatch_cells", "mismatch_scenes")),
    # evaluate
    ("evaluate.reconstruction_metrics.ms", "ms", "lower", _EVAL,
     lambda v: _mean_total(v.s.get("evaluate.reconstruction_metrics"), MS)),
    ("evaluate.task_accuracy.ms", "ms", "lower", _EVAL,
     lambda v: _mean_total(v.s.get("evaluate.task_accuracy"), MS)),
    ("evaluate.mse_on_scenes.ms", "ms", "lower", _EVAL,
     lambda v: _mean_total(v.s.get("evaluate.mse_on_scenes"), MS)),
    ("world.load_scenes.ms_per_scene", "ms", "lower", _EVAL,
     lambda v: v.per_item("world.load_scenes", MS)),
    ("world.read_benchmark.ms_per_case", "ms", "lower", _EVAL,
     lambda v: v.per_item("world.read_benchmark", MS)),
]

OVERHEAD = ("trace.overhead_pct", "%", "lower",
            "none: the traced phase's loss of main throughput against the untraced phase of the same run")


def layer_metrics(summary: Summary, overhead_pct: float) -> dict[str, dict]:
    view = _View(summary)
    out = {name: {"value": float(fn(view)), "unit": unit} for name, unit, _, _, fn in METRICS}
    out[OVERHEAD[0]] = {"value": float(overhead_pct), "unit": OVERHEAD[1]}
    return out


def table() -> list[dict]:
    """The per-layer metric list with the end-to-end metric each should move."""
    rows = [{"name": n, "unit": u, "better": b, "moves": m} for n, u, b, m, _ in METRICS]
    rows.append(dict(zip(("name", "unit", "better", "moves"), OVERHEAD)))
    return rows
