"""Tests of the benchmark's own arithmetic and fixtures.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import low, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 36, 999, 1000, 1001, 1999])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    pct, value, count = tail(values)
    beyond = sum(v > value for v in values)
    assert count == n
    assert beyond >= 10
    assert pct <= 99.0
    if pct < 99.0:
        assert beyond == 10  # one rank higher would leave nine beyond
        assert pct == pytest.approx(100 * (n - 10) / n)
    else:
        assert n - beyond == math.ceil(0.99 * n)  # nearest-rank p99


def test_tail_is_p99_with_enough_samples():
    pct, value, _ = tail([float(v) for v in range(1, 1001)])
    assert (pct, value) == (99.0, 990.0)
    pct, value, _ = tail([float(v) for v in range(1, 2000)])
    assert (pct, value) == (99.0, 1980.0)


def test_tail_cap_limits_the_percentile():
    values = [float(v) for v in range(1, 1001)]
    assert tail(values, cap=90.0) == (90.0, 900.0, 1000)
    assert tail(values[:50], cap=90.0) == (80.0, 40.0, 50)  # p90 would leave five beyond


def test_low_is_nearest_rank_p10():
    assert low([4.0, 1.0, 3.0, 2.0]) == 1.0  # fewer than ten: the smallest
    assert low([float(v) for v in range(1, 13)]) == 2.0
    assert low([float(v) for v in range(1, 151)]) == 15.0


def test_tail_falls_back_to_median_below_twenty_samples():
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)
    assert tail([float(v) for v in range(19)]) == (50.0, 9.0, 19)


# ---------------------------------------------------------------------------
# Self time on nested spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_child_intervals():
    #        0 [0, 100]
    #        ├─ 1 [10, 30]
    #        └─ 2 [40, 70]
    #           └─ 3 [45, 50]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [50, 20, 25, 5]


def test_self_time_counts_overlapping_children_once():
    start = [0, 10, 20, 90]
    end = [100, 40, 50, 120]  # the last child runs past its parent's end
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 100 - 40 - 10


def test_recorder_nests_spans_and_restores_targets():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) + mod.inner(x)
    original_inner = mod.inner
    rec = spans.Recorder()
    rec.patch(mod, "inner", "m.inner")
    rec.patch(mod, "outer", "m.outer")
    with rec.recording():
        assert mod.outer(1) == 4
    mod.inner(5)  # not recording: no span
    rec.restore()
    assert mod.inner is original_inner
    assert len(rec) == 3

    s = spans.summarize(rec)
    outer, inner = s.get("m.outer"), s.get("m.inner")
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_ns + inner.total_ns == outer.total_ns
    assert inner.self_ns == inner.total_ns


def test_recorder_counts_generator_items_and_recursion_once():
    def gen(n):
        yield from range(n)

    mod = types.SimpleNamespace(gen=gen)
    mod.rec_list = lambda n: mod.rec_list(n - 1) if n > 1 else [0, 1, 2]

    rec = spans.Recorder()
    rec.patch(mod, "gen", "m.gen", generator=True)
    rec.patch(mod, "rec_list", "m.rec_list", count_items=True)
    with rec.recording():
        assert list(mod.gen(4)) == [0, 1, 2, 3]
        assert mod.rec_list(3) == [0, 1, 2]
    rec.restore()
    s = spans.summarize(rec)
    assert s.items == {"m.gen": 4, "m.rec_list": 3}
    assert s.get("m.gen").calls == 5  # four items, then the exhausted next()
    assert s.get("m.rec_list").calls == 1  # the nested recursive calls are not counted again


def test_every_traced_target_exists():
    rec = spans.Recorder()
    spans.patch_uavad(rec)
    rec.restore()
    assert rec.missing == []


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    per_layer = [{k: row[k] for k in ("name", "unit", "better")} for row in layers.table()]
    assert bench["per_layer"] == per_layer
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
