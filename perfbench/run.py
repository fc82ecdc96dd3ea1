"""uavad benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload generate_detect --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. Set-up runs several times and its median is reported; the
workload then runs closed-loop for ``--seconds``. Intermediate files go to
``.perfbench_work/`` and are removed at exit; a traced run writes its spans
to ``.perfbench_out/spans-<workload>.csv``.

stdout: a detail line (every named metric with its unit and sample count,
workload properties, machine facts), then as the last line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
measured on a traced second half of the run, plus the tracing overhead
against the untraced first half.

Every workload reports the same end-to-end metrics; each fills them from its
own named metrics (see ``Workload.THROUGHPUT``, ``AUX_THROUGHPUT`` and ``CALL``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

import layers
import spans
from stats import low, median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package() -> bool:
    """Import uavad from this checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import uavad
    except ImportError as e:
        print(f"perfbench: cannot import uavad from {src}: {e}", file=sys.stderr)
        return False
    if not os.path.abspath(uavad.__file__).startswith(src + os.sep):
        print(f"perfbench: uavad was imported from {uavad.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def machine_facts() -> dict:
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy before 1.25 has no mode argument
        blas = {}
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def speed_probe(seconds: float = 0.25) -> float:
    """Passes per second of a fixed pure-Python loop.

    Not a metric of uavad: a reading of how fast this machine runs at the
    moment, taken before set-up and after the measurement. On shared
    machines it moves by tens of percent within minutes, and the workload
    metrics move with it.
    """
    passes = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        total = 0
        for i in range(10_000):
            total += i * i
        passes += 1
    return passes / (perf_counter() - t0)


def measure(workload, tally, seconds: float) -> None:
    """Iterate until ``seconds`` of wall time have passed; at least once."""
    deadline = perf_counter() + seconds
    while True:
        workload.iterate(tally)
        if perf_counter() >= deadline:
            return


def named_metrics(workload, tally, setups: list[float]) -> dict:
    def entry(value: float, unit: str, n: int, **extra) -> dict:
        return {"value": value, "unit": unit, "n": n, **extra}

    out = {"setup_s": entry(median(setups), "s", len(setups))}
    for name, unit in workload.MEDIANS.items():
        values = tally.samples.get(name)
        if values:
            out[name] = entry(median(values), unit, len(values))
            if name in (workload.THROUGHPUT, workload.AUX_THROUGHPUT):
                out[f"{name}.p10"] = entry(low(values), unit, len(values))
    values = tally.samples.get(workload.CALL)
    if values:
        out[f"{workload.CALL}.p50_ms"] = entry(median(values), "ms", len(values))
        for cap in (90, 99):
            pct, value, n = tail(values, cap)
            out[f"{workload.CALL}.p{cap}_ms"] = entry(value, "ms", n, percentile=pct)
    out["peak_rss_mb"] = entry(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    out["failed_ratio"] = entry(tally.failed / max(tally.attempted, 1), "ratio", tally.attempted,
                                failed=tally.failed)
    return out


# The end-to-end metrics, with units, that every workload reports. The time
# metrics are slow-side quantiles (p10 of per-iteration rates, p90 of call
# latency): a shared machine's speed has a floor with bursts above it, and
# the median follows the share of the run spent in bursts, while the slow
# side stays put. Train's rates are medians (``Workload.RATE_STAT``).
END_TO_END = {
    "setup_s": "s",
    "throughput": "items/s",
    "aux_throughput": "items/s",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(workload, named: dict) -> dict:
    """The end-to-end metrics, each filled from one of the workload's named metrics."""
    source = {
        "setup_s": "setup_s",
        "throughput": f"{workload.THROUGHPUT}{workload.RATE_STAT}",
        "aux_throughput": f"{workload.AUX_THROUGHPUT}{workload.RATE_STAT}",
        "call_tail_ms": f"{workload.CALL}.p90_ms",
        "peak_rss_mb": "peak_rss_mb",
    }
    return {
        slot: {"value": named[source[slot]]["value"], "unit": unit}
        for slot, unit in END_TO_END.items() if source[slot] in named
    }


def properties(tally) -> dict:
    return {name: median(values) for name, values in sorted(tally.props.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_package():
        return 2
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    probe_before = speed_probe()
    try:
        setups = workload.run_setups()
        workload.warm_up()
        tally = Tally()
        if args.trace == 0:
            measure(workload, tally, args.seconds)
            traced = None
        else:
            measure(workload, tally, args.seconds / 2)
            traced = Tally()
            rec = spans.Recorder()
            spans.patch_uavad(rec)
            workload.rec = rec
            try:
                with rec.recording():
                    measure(workload, traced, args.seconds / 2)
            finally:
                rec.restore()
                workload.rec = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    probe_after = speed_probe()

    named = named_metrics(workload, tally, setups)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_facts(), "speed_probe_per_s": [probe_before, probe_after]},
        "properties": properties(tally),
        "metrics": named,
    }
    attempted, failed = tally.attempted, tally.failed
    if traced is None:
        metrics = end_to_end(workload, named)
    else:
        base_rate = tally.items / tally.items_s if tally.items_s else 0.0
        traced_rate = traced.items / traced.items_s if traced.items_s else 0.0
        overhead = (base_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0
        metrics = layers.layer_metrics(spans.summarize(rec), overhead)
        detail["traced_metrics"] = named_metrics(workload, traced, setups)
        detail["spans"] = len(rec)
        detail["missing_trace_targets"] = rec.missing
        attempted += traced.attempted
        failed += traced.failed
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write_csv(os.path.join(out_dir, f"spans-{args.workload}.csv"))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
