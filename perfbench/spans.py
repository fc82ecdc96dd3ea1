"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``uavad`` modules in the
namespace each caller looks them up in (for example ``uavad.adnet.sigmoid_forward``,
which ``adnet._forward_cached`` calls, rather than ``uavad.nn.sigmoid_forward``),
records one span per call and restores the originals on exit. A span is
(name, start, end, parent). Spans stay in memory, in flat arrays, until the
run ends; ``write_csv`` then writes them out.

Wrappers record only while ``Recorder.active`` is true, so the benchmark's
own correctness checks, which call the same functions, add no spans.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Iterator

# Spans that start a context: every span below one of these (up to the next
# one) is attributed to it, so that for example kernel time inside training
# steps is told apart from kernel time inside per-epoch validation.
CONTEXTS = ("adnet.train", "adnet.validation", "detect.detect_batch", "world.sample_scene")


class Recorder:
    """In-memory span store plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.items: dict[str, int] = {}  # per span name: list items returned or yielded
        self.counts: dict[str, float] = {}  # counts the workload adds while active
        self.missing: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: float = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count_items: bool = False) -> Callable:
        """A function that records a span around each call of ``fn``.

        With ``count_items`` the length of the returned list is added to
        ``items[name]``, except for a call nested directly in a span of the
        same name (a recursive call returns the same list).
        """
        nid = self._id(name)
        ids, par, st, en, stack, items = (
            self.name_id, self.parent, self.start, self.end, self._stack, self.items)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(st)
            p = stack[-1] if stack else -1
            ids.append(nid)
            par.append(p)
            en.append(0)
            stack.append(i)
            st.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                en[i] = perf_counter_ns()
                stack.pop()
            if count_items and (p < 0 or ids[p] != nid):
                items[name] = items.get(name, 0) + len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Like ``wrap`` for a generator function: one span per ``next()``."""
        nid = self._id(name)
        ids, par, st, en, stack, items = (
            self.name_id, self.parent, self.start, self.end, self._stack, self.items)
        rec = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = -1
                if rec.active:
                    i = len(st)
                    ids.append(nid)
                    par.append(stack[-1] if stack else -1)
                    en.append(0)
                    stack.append(i)
                    st.append(perf_counter_ns())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if i >= 0:
                        en[i] = perf_counter_ns()
                        stack.pop()
                if i >= 0:
                    items[name] = items.get(name, 0) + 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, *, generator: bool = False,
              count_items: bool = False) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a wrapper.

        A target that does not exist is skipped and listed in ``missing``;
        its metrics then read 0.
        """
        is_map = isinstance(owner, dict)
        original = owner.get(attr) if is_map else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        wrapped = (self.wrap_generator(name, original) if generator
                   else self.wrap(name, original, count_items))
        if is_map:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original, is_map))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, is_map = self._patched.pop()
            if is_map:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    @contextmanager
    def recording(self) -> Iterator["Recorder"]:
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- output -----------------------------------------------------------

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{names[self.name_id[i]]},{self.start[i]},{self.end[i]}\n")


def patch_uavad(rec: Recorder) -> None:
    """Wrap every traced public function of the six measured modules."""
    from uavad import adnet, detect, evaluate, grid, nn, world

    # world: scene sampling, dataset and task files.
    for attr in ("sample_scene", "sample_dataset", "build_dataset", "nearest_waypoint",
                 "build_benchmark", "write_benchmark"):
        rec.patch(world, attr, f"world.{attr}")
    for task in (1, 2, 3):
        # build_benchmark reaches the injectors through this table.
        rec.patch(world._INJECTORS, task, f"world.inject_task{task}")
    for mod in (world, evaluate):
        rec.patch(mod, "load_scenes", "world.load_scenes", count_items=True)
        rec.patch(mod, "read_benchmark", "world.read_benchmark", count_items=True)

    # nn: the random stream (methods reached through self) and the kernels,
    # which adnet imports into its own namespace.
    for attr in ("uniform", "gaussian", "randint", "permutation", "sample_without_replacement"):
        rec.patch(nn.Rng, attr, f"nn.Rng.{attr}")
    for attr in KERNELS:
        rec.patch(adnet, attr, f"nn.{attr}")

    # grid: record encoding and decoding where world and detect call them.
    rec.patch(world, "scene_to_record", "grid.scene_to_record")
    for mod in (world, detect):
        rec.patch(mod, "record_to_scene", "grid.record_to_scene")
        rec.patch(mod, "read_jsonl", "grid.read_jsonl", generator=True)

    # adnet: training, inference and checkpoints.
    for attr in ("train", "loss", "backward", "save_checkpoint", "load_checkpoint"):
        rec.patch(adnet, attr, f"adnet.{attr}")
    rec.patch(adnet, "_validation_stats", "adnet.validation")
    rec.patch(adnet, "_forward_cached", "adnet._forward_cached")
    for mod in (adnet, evaluate):
        rec.patch(mod, "forward", "adnet.forward")
    rec.patch(adnet.Checkpoint, "reconstruct", "adnet.Checkpoint.reconstruct")

    # detect and evaluate.
    rec.patch(detect, "detect", "detect.detect")
    rec.patch(detect, "detect_batch", "detect.detect_batch", count_items=True)
    rec.patch(detect, "write_reports", "detect.write_reports")
    for attr in ("reconstruction_metrics", "task_accuracy", "mse_on_scenes", "run_benchmark"):
        rec.patch(evaluate, attr, f"evaluate.{attr}")


KERNELS = (
    "dense_forward", "relu_forward", "concat_forward", "reparameterize_forward",
    "conv1x1_forward", "sigmoid_forward", "dense_backward", "conv1x1_backward",
    "relu_backward", "reparameterize_backward", "adam_step",
)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other (they do not in single-threaded code,
    but the arithmetic does not assume it): the covered part is the union of
    the children's intervals, clipped to the parent's.
    """
    n = len(start)
    children: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0
        cur_lo = cur_hi = None
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


@dataclass
class NameStats:
    calls: int = 0  # outermost calls: a span inside a span of its own name is not counted
    total_ns: int = 0  # inclusive time of the outermost calls
    self_ns: int = 0  # self time of every span of the name


@dataclass
class Summary:
    by_context: dict[tuple[str, str | None], NameStats] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def get(self, name: str, context: str | None = "*") -> NameStats:
        """Stats of one span name, in one context or ("*") summed over all."""
        if context != "*":
            return self.by_context.get((name, context), NameStats())
        agg = NameStats()
        for (n, _), s in self.by_context.items():
            if n == name:
                agg.calls += s.calls
                agg.total_ns += s.total_ns
                agg.self_ns += s.self_ns
        return agg


def summarize(rec: Recorder) -> Summary:
    """Per (name, context) call counts, inclusive and self time."""
    names = rec.names
    nid, parent, start, end = rec.name_id, rec.parent, rec.start, rec.end
    selfs = self_times(start, end, parent)
    context_ids = {rec._name_ids[c] for c in CONTEXTS if c in rec._name_ids}
    ctx: list[int] = []
    summary = Summary(items=dict(rec.items), counts=dict(rec.counts))
    for i in range(len(start)):
        p = parent[i]
        me = nid[i]
        ctx.append(me if me in context_ids else (ctx[p] if p >= 0 else -1))
        c = ctx[p] if p >= 0 else -1  # a context span belongs to its enclosing one
        key = (names[me], names[c] if c >= 0 else None)
        s = summary.by_context.setdefault(key, NameStats())
        s.self_ns += selfs[i]
        a = p
        while a >= 0 and nid[a] != me:
            a = parent[a]
        if a < 0:
            s.calls += 1
            s.total_ns += end[i] - start[i]
    return summary
