"""In-memory span recorder, covpress instrumentation, and per-layer metrics.

A span records name, start, end, cause span, thread id and the thread CPU
time spent inside it.  Spans stay in memory while the workload runs and are
written out as JSON lines when it ends.  `instrument` wraps the public
functions of the layer modules wherever a covpress module holds them by
name, so `toppressure.min_subcover_value` and `solvers.min_subcover_value`
both record the same span.  The wrapped functions do not recurse, so the
busy time of a name is the plain sum of its span durations.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

LAYER_MODULES = ("experiments", "toppressure", "coveralg", "solvers", "dynsys", "measpressure")

DRIVER_SPAN = "bench.driver"
TASK_SPAN = "experiments.task"

# What a finished call adds to its span's `value` field.
_RESULT_VALUES = {
    "coveralg.orbit_join": lambda result: result.count,
    "solvers.min_subcover_value": lambda result: int(result.is_exact),
    "solvers.max_weight_independent_set": lambda result: int(result.is_exact),
}


class Recorder:
    """Collects spans from every thread; each thread keeps its own open stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1]["id"] if stack else None

    @contextmanager
    def span(self, name: str, cause: int | None = None):
        """Open a span; its cause is `cause`, else the thread's innermost span."""
        stack = self._stack()
        if cause is None and stack:
            cause = stack[-1]["id"]
        span = {
            "id": next(self._ids),
            "name": name,
            "cause": cause,
            "thread": threading.get_ident(),
            "start": time.perf_counter_ns(),
            "cpu": time.thread_time_ns(),
            "value": None,
        }
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter_ns()
            span["cpu"] = time.thread_time_ns() - span["cpu"]
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def read_spans(path) -> tuple[list[dict], dict[str, int]]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return records[:-1], records[-1]["counts"]


def _wrap_function(rec: Recorder, name: str, fn):
    value_of = _RESULT_VALUES.get(name)

    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            result = fn(*args, **kwargs)
            if value_of is not None:
                span["value"] = value_of(result)
            return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    """Generators get no span (their time interleaves with the caller's); the
    number of items they yield is counted instead."""

    def wrapper(*args, **kwargs):
        yielded = 0
        try:
            for item in fn(*args, **kwargs):
                yielded += 1
                yield item
        finally:
            rec.count(f"{name}_yields", yielded)

    return wrapper


def instrument(rec: Recorder) -> None:
    """Route every layer call in this process through `rec`.

    Meant for a worker process that exits after one traced sample, so
    nothing is ever restored.
    """
    from covpress import coveralg, experiments

    wrappers = {}
    for modname in LAYER_MODULES:
        mod = importlib.import_module(f"covpress.{modname}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrap = _wrap_generator if inspect.isgeneratorfunction(obj) else _wrap_function
            wrappers[obj] = wrap(rec, f"{modname}.{attr}", obj)

    for modname, mod in list(sys.modules.items()):
        if modname != "covpress" and not modname.startswith("covpress."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):  # dispatch tables such as RUNNERS
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrappers:
                        obj[key] = wrappers[val]

    as_labels = coveralg.SetFamily.as_labels

    def traced_as_labels(self):
        with rec.span("coveralg.as_labels") as span:
            span["value"] = int(self.labels is None)  # a rebuild from bitmasks
            return as_labels(self)

    coveralg.SetFamily.as_labels = traced_as_labels
    graph = coveralg.ClosenessGraph
    graph.__init__ = _wrap_function(rec, "coveralg.ClosenessGraph", graph.__init__)
    graph.class_adjacency = _wrap_function(
        rec, "coveralg.ClosenessGraph.class_adjacency", graph.class_adjacency
    )

    class TracedPool(experiments.ThreadPoolExecutor):
        """Runs each task inside a span caused by the submitting span."""

        def submit(self, fn, /, *args, **kwargs):
            cause = rec.current()

            def task():
                with rec.span(TASK_SPAN, cause=cause):
                    return fn(*args, **kwargs)

            return super().submit(task)

    experiments.ThreadPoolExecutor = TracedPool


# -- arithmetic over finished spans -------------------------------------------


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the part of [lo, hi] that the union of `intervals` covers."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    run_lo = run_hi = None
    for a, b in clipped:
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[dict]) -> dict[int, int]:
    """Per span: its duration minus the part of it that its child spans cover.

    Children are the spans it caused, in any thread, so a pool task counts
    against the driver span that submitted it even though it ran elsewhere.
    """
    children = collections.defaultdict(list)
    for s in spans:
        if s["cause"] is not None:
            children[s["cause"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered_ns(s["start"], s["end"], children[s["id"]])
        for s in spans
    }


def is_layer_span(name: str) -> bool:
    """Driver and pool-task spans only frame work; every other span is a layer."""
    return name not in (DRIVER_SPAN, TASK_SPAN) and not name.startswith("experiments.run_")


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced workload run (see README.md)."""
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy_s(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n]) / 1e9

    def value_sum(name):  # a call that raised has no value and adds 0
        return sum(s["value"] or 0 for s in by_name[name])

    def exact_ratio(name):
        calls = len(by_name[name])
        return value_sum(name) / calls if calls else 1.0

    (driver,) = by_name[DRIVER_SPAN]
    wall = driver["end"] - driver["start"]
    selfs = self_times(spans)
    layer_intervals = [(s["start"], s["end"]) for s in spans if is_layer_span(s["name"])]
    return {
        "coveralg.orbit_join_s": busy_s("coveralg.orbit_join"),
        "coveralg.orbit_join_calls": len(by_name["coveralg.orbit_join"]),
        "coveralg.orbit_join_members": value_sum("coveralg.orbit_join"),
        "coveralg.as_labels_rebuilds": value_sum("coveralg.as_labels"),
        "coveralg.as_labels_s": busy_s("coveralg.as_labels"),
        "coveralg.closeness_graph_s": busy_s(
            "coveralg.ClosenessGraph", "coveralg.ClosenessGraph.class_adjacency"
        ),
        "coveralg.membership_partition_s": busy_s("coveralg.membership_partition"),
        "dynsys.iter_box_maps_yields": counts.get("dynsys.iter_box_maps_yields", 0),
        "dynsys.birkhoff_field_s": busy_s("dynsys.birkhoff_field"),
        "dynsys.make_system_s": busy_s("dynsys.make_circle_doubling", "dynsys.make_disk_system"),
        "experiments.euclid_separated_count_s": busy_s("experiments.euclid_separated_count"),
        "experiments.task_wait_s": sum(
            (s["end"] - s["start"]) - s["cpu"] for s in by_name[TASK_SPAN]
        ) / 1e9,
        "experiments.rows_to_csv_s": busy_s("experiments.rows_to_csv"),
        "toppressure.pressure_quadruple_s": busy_s("toppressure.pressure_quadruple"),
        "toppressure.pressure_quadruple_calls": len(by_name["toppressure.pressure_quadruple"]),
        "toppressure.cover_pressure_value_s": busy_s("toppressure.cover_pressure_value"),
        "toppressure.self_s": sum(
            selfs[s["id"]] for s in spans if s["name"].startswith("toppressure.")
        ) / 1e9,
        "solvers.min_subcover_value_s": busy_s("solvers.min_subcover_value"),
        "solvers.min_subcover_value_calls": len(by_name["solvers.min_subcover_value"]),
        "solvers.min_subcover_value_exact_ratio": exact_ratio("solvers.min_subcover_value"),
        "solvers.max_weight_independent_set_s": busy_s("solvers.max_weight_independent_set"),
        "solvers.max_weight_independent_set_calls": len(
            by_name["solvers.max_weight_independent_set"]
        ),
        "solvers.max_weight_independent_set_exact_ratio": exact_ratio(
            "solvers.max_weight_independent_set"
        ),
        "measpressure.entropy_rate_s": busy_s("measpressure.entropy_rate"),
        "trace.covered_share": covered_ns(driver["start"], driver["end"], layer_intervals) / wall,
    }


def check_self_time() -> list[str]:
    """Self-time and coverage arithmetic on a synthetic two-thread span tree.

    Thread 1 runs the driver [0, 100] and a layer call [10, 40]; thread 2
    runs a pool task [20, 70] caused by the driver, holding a layer call
    [30, 50].  The driver's children cover [10, 70], so its self time is 40;
    the task's self time is 50 - 20 = 30.  Layer spans cover [10, 50].
    """

    def span(id_, name, cause, thread, start, end):
        return {"id": id_, "name": name, "cause": cause, "thread": thread,
                "start": start, "end": end, "cpu": end - start, "value": None}

    spans = [
        span(1, DRIVER_SPAN, None, 1, 0, 100),
        span(2, "coveralg.join", 1, 1, 10, 40),
        span(3, TASK_SPAN, 1, 2, 20, 70),
        span(4, "dynsys.birkhoff_field", 3, 2, 30, 50),
    ]
    expected = {1: 40, 2: 30, 3: 30, 4: 20}
    got = self_times(spans)
    failures = [f"self time of span {i}: {got[i]} != {want}" for i, want in expected.items()
                if got[i] != want]
    layers = [(s["start"], s["end"]) for s in spans if is_layer_span(s["name"])]
    if covered_ns(0, 100, layers) != 40:
        failures.append(f"layer coverage {covered_ns(0, 100, layers)} != 40")
    return failures
