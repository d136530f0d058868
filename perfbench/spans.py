"""Span tracing installed from outside the program under test.

`Tracer.install` replaces public functions of the `lapsens` modules with
wrappers that record one span per call: a name, start and end times, the
span that was open when the call began (its parent) and the benchmark
operation it belongs to. Modules import each other's functions by name
(`sim` calls its own binding of `critical_search`), so each wrapper is put on
every module attribute that refers to the original function, which is the
name the calling module resolves.

Parent tracking is kept per thread. Work that the CLI hands to its thread
pool inherits the span that submitted it, through a wrapped executor. Spans
are kept in compact per-thread arrays in memory and written out when the
run ends. Counters that need a call's arguments or result (matrix cells,
critical-search iterations, certifications granted, simulation steps) are
taken in the same wrappers.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name). The per-number helpers of `io`
# (encode_number, decode_number, format_number) are left out: they run once
# per printed number and their spans would outweigh the work they time.
TARGETS = [
    ("lapsens._solver", "linear_sum_assignment", "solver.lap"),
    ("lapsens._solver", "solve_dense", "solver.solve_dense"),
    ("lapsens._solver", "flip_cost", "solver.flip_cost"),
    ("lapsens._solver", "sens_dense", "solver.sens_dense"),
    ("lapsens._solver", "canonical_assignment", "solver.canonical_assignment"),
    ("lapsens.core", "solve_lap", "core.solve_lap"),
    ("lapsens.core", "uniqueness_check", "core.uniqueness_check"),
    ("lapsens.core", "constrained_solve", "core.constrained_solve"),
    ("lapsens.core", "assignment_cost", "core.assignment_cost"),
    ("lapsens.core", "brute_force_solve", "core.brute_force_solve"),
    ("lapsens.perturb", "elementwise_sensitivities", "perturb.elementwise_sensitivities"),
    ("lapsens.perturb", "divided_bound", "perturb.divided_bound"),
    ("lapsens.perturb", "halfspace_intervals", "perturb.halfspace_intervals"),
    ("lapsens.perturb", "verify_allowable", "perturb.verify_allowable"),
    ("lapsens.perturb", "default_stop_tol", "perturb.default_stop_tol"),
    ("lapsens.perturb", "critical_search", "perturb.critical_search"),
    ("lapsens.perturb", "is_critical", "perturb.is_critical"),
    ("lapsens.perturb", "certify_optimal", "perturb.certify_optimal"),
    ("lapsens.sim", "exact_distances", "sim.exact_distances"),
    ("lapsens.sim", "measure_weights", "sim.measure_weights"),
    ("lapsens.sim", "step_dynamics", "sim.step_dynamics"),
    ("lapsens.sim", "run_simulation", "sim.run_simulation"),
    ("lapsens.sim", "summarize", "sim.summarize"),
    ("lapsens.io", "parse_matrix", "io.parse_matrix"),
    ("lapsens.io", "format_matrix", "io.format_matrix"),
    ("lapsens.io", "parse_perturbation", "io.parse_perturbation"),
    ("lapsens.io", "parse_error_bounds", "io.parse_error_bounds"),
    ("lapsens.io", "format_perturbation", "io.format_perturbation"),
    ("lapsens.io", "parse_scenario", "io.parse_scenario"),
    ("lapsens.io", "format_scenario", "io.format_scenario"),
    ("lapsens.io", "analyze", "io.analyze"),
    ("lapsens.io", "report_to_json", "io.report_to_json"),
    ("lapsens.io", "report_from_json", "io.report_from_json"),
    ("lapsens.io", "simlog_records", "io.simlog_records"),
    ("lapsens.cli", "build_parser", "cli.build_parser"),
    ("lapsens.cli", "main", "cli.main"),
]

MODULES = [
    "lapsens",
    "lapsens._solver",
    "lapsens.core",
    "lapsens.perturb",
    "lapsens.sim",
    "lapsens.io",
    "lapsens.cli",
]


def _count_cells(counters, args, result):
    shape = np.shape(args[0])
    counters["solver.lap_cells"] += shape[0] * shape[1]


def _count_iterations(counters, args, result):
    counters["perturb.critical_iterations"] += result.iterations


def _count_certified(counters, args, result):
    counters["perturb.certified"] += bool(result)


def _count_steps(counters, args, result):
    counters["sim.steps"] += len(result.steps)


COUNTERS = {
    "solver.lap": _count_cells,
    "perturb.critical_search": _count_iterations,
    "perturb.certify_optimal": _count_certified,
    "sim.run_simulation": _count_steps,
}


class _ThreadBuffer:
    """Spans and counters recorded by one thread."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()


class Tracer:
    """Records spans and counters; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A function that calls `fn` inside a span called `name`."""
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        next_id = self._next_id

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            sid = next(next_id)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.parents.append(parent)
                buf.ops.append(self.op)
                buf.starts.append(start)
                buf.ends.append(end)
            if count is not None:
                count(buf.counters, args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Put wrappers on every module binding of every target function."""
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        cli = importlib.import_module("lapsens.cli")
        self._patches.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._executor_class()

    def uninstall(self) -> None:
        """Restore every binding that `install` replaced."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _executor_class(self):
        tracer = self

        def in_parent(parent, fn, *args, **kwargs):
            stack = tracer._buffer().stack
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._buffer().stack
                parent = stack[-1] if stack else -1
                return super().submit(in_parent, parent, fn, *args, **kwargs)

        return TracedExecutor

    def counters(self) -> Counter:
        return sum((buf.counters for buf in self._buffers), Counter())

    def spans(self) -> dict[str, np.ndarray]:
        """Every recorded span as parallel arrays, ordered by span id."""
        bufs = self._buffers
        cols = {
            col: np.concatenate([np.asarray(getattr(b, attr)) for b in bufs])
            for col, attr in (("id", "ids"), ("name", "names"), ("parent", "parents"),
                              ("op", "ops"), ("start", "starts"), ("end", "ends"))
        }
        cols["thread"] = np.concatenate([np.full(len(b.ids), b.index) for b in bufs])
        order = np.argsort(cols["id"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span may run in several threads at once, so the covered
    part is the length of the union of their intervals, not their sum.
    """
    duration = spans["end"] - spans["start"]
    index = {int(sid): i for i, sid in enumerate(spans["id"])}
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            children.setdefault(index[int(parent)], []).append(i)
    out = duration.copy()
    for i, kids in children.items():
        intervals = sorted(zip(spans["start"][kids], spans["end"][kids]))
        covered = 0.0
        cur_start, cur_end = intervals[0]
        for start, end in intervals[1:]:
            if start > cur_end:
                covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        covered += cur_end - cur_start
        out[i] = duration[i] - covered
    return out
