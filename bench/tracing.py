"""Span tracing of vectorhost's public entry points, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
vectorhost module that bound it at import (`from .steady import
solve_endemic` copies the name into `vectorhost`, `verify` and `cli`), and
the two `ShiftedSolve` methods on the class itself.  `uninstall()` puts the
originals back.  Each call records a span (id, parent id, name, start,
end) and bumps the counters read from its arguments or its result.  Spans
stay in per-thread buffers until the run ends.

A span opened on a worker thread with no open span of its own takes the
main thread's innermost open span as its parent, so the sweep's scenario
spans hang under `cli.main`.  A span's self time is its duration minus the
union of its children's intervals (children on pool threads overlap).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# Every layer named here must record at least one span in a traced run.
LAYERS = ("operators", "dynamics", "eigen", "steady", "verify", "cli", "config")
ROOT_SPAN = "bench.call"


def _compare_steps(report) -> int:
    """Step-pairs a ComparisonReport stands for: the loop count of
    compare_trajectories for its t_end and dt."""
    dt, t_end = report.dt, report.t_end
    stop = t_end - 1e-12 * max(1.0, dt)
    steps = max(0, int(stop / dt) - 2)
    while steps * dt < stop:
        steps += 1
    return steps


def _count_solve(counts, args, kwargs, result):
    counts["operators.solve_rows"] += len(args[1])


def _count_integrate(counts, args, kwargs, result):
    counts["dynamics.steps"] += result.steps
    counts["dynamics.runs"] += 1
    counts["dynamics.settled"] += bool(result.steady)


def _count_compare(counts, args, kwargs, result):
    counts["dynamics.steps"] += _compare_steps(result)
    counts["dynamics.runs"] += 1


def _count_monotone(counts, args, kwargs, result):
    counts["steady.monotone_sweeps"] += result.sweeps
    counts["steady.monotone_cap_hits"] += not result.converged


def _count_threshold(counts, args, kwargs, result):
    far = result.final_sup_distance > result.distance_tol
    counts["verify.unsettled_far"] += (not result.steady) and far


def _count_write(counts, args, kwargs, result):
    counts["cli.bytes_written"] += Path(args[0]).stat().st_size


# (defining module, attribute, span name, counter); a "Class.method"
# attribute is patched on the class.
TARGETS = (
    ("vectorhost.operators", "ShiftedSolve.solve_active", "operators.solve", _count_solve),
    ("vectorhost.operators", "ShiftedSolve.__init__", "operators.factor", None),
    ("vectorhost.dynamics", "integrate", "dynamics.integrate", _count_integrate),
    ("vectorhost.dynamics", "compare_trajectories", "dynamics.compare", _count_compare),
    ("vectorhost.eigen", "principal_eigen_scalar", "eigen.scalar", None),
    ("vectorhost.eigen", "principal_eigen_system", "eigen.system", None),
    ("vectorhost.steady", "solve_logistic", "steady.logistic", None),
    ("vectorhost.steady", "monotone_iterate", "steady.monotone", _count_monotone),
    ("vectorhost.steady", "solve_endemic", "steady.endemic", None),
    ("vectorhost.verify", "run_threshold_experiment", "verify.threshold", _count_threshold),
    ("vectorhost.cli", "main", "cli.main", None),
    ("vectorhost.cli", "write_report", "cli.write", _count_write),
    ("vectorhost.cli", "write_csv", "cli.write", _count_write),
    ("vectorhost.config", "parse_config", "config.parse", None),
)

SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(t[2] for t in TARGETS))

# Per-layer self-time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "operators.solve_s": ("operators.solve",),
    "operators.factor_s": ("operators.factor",),
    "dynamics.self_s": ("dynamics.integrate", "dynamics.compare"),
    "eigen.scalar_s": ("eigen.scalar",),
    "eigen.system_s": ("eigen.system",),
    "steady.logistic_s": ("steady.logistic",),
    "steady.monotone_s": ("steady.monotone",),
    "steady.polish_s": ("steady.endemic",),
    "verify.threshold_self_s": ("verify.threshold",),
    "cli.self_s": ("cli.main",),
    "cli.write_s": ("cli.write",),
    "config.parse_s": ("config.parse",),
    "trace.unattributed_s": (ROOT_SPAN,),
}

CALL_COUNTS = {
    "operators.solve_calls": "operators.solve",
    "operators.factor_calls": "operators.factor",
    "eigen.scalar_calls": "eigen.scalar",
    "eigen.system_calls": "eigen.system",
    "steady.logistic_calls": "steady.logistic",
    "steady.endemic_calls": "steady.endemic",
    "verify.threshold_calls": "verify.threshold",
}

COUNTERS = (
    "operators.solve_rows",
    "dynamics.steps",
    "dynamics.runs",
    "dynamics.settled",
    "steady.monotone_sweeps",
    "steady.monotone_cap_hits",
    "verify.unsettled_far",
    "cli.bytes_written",
)


class _Buffer:
    """One thread's spans, open-span stack and counters."""

    def __init__(self):
        self.stack: list[int] = []
        self.ids = array("q")
        self.parents = array("q")
        self.kinds = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)

    def record(self, sid, parent, kind, t0, t1):
        self.ids.append(sid)
        self.parents.append(parent)
        self.kinds.append(kind)
        self.starts.append(t0)
        self.ends.append(t1)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main = self._buffer()
        self._main_thread = threading.current_thread()
        self._patched: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self):
        buf = self._buffer()
        sid = next(self._ids)
        if buf.stack:
            parent = buf.stack[-1]
        elif threading.current_thread() is not self._main_thread and self._main.stack:
            parent = self._main.stack[-1]
        else:
            parent = 0
        buf.stack.append(sid)
        return buf, sid, parent

    def _wrap(self, fn, name, count):
        kind = SPAN_NAMES.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf, sid, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                buf.stack.pop()
                buf.record(sid, parent, kind, t0, t1)
            if count is not None:
                count(buf.counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def root(self):
        """Span covering one benchmark call; its self time is the part of the
        call that no traced entry point accounts for."""
        buf, sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            buf.stack.pop()
            buf.record(sid, parent, 0, t0, t1)

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "vectorhost" or name.startswith("vectorhost."))
        ]
        for module_name, attr, span, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, span, count))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, span, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, name, orig))
                        setattr(module, name, wrapper)

    def uninstall(self):
        while self._patched:
            target, name, orig = self._patched.pop()
            setattr(target, name, orig)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def spans(self) -> dict[str, np.ndarray]:
        bufs = list(self._buffers)
        return {
            "id": np.concatenate([np.frombuffer(b.ids, dtype=np.int64) for b in bufs]),
            "parent": np.concatenate([np.frombuffer(b.parents, dtype=np.int64) for b in bufs]),
            "kind": np.concatenate([np.frombuffer(b.kinds, dtype=np.int16) for b in bufs]),
            "start": np.concatenate([np.frombuffer(b.starts) for b in bufs]),
            "end": np.concatenate([np.frombuffer(b.ends) for b in bufs]),
        }

    def counts(self) -> dict[str, float]:
        total = dict.fromkeys(COUNTERS, 0)
        for buf in list(self._buffers):
            for key, value in buf.counts.items():
                total[key] += value
        return total

    def write(self, path: Path):
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    index = {sid: i for i, sid in enumerate(spans["id"].tolist())}
    covered = np.zeros(len(start))
    order = np.lexsort((start, parent))
    group, reach = None, -np.inf
    for i in order.tolist():
        p = int(parent[i])
        if p == 0:
            continue
        if p != group:
            group, reach = p, -np.inf
        lo, hi = max(start[i], reach), end[i]
        if hi > lo:
            covered[index[p]] += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the span count of each layer."""
    spans = tracer.spans()
    own = self_times(spans)
    kinds = spans["kind"]
    by_kind = {name: kinds == i for i, name in enumerate(SPAN_NAMES)}
    counts = tracer.counts()

    metrics = {}
    for metric, names in CALL_COUNTS.items():
        metrics[metric] = (int(by_kind[names].sum()), "count")
    for metric, names in SELF_TIME.items():
        mask = np.logical_or.reduce([by_kind[n] for n in names])
        metrics[metric] = (float(own[mask].sum()), "s")
    metrics["operators.solve_rows"] = (int(counts["operators.solve_rows"]), "count")
    metrics["dynamics.steps"] = (int(counts["dynamics.steps"]), "count")
    runs = counts["dynamics.runs"]
    metrics["dynamics.settled_ratio"] = (counts["dynamics.settled"] / runs if runs else 0.0, "ratio")
    for key in ("steady.monotone_sweeps", "steady.monotone_cap_hits", "verify.unsettled_far"):
        metrics[key] = (int(counts[key]), "count")
    metrics["cli.bytes_written"] = (int(counts["cli.bytes_written"]), "bytes")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    fired = {layer: 0 for layer in LAYERS}
    for i, name in enumerate(SPAN_NAMES):
        layer = name.split(".")[0]
        if layer in fired:
            fired[layer] += int((kinds == i).sum())
    return metrics, fired
