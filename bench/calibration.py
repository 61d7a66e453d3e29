"""Host-speed calibration of the benchmark's timings.

The benchmark host is shared and its speed drifts: a fixed loop of small
banded solves runs up to 50% slower or faster from one fraction of a
second to the next, and the mix differs from run to run.  So while a
workload is timed, a background thread runs a fixed reference kernel
every PERIOD_S, and each call's time is reported in calibrated seconds:
its wall seconds, less the kernel runs that fell inside it, times
REFERENCE_S over the mean kernel time sampled during the call, i.e.
seconds on a host where the kernel takes REFERENCE_S.  The
kernel does the same kind of work as vectorhost's hot loops (banded solves
of 101 unknowns and vector operations, driven from Python) but calls no
vectorhost code, so a change to the package moves calibrated times as much
as wall times.

The two vCPUs drift independently, so the kernel must run where the work
runs: while sampling, the process keeps to one CPU, which the sampler
shares with the workload, and the kernel is timed in thread CPU time so
that waiting for the interpreter lock does not count.  The workloads are
bound by the interpreter lock (the sweep's two pool threads take as long
as one), so one CPU costs them nothing, but a future change that made them
run in parallel would not show here.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter, thread_time

import numpy as np
from scipy.linalg import solve_banded

REFERENCE_S = 0.0004  # nominal time of one kernel run, about its mean on a 2-core host
PERIOD_S = 0.01
_rng = np.random.default_rng(0)
_AB = np.vstack([-np.ones(101), 4.0 + _rng.random(101), -np.ones(101)])
_RHS = _rng.random(101)


def reference() -> float:
    """CPU seconds this thread spends on one run of the reference kernel."""
    t0 = thread_time()
    for _ in range(10):
        x = solve_banded((1, 1), _AB, _RHS)
        float(np.abs(0.5 * x + _RHS).max())
    return thread_time() - t0


class Sampler:
    """While open, keeps the process on one CPU and samples the kernel
    there every PERIOD_S from a background thread."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (wall-clock start, end, kernel s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._affinity = os.sched_getaffinity(0)

    def _sample(self):
        t = perf_counter()
        ref = reference()
        self.samples.append((t, perf_counter(), ref))

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self):
        os.sched_setaffinity(0, {min(self._affinity)})
        reference()  # warm-up
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        os.sched_setaffinity(0, self._affinity)

    def calibrated(self, windows: list[tuple[float, float]]) -> list[float]:
        """Calibrated seconds of each (start, end) wall-clock window, from the
        samples centred inside it, or from its two neighbours when it holds
        none.  The sampler shares the CPU, so its runs inside the window are
        not the workload's time."""
        starts, ends, refs = np.array(list(self.samples)).T
        mids = 0.5 * (starts + ends)
        out = []
        for t0, t1 in windows:
            lo, hi = np.searchsorted(mids, t0), np.searchsorted(mids, t1)
            inside = refs[lo:hi] if hi > lo else refs[max(lo - 1, 0):lo + 1]
            stolen = np.clip(np.minimum(ends, t1) - np.maximum(starts, t0), 0.0, None).sum()
            out.append((t1 - t0 - stolen) * REFERENCE_S / float(inside.mean()))
        return out
