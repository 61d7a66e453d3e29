"""Timing, checking and reporting of one benchmark run; see run.py."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Spaced so that one or two rounds of a workload pick the same percentile.
PERCENTILES = (50, 75, 90, 99, 99.9)
FAILED = object()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
        "git_commit": git_commit(),
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECTORHOST_WORKERS"
        },
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile of PERCENTILES with at least ten samples beyond
    it, or the maximum when there are too few samples for any."""
    n = len(latencies)
    usable = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10]
    if not usable:
        return max(latencies), 100.0
    return float(np.percentile(latencies, usable[-1])), usable[-1]


def end_to_end(setup: list[float], latencies: list[float], items: int, rss_mb: float) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "throughput_per_s": {"value": items / sum(latencies), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_tail_s": {"value": tail(latencies)[0], "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def measure_setup(name: str, seed: int, repeats: int, workdir: Path) -> tuple[list, list]:
    """Set-up times of fresh interpreters, each timed from inside, with the
    calibration kernel's time measured right after in the same process."""
    times, refs = [], []
    for r in range(repeats):
        probe_dir = workdir / f"setup{r}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, ref = proc.stdout.split()[-2:]
        times.append(float(elapsed))
        refs.append(float(ref))
    return times, refs


class Runner:
    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def call(self, i: int, traced: bool = False) -> tuple[float, float]:
        """Run call i, check it, and return its wall-clock start and end."""
        w = self.w
        w.prepare(i)
        t0 = perf_counter()
        try:
            if traced:
                with self.tracer.active(), self.tracer.root():
                    out = w.call(i)
            else:
                out = w.call(i)
        except Exception:  # a failing call is counted, not fatal
            traceback.print_exc()
            out = FAILED
        t1 = perf_counter()
        self.attempted += w.items_per_call
        if out is FAILED or not w.check(i, out):
            self.failed += w.items_per_call
        return t0, t1

    def timed(self, seconds: float, sampler) -> tuple[list[tuple[float, float]], int]:
        """Whole rounds until the next one would more likely overshoot
        `seconds` of calibrated time than fall short of it, so the number of
        calls does not follow the host's speed."""
        windows, rounds = [], 0
        while True:
            for _ in range(self.w.round_size):
                windows.append(self.call(len(windows)))
            busy = sum(sampler.calibrated(windows))
            rounds += 1
            if busy + busy / rounds / 2 >= seconds:
                return windows, rounds

    def traced(self) -> tuple[float, float]:
        """Fixed rounds, each call traced and untraced in alternating order."""
        traced_s = untraced_s = 0.0
        i = 0
        for _ in range(self.w.trace_rounds()):
            for _ in range(self.w.round_size):
                for on in ((True, False) if i % 2 == 0 else (False, True)):
                    t0, t1 = self.call(i, traced=on)
                    elapsed = t1 - t0
                    if on:
                        traced_s += elapsed
                    else:
                        untraced_s += elapsed
                i += 1
        return traced_s, untraced_s


def run(args, sizes: workloads.Sizes, workdir: Path) -> int:
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    if not args.trace:
        setup, setup_refs = measure_setup(args.workload, args.seed, sizes.setup_repeats, workdir)
        info.update(setup_wall_s=setup, setup_reference_s=setup_refs)
    w = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
    workloads.setup_call(args.workload, args.seed, workdir)  # untimed warm-up
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(w, tracer)
    samples = {}

    if args.trace:
        traced_s, untraced_s = runner.traced()
        with tracer.active(), tracer.root():
            probe_ok, readme_sha = workloads.readme_threshold(workdir)
        layer, fired = tracing.layer_metrics(tracer, traced_s, untraced_s)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        info.update(traced_s=traced_s, untraced_s=untraced_s, spans_per_layer=fired)
        silent = [name for name, n in fired.items() if n == 0]
        if silent:
            print(f"error: no spans recorded for layers {silent}", file=sys.stderr)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        with calibration.Sampler() as sampler:
            windows, rounds = runner.timed(args.seconds, sampler)
        latencies = [t1 - t0 for t0, t1 in windows]
        probe_ok, readme_sha = workloads.readme_threshold(workdir)
        items = runner.attempted
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(
            [t * calibration.REFERENCE_S / r for t, r in zip(setup, setup_refs)],
            sampler.calibrated(windows), items, rss_mb,
        )
        raw = end_to_end(setup, latencies, items, rss_mb)
        tail_pct = tail(latencies)[1]
        info.update(
            calls=len(latencies), rounds=rounds, busy_s=sum(latencies), items=items,
            failed_ratio=runner.failed / items, tail_percentile=tail_pct,
            tail_samples=len(latencies),
            wall_metrics={name: m["value"] for name, m in raw.items()},
        )
        silent = []
        samples = {"latency_wall_s": latencies, "kernel_samples": sampler.samples}

    runner.attempted += 1
    runner.failed += not probe_ok
    info.update(w.info, readme_report_sha256=readme_sha, readme_closed_form_ok=probe_ok)
    result = {
        "correct": runner.failed == 0 and not silent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result, **samples}, indent=2) + "\n"
    )
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0
