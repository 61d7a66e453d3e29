"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs at a tiny size, traced and untraced, and must emit
exactly the metrics BENCHMARK.json names, with their units, and no failure.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(argv, sizes=workloads.TINY) == 0
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_tracer_patches_every_binding_and_restores_it():
    import vectorhost
    from vectorhost import cli, steady, verify

    original = steady.solve_endemic
    tracer = tracing.Tracer()
    with tracer.active():
        bound = {m.solve_endemic for m in (vectorhost, steady, verify, cli)}
        assert len(bound) == 1 and original not in bound
    assert vectorhost.solve_endemic is steady.solve_endemic is verify.solve_endemic is original
    assert cli.solve_endemic is original


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = {
        "id": [1, 2, 3, 4],
        "parent": [0, 1, 1, 3],
        "start": [0.0, 1.0, 2.0, 2.5],
        "end": [10.0, 4.0, 5.0, 3.0],
    }
    own = tracing.self_times({k: np.array(v) for k, v in spans.items()})
    assert own.tolist() == [6.0, 3.0, 2.5, 0.5]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
