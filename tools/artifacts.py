"""Run the committed CLI configs into one directory and print a digest.

    python tools/artifacts.py OUT_DIR

Each entry of RUNS is one `python -m vectorhost COMMAND --config
tools/artifacts/CONFIG --out OUT_DIR/NAME [--seed N]` call, made with
this checkout's src/ first on PYTHONPATH.  The Dirichlet `threshold` run
takes envelope.json with its experiment kind set to "threshold", written
to OUT_DIR/threshold-dir.json, so the node data has one copy.  For each
tree the digest gives its exit code, the sha256 of every file in it (by
relative path) and its stderr.  Two runs, of one checkout or of two
checkouts on one machine, compare by `diff` of their digests.  No
expected digest is committed: other numpy, scipy or BLAS builds may
change the bytes.  OUT_DIR must not exist or be empty.

The script exits 1 if a run whose expected exit code is set exited with
another code, else 0.  Runs with no expected code (None) are only
compared between two digests: their exit code is part of the digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent / "artifacts"

# (tree name, command, config file, extra arguments, expected exit code)
RUNS = (
    ("threshold", "threshold", "threshold.json", (), 0),  # the README config
    ("simulate", "simulate", "simulate.json", (), 0),
    ("envelope", "envelope", "envelope.json", (), 0),  # Dirichlet, eps 0.05
    ("threshold-dir", "threshold", "threshold-dir.json", (), None),  # envelope.json as threshold
    ("steady", "steady", "steady.json", (), None),  # an endemic equilibrium exists
    ("steady-hu", "steady", "steady-hu.json", (), None),  # lambda_system > 0
    ("steady-dir", "steady", "steady-dir.json", (), None),  # lambda_beta > 0
    ("steady-dir-endemic", "steady", "steady-dir-endemic.json", (), 0),  # Dirichlet, eps 0.01
    ("steady-robin", "steady", "steady-robin.json", (), 0),  # Robin, eps 0.01
    ("eigen", "eigen", "eigen.json", (), None),
    ("sweep", "sweep", "sweep.json", (), 0),  # seed 11
    ("sweep-seed4", "sweep", "sweep.json", ("--seed", "4"), None),
    ("sweep-seed15", "sweep", "sweep.json", ("--seed", "15"), None),
    ("sweep-robin", "sweep", "sweep-robin.json", (), None),  # fixed dt above some bounds
    ("sweep-dir", "sweep", "sweep-dir.json", (), None),
)


def digest(tree: Path) -> list[str]:
    files = sorted(p for p in tree.rglob("*") if p.is_file()) if tree.is_dir() else []
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(tree).as_posix()}"
        for p in files
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    configs = {p.name: p for p in CONFIGS.glob("*.json")}
    derived = json.loads(configs["envelope.json"].read_text())
    derived["experiment"]["kind"] = "threshold"
    configs["threshold-dir.json"] = out / "threshold-dir.json"
    configs["threshold-dir.json"].write_text(json.dumps(derived))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    status = 0
    for name, command, config, extra, expected in RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "vectorhost", command, "--config", str(configs[config]),
             "--out", str(out / name), *extra],
            env=env, capture_output=True, text=True,
        )
        print(f"== {name}: {command} {config} {' '.join(extra)}".rstrip())
        print(f"exit {proc.returncode}")
        print("\n".join(digest(out / name)))
        print("stderr:")
        for line in proc.stderr.splitlines():
            print(f"| {line}")
        if expected is not None and proc.returncode != expected:
            print(f"error: {name} exited {proc.returncode}, expected {expected}", file=sys.stderr)
            status = 1
    return status

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
