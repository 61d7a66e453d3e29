"""Run the committed CLI configs into one directory and print a digest, or
compare the numbers of two such directories.

    python tools/artifacts.py OUT_DIR
    python tools/artifacts.py --compare BASE_DIR HEAD_DIR

Each entry of RUNS is one `python -m vectorhost COMMAND --config
tools/artifacts/CONFIG --out OUT_DIR/NAME [--seed N]` call, made with
this checkout's src/ first on PYTHONPATH.  Two configs are derived, each
written to OUT_DIR, so the node data has one copy: the Dirichlet
`threshold` run takes envelope.json with its experiment kind set to
"threshold" (threshold-dir.json), and the Robin run at eps < 0 takes
steady-robin.json with eps -0.05 (steady-robin-neg.json).  For each
tree the digest gives its exit code, the sha256 of every file in it (by
relative path) and its stderr.  Two runs, of one checkout or of two
checkouts on one machine, compare by `diff` of their digests.  No
expected digest is committed: other numpy, scipy or BLAS builds may
change the bytes.  OUT_DIR must not exist or be empty.

The script exits 1 if a run whose expected exit code is set exited with
another code, else 0.  Runs with no expected code (None) are only
compared between two digests: their exit code is part of the digest.

--compare says how far the numbers of two OUT_DIRs moved.  For each file
whose bytes differ it prints the largest absolute and relative difference
over its finite floats (JSON values and CSV cells, matched by position)
and each differing other field: strings, booleans, integers, null,
infinities and NaN, and values present on one side only.  It always exits 0 once both directories exist.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
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
    ("steady-robin-neg", "steady", "steady-robin-neg.json", (), None),  # steady-robin.json at eps -0.05
    ("steady-dir-node", "steady", "steady-dir-node.json", (), None),  # Dirichlet n = 3: one active node
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


def _leaves(obj, path=""):
    """(path, value) for every scalar of a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path or "/", obj


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _fields(path: Path) -> dict | None:
    """The scalars of a JSON or CSV file by position, or None for other files."""
    text = path.read_text()
    if path.suffix == ".json":
        return dict(_leaves(json.loads(text)))
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return {
            f"line {i + 1}, {header[j] if j < len(header) else j}": _cell(cell)
            for i, row in enumerate(rows) for j, cell in enumerate(row)
        }
    return None


def _is_float(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def compare(base: Path, head: Path) -> int:
    if not (base.is_dir() and head.is_dir()):
        print(f"error: {base} and {head} must both be directories", file=sys.stderr)
        return 2
    files = {p.relative_to(root).as_posix() for root in (base, head) for p in root.rglob("*") if p.is_file()}
    for name in sorted(files):
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {base if a.is_file() else head}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        fa, fb = _fields(a), _fields(b)
        if fa is None or fb is None:
            print(f"{name}: bytes differ (neither JSON nor CSV)")
            continue
        moved, worst_abs, worst_rel, others = 0, (0.0, None), (0.0, None), []
        for key in list(fa) + [k for k in fb if k not in fa]:
            x, y = fa.get(key, "<missing>"), fb.get(key, "<missing>")
            if _is_float(x) and _is_float(y):
                if x != y:
                    moved += 1
                    diff = abs(x - y)
                    worst_abs = max(worst_abs, (diff, key), key=lambda d: d[0])
                    worst_rel = max(worst_rel, (diff / max(abs(x), abs(y)), key), key=lambda d: d[0])
            elif type(x) is not type(y) or repr(x) != repr(y):  # repr: nan equals nan
                others.append(f"  {key}: {x!r} -> {y!r}")
        floats = sum(_is_float(x) for x in fa.values())
        summary = f"{moved} of {floats} floats moved"
        if moved:
            summary += (f", largest abs {worst_abs[0]:.3g} ({worst_abs[1]}),"
                        f" largest rel {worst_rel[0]:.3g} ({worst_rel[1]})")
        print(f"{name}: {summary}", *others, sep="\n")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    configs = {p.name: p for p in CONFIGS.glob("*.json")}
    for name, source, key, value in (("threshold-dir.json", "envelope.json", "kind", "threshold"),
                                     ("steady-robin-neg.json", "steady-robin.json", "eps", -0.05)):
        derived = json.loads(configs[source].read_text())
        derived["experiment"][key] = value
        configs[name] = out / name
        configs[name].write_text(json.dumps(derived))
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
