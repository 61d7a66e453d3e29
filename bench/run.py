"""Outside-in benchmark of the vectorhost package.

Run from the repository root:

    python3 bench/run.py --workload {trajectories,equilibria,sweep} \\
        --seed N --seconds S --trace {0,1}

--trace 0 times the workload with nothing patched, in closed-loop rounds
(one client, the next call starts when the previous one returns) until
about S seconds of calls have run, and prints the end-to-end metrics.
Their times are in calibrated seconds, which take out the shared host's
speed drift (see calibration.py); the wall-clock values are on the info
line.
--trace 1 runs a fixed number of rounds, each call once with every public
entry point wrapped in a span and once without, and prints the per-layer
metrics; the fixed count makes its counters repeat exactly for a seed.

Every run also executes `vectorhost threshold` on the README config and
checks its closed form.  Outputs are checked on every call; a call that
raises or fails its check counts its items as failed.  The last line of
stdout is the JSON result; the line before it, starting with "info", holds
the machine, the settings, sample counts and artifact hashes, and a copy
of both goes to bench/out/.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("trajectories", "equilibria", "sweep"))
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance seed streams")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vectorhost" / "__init__.py").is_file():
        print(f"error: no vectorhost sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads are pinned before numpy loads; the sweep pool gets one
    # worker per available core.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    os.environ["VECTORHOST_WORKERS"] = str(len(os.sched_getaffinity(0)))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vectorhost

    if Path(vectorhost.__file__).resolve().parent != SRC / "vectorhost":
        print(f"error: imported vectorhost from {vectorhost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    harness.OUT.mkdir(exist_ok=True)
    workdir = harness.OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return harness.run(args, sizes or workloads.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
