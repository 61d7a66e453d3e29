"""Time one set-up in a fresh interpreter: import vectorhost, parse a
config, build the first inputs and make one small call at the workload's
entry point.  Prints the elapsed seconds, then the median of ten runs of
the calibration kernel made right after.

    python3 bench/setup_probe.py <workload> <seed> <work dir>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup_call(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
elapsed = time.perf_counter() - START

import statistics  # noqa: E402

import calibration  # noqa: E402

print(elapsed, statistics.median(calibration.reference() for _ in range(10)))
