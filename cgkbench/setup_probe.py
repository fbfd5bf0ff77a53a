"""Set-up probe: time from a bare interpreter to ready inputs.

Run as ``python3 cgkbench/setup_probe.py WORKLOAD SEED [--smoke]`` from
the repository root.  The clock starts at the first statement, so the
figure covers importing ``cgk`` and building the workload's cases, and
not the interpreter's own start-up.  The calibration kernel then runs a
few times, and the probe prints the set-up time in reference seconds
(``calibrate.py``) as one number.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from workloads import build_cases  # noqa: E402

build_cases(sys.argv[1], int(sys.argv[2]), smoke="--smoke" in sys.argv[3:])
elapsed = time.perf_counter() - START

import statistics  # noqa: E402

import calibrate  # noqa: E402

calibrate.kernel()
speed = statistics.median(calibrate.kernel_seconds() for _ in range(5))
print(repr(elapsed / speed * calibrate.REFERENCE_S))
