"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from this file's first statement to the end of
set-up (importing the library, generating the inputs from the seed and
the warm-up call that loads HiGHS), then the calibration kernel's time
measured right after.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - t0

import calibration  # noqa: E402

print(elapsed, calibration.Kernel().sample())
