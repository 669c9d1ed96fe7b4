"""Set-up probe: a fresh interpreter imports cylreact and runs the
workload's warm-up, then prints the monotonic clock.

    python3 benchmark/setup_probe.py <workload> <scratch-dir>

Run from the checkout root by run.py; the difference between the printed
clock and the parent's clock at spawn is one set-up sample.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import cylreact  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up(sys.argv[1], sys.argv[2])
print(time.perf_counter())
