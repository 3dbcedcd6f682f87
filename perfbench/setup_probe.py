"""Print the seconds a fresh process takes to set up one workload.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing crossflow, building the workload's inputs for its
first round, and making one warm-up call.  run.py starts this script
several times per run and reports the median as setup_s.
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(out, exist_ok=True)
scratch = tempfile.mkdtemp(prefix="setup-", dir=out)
try:
    w = workloads.WORKLOADS[name](seed, scratch)
    w.inputs(0)
    w.warm_up()
    elapsed = time.perf_counter() - start
finally:
    shutil.rmtree(scratch, ignore_errors=True)
print(elapsed)
