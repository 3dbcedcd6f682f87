"""The benchmark's own self-check passes against the package as it is.

perfbench/selftest.py runs each workload once untraced and once traced.
It fails when a name the tracer wraps is gone, when tracing changes a
result, or when the light workload can no longer capture the run behind
``crossflow simulate`` through ``cli.run``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
