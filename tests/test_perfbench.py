"""The benchmark's own tooling works against the package as it is.

perfbench/selftest.py runs each workload once untraced and once traced.
It fails when a name the tracer wraps is gone, when tracing changes a
result, or when the light workload can no longer capture the run behind
``crossflow simulate`` through ``cli.run``.  The tracer's per-layer
counts must also still see every merge-zone solve that ``sim.run`` makes.
"""

import os
import subprocess
import sys

import pytest

from crossflow import MzVariant, SimConfig, sim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402

SOLVERS = {
    MzVariant.FUEL_ONLY: "mz_planner.solve_mz_fuel",
    MzVariant.JERK_ONLY: "mz_planner.solve_mz_jerk",
    MzVariant.WEIGHTED: "mz_planner.solve_mz_weighted",
}


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("objective", list(SOLVERS))
def test_tracer_counts_one_merge_zone_solve_per_vehicle(objective):
    weight = 0.5 if objective is MzVariant.WEIGHTED else None
    cfg = SimConfig(seed=5, vehicle_count=10, objective=objective, weight=weight)
    tracer = tracing.Tracer()
    with tracer:
        result = sim.run(cfg)
    assert len(result.vehicles) == 10
    assert {name: tracer.calls[name] for name in SOLVERS.values()} == {
        name: 10 if name == SOLVERS[objective] else 0 for name in SOLVERS.values()
    }
    assert tracer.calls["sim.run"] == 1
