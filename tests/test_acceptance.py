"""Acceptance gate: the nine release criteria, one test each.

Each test prints one PASS line on success; run with -v for the per-test
verdicts. Tolerances here are pinned and must not be loosened.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from crossflow import (
    IntersectionGeometry,
    MzBoundary,
    SimConfig,
    VehicleSpec,
    audit_run,
    cli,
    earliest_mz_arrival,
    mz_costs,
    plan_crossing,
    run,
    solve_cz,
    solve_mz_jerk,
    solve_mz_weighted,
    sweep,
)
from crossflow.scheduler import CASE_LATERAL

SEEDS = range(20)
S_LEFT = 3.0 * math.pi * 30.0 / 8.0
S_RIGHT = math.pi * 30.0 / 8.0

LEFT = MzBoundary(tm=40.0, tf=45.0, vm=8.0, vf=8.0, p_start=400.0, p_end=400.0 + S_LEFT)
STRAIGHT = MzBoundary(tm=40.0, tf=43.0, vm=10.0, vf=10.0, p_start=400.0, p_end=430.0)
RIGHT = MzBoundary(tm=40.0, tf=43.0, vm=6.0, vf=6.0, p_start=400.0, p_end=400.0 + S_RIGHT)


@pytest.fixture(scope="module")
def reference_runs():
    results = {}
    for seed in SEEDS:
        start = time.perf_counter()
        results[seed] = run(SimConfig(seed=seed))
        results[f"time_{seed}"] = time.perf_counter() - start
    return results


def test_criterion_1_reference_scenario_audits_clean(reference_runs):
    for seed in SEEDS:
        result = reference_runs[seed]
        elapsed = reference_runs[f"time_{seed}"]
        assert result.audit.ok, f"seed {seed}: {result.audit.findings}"
        assert not result.audit.findings
        assert elapsed < 5.0, f"seed {seed} took {elapsed:.2f} s"
    print("PASS: criterion 1 - 20 seeds audit clean, all under the 5 s budget")


def test_criterion_2_all_binding_cases_occur(reference_runs):
    total = {"same_exit": 0, "same_entry": 0, "lateral": 0, "fifo": 0, "feasibility": 0}
    for seed in SEEDS:
        hist = reference_runs[seed].binding_histogram
        assert set(hist) == set(total)
        for key, count in hist.items():
            total[key] += count
    for case in ("same_exit", "same_entry", "lateral", "fifo"):
        assert total[case] > 0, f"case {case} never bound across seeds"
    print(f"PASS: criterion 2 - every scheduling case binds somewhere: {total}")


def test_criterion_3_cz_solver_matches_transcription():
    rng = np.random.default_rng(101)
    for _ in range(10):
        t0 = float(rng.uniform(0.0, 50.0))
        v0 = float(rng.uniform(8.0, 13.0))
        duration = float(rng.uniform(30.0, 45.0))
        vm = float(rng.uniform(8.0, 13.0))
        length = float(rng.uniform(300.0, 500.0))
        traj = solve_cz(t0, v0, t0 + duration, vm, length)
        assert abs(traj.position(t0) - 0.0) < 1e-9
        assert abs(traj.speed(t0) - v0) < 1e-9
        assert abs(traj.position(t0 + duration) - length) < 1e-9
        assert abs(traj.speed(t0 + duration) - vm) < 1e-9
        cost = traj.half_square_integral(2)
        ref, _, _ = oracles.transcription_min_effort(duration, v0, vm - v0, length, n=2000)
        assert abs(cost - ref) / max(ref, 1e-12) < 1e-4
    print("PASS: criterion 3 - closed-form approach matches transcription on 10 instances")


def test_criterion_4_jerk_solver_matches_qp():
    straight = solve_mz_jerk(STRAIGHT)
    assert mz_costs(straight).discomfort < 1e-12

    cases = [LEFT, STRAIGHT, RIGHT]
    rng = np.random.default_rng(102)
    for _ in range(7):
        vm = float(rng.uniform(6.0, 12.0))
        vf = float(rng.uniform(6.0, 12.0))
        dt = float(rng.uniform(2.0, 6.0))
        avg = 0.5 * (vm + vf) + float(rng.uniform(-1.0, 1.0))
        cases.append(MzBoundary(tm=0.0, tf=dt, vm=vm, vf=vf,
                                p_start=400.0, p_end=400.0 + avg * dt))
    for b in cases:
        cost = mz_costs(solve_mz_jerk(b)).discomfort
        ref, _, _ = oracles.min_jerk_qp(
            b.duration, b.vf - b.vm, (b.p_end - b.p_start) - b.vm * b.duration,
            b.u_start, b.u_end, n=800,
        )
        assert abs(cost - ref) <= 1e-3 * max(ref, 1e-9)
    print("PASS: criterion 4 - min-jerk quintic matches the QP oracle on 10 instances")


def test_criterion_5_weighted_solver_checks():
    # stationarity residual, with derivatives by finite differences
    h = 1e-4
    for w, q1, q2 in ((0.5, 1.0, 1.0), (0.2, 1.0 / 9.0, 0.01), (0.8, 1.0 / 9.0, 0.01)):
        traj = solve_mz_weighted(LEFT, w, q1, q2)
        a, b = traj.coefficients[0], traj.coefficients[1]
        for t in np.linspace(LEFT.tm + 2 * h, LEFT.tf - 2 * h, 500):
            u_dd = (traj.control(t + h) - 2.0 * traj.control(t) + traj.control(t - h)) / h**2
            tau = t - LEFT.tm
            residual = (1.0 - w) * q2 * u_dd - w * q1 * traj.control(t) + (a * tau + b)
            assert abs(residual) < 1e-6

    # w -> 0 limit lands on the pure-jerk solution
    jerk = solve_mz_jerk(LEFT)
    near = solve_mz_weighted(LEFT, 1e-6, 1.0, 1.0)
    grid = np.linspace(LEFT.tm, LEFT.tf, 400)
    sup = float(np.max(np.abs(near.control(grid) - jerk.control(grid))))
    assert sup < 1e-2

    # each grid point is optimal for its own weight across the whole sweep
    result = sweep(LEFT)
    assert len(result.points) == 50
    q1, q2 = result.q1, result.q2
    for own in result.points:
        own_cost = own.w * q1 * own.fuel + (1.0 - own.w) * q2 * own.discomfort
        for other in result.points:
            cross = own.w * q1 * other.fuel + (1.0 - own.w) * q2 * other.discomfort
            assert own_cost <= cross + 1e-9
    print("PASS: criterion 5 - stationarity, the w->0 limit, and cross-evaluation optimality hold")


def test_criterion_6_pareto_tradeoff_is_monotone():
    result = sweep(LEFT)
    fuels = [p.fuel for p in result.points]
    discs = [p.discomfort for p in result.points]
    for a, b in zip(fuels, fuels[1:]):
        assert b <= a + 1e-9
    for a, b in zip(discs, discs[1:]):
        assert b >= a - 1e-9
    print("PASS: criterion 6 - fuel falls and discomfort rises along the weight grid")


def test_criterion_7_feasibility_bound_matches_integration():
    rng = np.random.default_rng(103)
    branch_cruise = branch_accel = 0
    for _ in range(100):
        v_max = float(rng.uniform(8.0, 35.0))
        v0 = float(rng.uniform(1.0, v_max))
        length = float(rng.uniform(100.0, 800.0))
        u_max = float(rng.uniform(0.5, 4.0))
        g = IntersectionGeometry(
            cz_length=length, v_max=v_max, u_max=u_max,
            mz_speed_left=min(8.0, v_max), mz_speed_straight=min(10.0, v_max),
            mz_speed_right=min(6.0, v_max),
        )
        if 2.0 * length * u_max + v0 * v0 >= v_max * v_max:
            branch_cruise += 1
        else:
            branch_accel += 1
        closed = earliest_mz_arrival(0.0, v0, g)
        oracle = oracles.bang_cruise_arrival(0.0, v0, length, v_max, u_max)
        assert abs(closed - oracle) < 1e-9
    assert branch_cruise > 0 and branch_accel > 0
    print(f"PASS: criterion 7 - bound matches integration on 100 draws "
          f"({branch_cruise} capped, {branch_accel} accelerating)")


def test_criterion_8_outputs_are_byte_identical(tmp_path):
    names = ("trajectories.csv", "schedule.csv", "audit.json", "manifest.json")
    payloads = []
    for label in ("first", "second"):
        out = tmp_path / label
        assert cli.main(["simulate", "--out", str(out), "--seed", "11"]) == 0
        payloads.append({name: (out / name).read_bytes() for name in names})
    assert payloads[0] == payloads[1]
    print("PASS: criterion 8 - repeated runs write byte-identical outputs")


def test_criterion_9_audit_flags_perturbed_schedules(reference_runs):
    # shrink a crossing-bound vehicle's merge window by half a second and
    # demand the independent audit notices the resulting co-occupancy
    demonstrated = 0
    for seed in (0, 7, 13):
        base = reference_runs[seed]
        cfg = SimConfig(seed=seed)
        lateral = [r for r in base.vehicles if r.schedule.binding_case == CASE_LATERAL]
        assert lateral, f"seed {seed} has no crossing-bound vehicle"
        victim = lateral[0]
        records = []
        for rec in base.vehicles:
            if rec.spec.vehicle_id != victim.spec.vehicle_id:
                records.append(rec)
                continue
            sched = replace(rec.schedule, tm=rec.schedule.tm - 0.5)
            cz, mz, out = plan_crossing(rec.spec, sched.tm, sched.tf, cfg.geometry,
                                        cfg.objective, cfg.weight, cfg.jerk_scale)
            records.append(replace(rec, schedule=sched, cz=cz, mz=mz, out=out))
        report = audit_run(replace(base, vehicles=tuple(records)))
        assert not report.ok
        assert any(f.kind == "mz_overlap" for f in report.findings)
        demonstrated += 1
    assert demonstrated == 3
    print("PASS: criterion 9 - perturbed schedules are caught by the independent audit")
