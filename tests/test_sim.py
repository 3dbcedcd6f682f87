import ast
import dataclasses
import functools
import hashlib
import math
import pathlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, reject, settings
from hypothesis import strategies as st

import crossflow
import oracles
from crossflow import (
    Arm,
    GateStats,
    IntersectionGeometry,
    Movement,
    MzBoundary,
    MzVariant,
    PolyTrajectory,
    Schedule,
    SimConfig,
    SimRun,
    Turn,
    VehicleRecord,
    VehicleSpec,
    audit_run,
    earliest_mz_arrival,
    generate_arrivals,
    plan_crossing,
    run,
    solve_cz,
    solve_mz,
)
from crossflow import audit as audit_module
from crossflow import sim as sim_module
from crossflow.audit import too_close

BASE = SimConfig(seed=7)


@pytest.fixture(scope="module")
def base_run():
    return run(BASE)


# ---------------------------------------------------------------------------
# arrival generation


def test_arrivals_deterministic():
    a = generate_arrivals(SimConfig(seed=5))
    b = generate_arrivals(SimConfig(seed=5))
    assert a == b
    c = generate_arrivals(SimConfig(seed=6))
    assert a != c


def test_arrival_ids_follow_time_order():
    specs = generate_arrivals(SimConfig(seed=2, vehicle_count=200))
    times = [s.t0 for s in specs]
    assert times == sorted(times)
    assert [s.vehicle_id for s in specs] == list(range(1, 201))


def test_interarrival_statistics():
    cfg = SimConfig(seed=11, vehicle_count=10_000, arrival_rate=1.0)
    specs = generate_arrivals(cfg)
    times = np.array([s.t0 for s in specs])
    gaps = np.diff(np.concatenate(([0.0], times)))
    assert gaps.min() > 0.0
    # exponential(1): SE of the mean over n samples is 1/sqrt(n)
    assert abs(gaps.mean() - 1.0) < 3.0 / np.sqrt(len(gaps))


def test_entry_speed_statistics():
    cfg = SimConfig(seed=12, vehicle_count=10_000)
    speeds = np.array([s.v0 for s in generate_arrivals(cfg)])
    assert speeds.min() >= 10.0
    assert speeds.max() <= 12.0
    se = (2.0 / np.sqrt(12.0)) / np.sqrt(len(speeds))
    assert abs(speeds.mean() - 11.0) < 3.0 * se


def test_movement_mix_respects_probabilities():
    cfg = SimConfig(seed=13, vehicle_count=10_000, turn_probabilities=(0.0, 1.0, 0.0))
    specs = generate_arrivals(cfg)
    assert all(s.movement.turn.value == "straight" for s in specs)


def test_uneven_arm_demand():
    # Poisson streams of 2.0, 0.1, 0.1 and 0.1 veh/s on N, E, S and W are
    # one stream of 2.3 veh/s whose arrivals pick N with probability 20/23
    cfg = SimConfig(seed=14, vehicle_count=500, arrival_rate=2.3,
                    arm_probabilities=(20 / 23, 1 / 23, 1 / 23, 1 / 23))
    specs = generate_arrivals(cfg)
    counts = {arm: 0 for arm in "NESW"}
    for s in specs:
        counts[s.movement.entry_arm.value] += 1
    assert counts["N"] > 300
    times = [s.t0 for s in specs]
    assert times == sorted(times)


def test_config_validation():
    with pytest.raises(ValueError, match="arrival_rate"):
        SimConfig(arrival_rate=0.0)
    with pytest.raises(ValueError, match="entry_speed_range"):
        SimConfig(entry_speed_range=(10.0, 14.0))
    with pytest.raises(ValueError, match="sum to 1"):
        SimConfig(arm_probabilities=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="weight"):
        SimConfig(objective=MzVariant.WEIGHTED)
    with pytest.raises(ValueError, match="vehicle_count"):
        SimConfig(vehicle_count=0)


def test_config_bounds_the_weighted_rate_by_the_longest_window_drawn():
    # at this weight the rate is 200/s: past the exponent cap over the 5 s
    # left-turn window, within it over the 3 s straight and right windows
    w = 3600.0 / 3601.0
    with pytest.raises(ValueError, match="exponent cap"):
        SimConfig(objective=MzVariant.WEIGHTED, weight=w)
    SimConfig(objective=MzVariant.WEIGHTED, weight=w, turn_probabilities=(0.0, 0.5, 0.5))


@pytest.mark.parametrize("field, value", [
    ("seed", "seven"), ("seed", 7.0), ("seed", -1), ("seed", True),
    ("vehicle_count", 2.5), ("vehicle_count", "30"),
])
def test_config_rejects_non_integer_seed_and_count(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("vehicle_count", 10**29), ("vehicle_count", 10**400),
    ("sample_step", 10**29), ("sample_step", 1e300), ("sample_step", 10**400),
])
def test_config_refuses_counts_and_steps_past_64_bit_arrays(field, value):
    # refused on construction, so nothing of that size is ever allocated
    with pytest.raises(ValueError, match=f"{field} must be"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("step", [1e-300, 1e-12, np.nextafter(sim_module.MIN_SAMPLE_STEP, 0.0)])
def test_config_refuses_steps_finer_than_the_gate_resolution(step):
    # refused on construction, before a grid of that step is allocated
    with pytest.raises(ValueError, match="sample_step must be at least 1e-06"):
        SimConfig(sample_step=step)
    SimConfig(sample_step=sim_module.MIN_SAMPLE_STEP)


def test_config_takes_the_largest_count_and_step_64_bit_arrays_hold():
    SimConfig(vehicle_count=sim_module._MAX_VEHICLE_COUNT)
    SimConfig(sample_step=sim_module._MAX_SAMPLE_STEP)
    with pytest.raises(ValueError, match="vehicle_count"):
        SimConfig(vehicle_count=sim_module._MAX_VEHICLE_COUNT + 1)
    with pytest.raises(ValueError, match="sample_step"):
        SimConfig(sample_step=sim_module._MAX_SAMPLE_STEP + 1)


# ---------------------------------------------------------------------------
# full runs


def test_single_vehicle_cruises_for_free():
    cfg = SimConfig(
        geometry=IntersectionGeometry(v_max=10.0),
        entry_speed_range=(10.0, 10.0),
        turn_probabilities=(0.0, 1.0, 0.0),
        vehicle_count=1,
        seed=3,
    )
    result = run(cfg)
    assert len(result.vehicles) == 1
    rec = result.vehicles[0]
    assert rec.schedule.binding_case == "feasibility"
    assert rec.schedule.tm == pytest.approx(rec.spec.t0 + 40.0, abs=1e-9)
    assert rec.schedule.tf == pytest.approx(rec.spec.t0 + 43.0, abs=1e-9)
    a, b, _, _ = rec.cz.coefficients
    assert abs(a) < 1e-12 and abs(b) < 1e-12
    assert result.audit.ok
    for row in oracles.sample_rows(result.samples):
        assert row.v == pytest.approx(10.0, abs=1e-9)
        assert abs(row.u) < 1e-9


def test_reference_scenario_runs_clean(base_run):
    assert len(base_run.vehicles) == 30
    assert base_run.audit.ok
    assert not base_run.audit.findings
    assert sum(base_run.binding_histogram.values()) == 30
    assert set(base_run.binding_histogram) == {
        "same_exit", "same_entry", "lateral", "fifo", "feasibility",
    }


def test_run_is_deterministic(base_run):
    again = run(BASE)
    assert again.samples.tolist() == base_run.samples.tolist()
    assert [r.schedule for r in again.vehicles] == [r.schedule for r in base_run.vehicles]
    assert again.binding_histogram == base_run.binding_histogram


def test_entries_respect_queue_order(base_run):
    entries = [r.spec.t0 for r in base_run.vehicles]
    ids = [r.spec.vehicle_id for r in base_run.vehicles]
    assert ids == list(range(1, 31))
    assert entries == sorted(entries)
    for rec in base_run.vehicles:
        assert rec.spec.t0 >= rec.arrival_time - 1e-12


def test_trajectories_meet_zone_boundaries(base_run):
    g = BASE.geometry
    for rec in base_run.vehicles:
        sched = rec.schedule
        assert rec.cz.position(sched.tm) == pytest.approx(g.cz_length, abs=1e-6)
        path = g.path_length(rec.spec.movement.turn)
        assert rec.mz.position(sched.tf) == pytest.approx(g.cz_length + path, abs=1e-6)
        # control is continuous across the merge-zone entry
        assert rec.mz.control(sched.tm) == pytest.approx(float(rec.cz.control(sched.tm)), abs=1e-9)


def test_sample_table_covers_zones(base_run):
    step = BASE.sample_step
    table = oracles.sample_rows(base_run.samples)
    for rec in base_run.vehicles:
        rows = [r for r in table if r.vehicle_id == rec.spec.vehicle_id]
        assert rows
        zones = [r.zone for r in rows]
        # zones appear in traversal order with no interleaving
        order = [z for i, z in enumerate(zones) if i == 0 or zones[i - 1] != z]
        assert order in (["cz", "mz", "out"], ["cz", "mz"], ["cz"])
        mz_rows = [r for r in rows if r.zone == "mz"]
        if mz_rows:
            assert mz_rows[0].t >= rec.schedule.tm - 1e-9
            assert mz_rows[0].t - rec.schedule.tm < step + 1e-9
        for row in rows:
            assert row.v > 0.0


def test_sample_grid_is_shared(base_run):
    step = BASE.sample_step
    for row in oracles.sample_rows(base_run.samples):
        k = row.t / step
        assert abs(k - round(k)) < 1e-9


def test_run_builds_the_state_table_only_when_read(monkeypatch):
    calls = []
    sample_states = sim_module._sample_states

    def counting(records, cfg):
        calls.append(len(records))
        return sample_states(records, cfg)

    monkeypatch.setattr(sim_module, "_sample_states", counting)
    result = run(SimConfig(seed=7, vehicle_count=8))
    audit_run(result)
    assert calls == []
    table = result.samples
    assert result.samples is table
    assert calls == [8]
    assert "samples" not in {field.name for field in dataclasses.fields(SimRun)}


def test_run_keeps_only_decisions_and_audits_when_read(monkeypatch):
    calls = []
    audit = sim_module.audit_run

    def counting(run_result):
        calls.append(len(run_result.vehicles))
        return audit(run_result)

    monkeypatch.setattr(sim_module, "audit_run", counting)
    result = run(SimConfig(seed=7, vehicle_count=8))
    assert [field.name for field in dataclasses.fields(SimRun)] == ["config", "vehicles", "gate"]
    assert "leave_time" not in {field.name for field in dataclasses.fields(VehicleRecord)}
    assert calls == []
    report = result.audit
    assert calls == [8]
    assert result.audit is report
    assert report == audit(result)
    assert result.binding_histogram is result.binding_histogram
    assert calls == [8]


def test_replaced_run_derives_its_own_audit_histogram_and_samples(base_run):
    # read every view of the base run first, so a copy could inherit them
    assert base_run.audit.ok
    histogram = base_run.binding_histogram
    samples = base_run.samples
    lateral = next(r for r in base_run.vehicles if r.schedule.binding_case == "lateral")
    perturbed = _perturbed(base_run, lateral.spec.vehicle_id, dtm=-0.5)
    assert not perturbed.audit.ok
    assert perturbed.audit == audit_run(perturbed)
    assert perturbed.samples.tolist() != samples.tolist()
    assert perturbed.samples.tolist() == sim_module._sample_states(
        perturbed.vehicles, BASE).tolist()
    head = replace(base_run, vehicles=base_run.vehicles[:10])
    assert sum(head.binding_histogram.values()) == 10
    assert head.binding_histogram == {
        case: sum(r.schedule.binding_case == case for r in head.vehicles) for case in histogram
    }
    assert set(head.samples["vehicle_id"].tolist()) == set(range(1, 11))
    assert base_run.binding_histogram is histogram and base_run.samples is samples


@pytest.mark.parametrize(
    "objective, weight",
    [(MzVariant.JERK_ONLY, None), (MzVariant.FUEL_ONLY, None), (MzVariant.WEIGHTED, 0.5)],
)
def test_plan_crossing_reproduces_every_record(objective, weight):
    # against the rule written out by hand from the schedule: the approach
    # to (tm, vm), the merge optimum entered with its end control, then the
    # exit lane at vf until min_safe_distance past the merge exit
    cfg = SimConfig(seed=7, objective=objective, weight=weight)
    g = cfg.geometry
    result = run(cfg)
    for rec in result.vehicles:
        sched = rec.schedule
        cz = solve_cz(rec.spec.t0, rec.spec.v0, sched.tm, sched.vm, g.cz_length)
        boundary = MzBoundary(
            tm=sched.tm, tf=sched.tf, vm=sched.vm, vf=sched.vf, p_start=g.cz_length,
            p_end=g.cz_length + g.path_length(sched.movement.turn),
            u_start=float(cz.control(sched.tm)),
        )
        mz = solve_mz(boundary, objective, weight, g.u_max, cfg.jerk_scale)
        out = PolyTrajectory(sched.tf, sched.tf + g.min_safe_distance / sched.vf,
                             (0.0, 0.0, sched.vf, boundary.p_end))
        # dataclass equality: every coefficient and constant, by ==
        assert (rec.cz, rec.mz, rec.out) == (cz, mz, out)
        assert plan_crossing(rec.spec, sched.tm, sched.tf, g, objective, weight,
                             cfg.jerk_scale) == (cz, mz, out)


@pytest.mark.parametrize("rate", [0.25, 2.0])
def test_each_piece_starts_where_the_one_before_ends(rate):
    # the approach ends at tm, the merge spans [tm, tf], and the exit lane
    # starts at tf, bit for bit, and runs at vf with no control or jerk
    # until the vehicle is min_safe_distance past the merge exit
    cfg = SimConfig(seed=5, arrival_rate=rate, vehicle_count=40)
    delta = cfg.geometry.min_safe_distance
    for rec in run(cfg).vehicles:
        sched, out = rec.schedule, rec.out
        assert (rec.cz.t1, rec.mz.t0, rec.mz.t1) == (sched.tm, sched.tm, sched.tf)
        assert out.t0 == sched.tf and out.t1 == sched.tf + delta / sched.vf
        times = np.linspace(out.t0, out.t1, 7)
        assert (out.speed(times) == sched.vf).all()
        assert not out.control(times).any() and not out.jerk(times).any()
        assert float(out.position(out.t0)) == pytest.approx(float(rec.mz.position(sched.tf)),
                                                             abs=1e-9)
        assert float(out.position(out.t1) - out.position(out.t0)) == pytest.approx(delta)


def test_objective_changes_mz_only():
    jerk = run(SimConfig(seed=7, objective=MzVariant.JERK_ONLY))
    fuel = run(SimConfig(seed=7, objective=MzVariant.FUEL_ONLY))
    wtd = run(SimConfig(seed=7, objective=MzVariant.WEIGHTED, weight=0.5))
    for a, b in ((jerk, fuel), (jerk, wtd)):
        assert [r.schedule for r in a.vehicles] == [r.schedule for r in b.vehicles]
        for ra, rb in zip(a.vehicles, b.vehicles):
            assert ra.cz.coefficients == rb.cz.coefficients
    # at least one vehicle shapes its crossing differently per objective
    diffs = 0
    for ra, rb in zip(jerk.vehicles, fuel.vehicles):
        t = 0.5 * (ra.schedule.tm + ra.schedule.tf)
        if abs(float(ra.mz.control(t)) - float(rb.mz.control(t))) > 1e-6:
            diffs += 1
    assert diffs > 0


def _rotated(movement, k):
    """movement turned k quarter turns clockwise: same turn, entry arm k
    arms further round."""
    arms = list(Arm)
    return Movement(arms[(arms.index(movement.entry_arm) + k) % len(arms)], movement.turn)


@pytest.mark.parametrize("rate", [0.25, 1.0, 2.0])
def test_rotating_every_arrival_rotates_every_record(monkeypatch, rate):
    # the junction looks the same from every arm, so arrivals turned by one,
    # two or three arms give the same run with every movement turned alike
    for seed in range(3):
        cfg = SimConfig(seed=seed, arrival_rate=rate, vehicle_count=30)
        base = run(cfg)
        for k in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(sim_module, "generate_arrivals", lambda c, k=k: [
                    replace(spec, movement=_rotated(spec.movement, k))
                    for spec in generate_arrivals(c)
                ])
                turned = run(cfg)
            assert len(turned.vehicles) == len(base.vehicles)
            for got, rec in zip(turned.vehicles, base.vehicles):
                movement = _rotated(rec.spec.movement, k)
                assert got.spec == replace(rec.spec, movement=movement)
                assert got.arrival_time == rec.arrival_time
                assert got.schedule == replace(rec.schedule, movement=movement)
                assert (got.cz, got.mz) == (rec.cz, rec.mz)
            assert turned.gate == base.gate


# the same three properties on random valid geometries, rates and entry
# speeds; a config drawn is one that IntersectionGeometry and SimConfig
# accept, and no shrinking, so a failing case reads as it was drawn


@st.composite
def _random_configs(draw):
    mz_side = draw(st.floats(5.0, 60.0))
    v_max = draw(st.floats(5.0, 30.0))
    low = draw(st.floats(1.0, v_max))
    speeds = [draw(st.floats(1.0, v_max)) for _ in range(3)]
    try:
        geometry = IntersectionGeometry(
            cz_length=draw(st.floats(2.0 * mz_side, 1000.0)), mz_side=mz_side,
            min_safe_distance=draw(st.floats(2.0, 30.0)), v_max=v_max,
            u_min=-draw(st.floats(0.5, 5.0)), u_max=draw(st.floats(0.5, 5.0)),
            mz_speed_left=speeds[0], mz_speed_straight=speeds[1], mz_speed_right=speeds[2],
        )
        return SimConfig(
            geometry=geometry, arrival_rate=draw(st.floats(0.05, 3.0)),
            entry_speed_range=(low, draw(st.floats(low, v_max))),
            vehicle_count=draw(st.integers(6, 12)), seed=draw(st.integers(0, 2**16)),
        )
    except ValueError:
        reject()


_RANDOM_CONFIG_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None,
                                   phases=[Phase.generate])


@_RANDOM_CONFIG_SETTINGS
@given(cfg=_random_configs(), k=st.integers(1, 3))
def test_rotating_every_arrival_rotates_every_record_on_random_geometries(cfg, k):
    base = run(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "generate_arrivals", lambda c: [
            replace(spec, movement=_rotated(spec.movement, k)) for spec in generate_arrivals(c)
        ])
        turned = run(cfg)
    assert len(turned.vehicles) == len(base.vehicles)
    for got, rec in zip(turned.vehicles, base.vehicles):
        movement = _rotated(rec.spec.movement, k)
        assert got.spec == replace(rec.spec, movement=movement)
        assert got.arrival_time == rec.arrival_time
        assert got.schedule == replace(rec.schedule, movement=movement)
        assert (got.cz, got.mz) == (rec.cz, rec.mz)
    assert turned.gate == base.gate


@_RANDOM_CONFIG_SETTINGS
@given(cfg=_random_configs())
def test_objective_changes_mz_only_on_random_geometries(cfg):
    try:
        weighted = replace(cfg, objective=MzVariant.WEIGHTED, weight=0.5)
    except ValueError:
        reject()
    jerk = run(cfg)
    for other in (replace(cfg, objective=MzVariant.FUEL_ONLY), weighted):
        result = run(other)
        assert [r.schedule for r in result.vehicles] == [r.schedule for r in jerk.vehicles]
        assert [r.cz for r in result.vehicles] == [r.cz for r in jerk.vehicles]


@_RANDOM_CONFIG_SETTINGS
@given(cfg=_random_configs())
def test_exit_times_meet_their_binding_candidate_on_random_geometries(cfg):
    # each tf is exactly the candidate its binding case names, and no
    # candidate exceeds it; tm is tf less the window, and tf never falls
    # along the queue
    g = cfg.geometry
    delta = g.min_safe_distance
    queue = [rec.schedule for rec in run(cfg).vehicles]
    by_id = {sched.vehicle_id: sched for sched in queue}
    for sched in queue:
        transit = g.transit_time(sched.movement.turn)
        candidates = {"feasibility": earliest_mz_arrival(sched.t0, sched.v0, g) + transit}
        for case, pred_id in (("same_exit", sched.same_exit_pred),
                              ("same_entry", sched.same_entry_pred),
                              ("lateral", sched.lateral_pred), ("fifo", sched.fifo_pred)):
            if pred_id is None:
                continue
            pred = by_id[pred_id]
            candidates[case] = {
                "same_exit": pred.tf + delta / pred.vf,
                "same_entry": max(pred.tm + delta / pred.vm + transit, pred.tf),
                "lateral": pred.tf + transit,
                "fifo": pred.tf,
            }[case]
        assert sched.tf == candidates[sched.binding_case]
        assert max(candidates.values()) == sched.tf
        assert sched.tm == sched.tf - transit
    assert all(later.tf >= earlier.tf for earlier, later in zip(queue, queue[1:]))


def test_weighted_objective_runs_clean():
    result = run(SimConfig(seed=9, objective=MzVariant.WEIGHTED, weight=0.2))
    assert result.audit.ok


@pytest.mark.parametrize("rate", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("geometry", [IntersectionGeometry(),
                                      IntersectionGeometry().with_curve_speeds(0.2)],
                         ids=["table", "formula"])
def test_every_crossing_leaves_at_the_through_speed_and_audits_clean(geometry, rate):
    # each vehicle enters at its curve speed, leaves at the through speed,
    # and takes its turn's window, with the table's speeds or the formula's
    for seed in range(20):
        result = run(SimConfig(geometry=geometry, arrival_rate=rate, seed=seed))
        assert result.audit.ok, f"seed {seed}: {result.audit.findings}"
        for rec in result.vehicles:
            sched, turn = rec.schedule, rec.spec.movement.turn
            assert (sched.vm, sched.vf) == (geometry.mz_speed(turn), geometry.mz_speed_straight)
            assert sched.tf - sched.tm == pytest.approx(geometry.transit_time(turn), abs=1e-12)
            assert float(rec.mz.speed(sched.tm)) == pytest.approx(sched.vm, abs=1e-9)
            assert float(rec.mz.speed(sched.tf)) == pytest.approx(sched.vf, abs=1e-9)


# ---------------------------------------------------------------------------
# independent audit


def _perturbed(base, vehicle_id, dt0=0.0, dtm=0.0, dtf=0.0):
    """The run base with one vehicle's control-zone entry, merge entry and
    merge exit moved by dt0, dtm and dtf, and its crossing planned again."""
    cfg = base.config
    records = []
    for rec in base.vehicles:
        if rec.spec.vehicle_id != vehicle_id:
            records.append(rec)
            continue
        spec = replace(rec.spec, t0=rec.spec.t0 + dt0)
        tm, tf = rec.schedule.tm + dtm, rec.schedule.tf + dtf
        sched = replace(rec.schedule, t0=spec.t0, tm=tm, tf=tf)
        cz, mz, out = plan_crossing(spec, tm, tf, cfg.geometry, cfg.objective, cfg.weight,
                               cfg.jerk_scale)
        records.append(replace(rec, spec=spec, schedule=sched, cz=cz, mz=mz, out=out))
    return replace(base, vehicles=tuple(records))


def test_audit_catches_shrunk_merge_entry(base_run):
    lateral = [r for r in base_run.vehicles if r.schedule.binding_case == "lateral"]
    assert lateral, "reference scenario should bind on a crossing at least once"
    victim = lateral[0].spec.vehicle_id
    report = _perturbed(base_run, victim, dtm=-0.5).audit
    assert not report.ok
    assert any(f.kind == "mz_overlap" for f in report.findings)


def _with_spacing(result, min_safe_distance):
    """result with its geometry's min_safe_distance replaced."""
    cfg = result.config
    geometry = replace(cfg.geometry, min_safe_distance=min_safe_distance)
    return replace(result, config=replace(cfg, geometry=geometry))


def test_audit_sensitivity_to_spacing_override(base_run):
    stricter = audit_run(_with_spacing(base_run, 2 * BASE.geometry.min_safe_distance))
    assert not stricter.ok
    assert any(f.kind in ("cz_gap", "exit_spacing") for f in stricter.findings)


def test_audit_ignores_scheduler_bookkeeping(base_run):
    # wiping the candidate labels must not change the verdict
    records = tuple(
        replace(rec, schedule=replace(rec.schedule, binding_case="feasibility",
                                      same_exit_pred=None, same_entry_pred=None,
                                      lateral_pred=None, fifo_pred=None))
        for rec in base_run.vehicles
    )
    report = audit_run(replace(base_run, vehicles=records))
    assert report.ok


def test_audit_reads_no_schedule(base_run):
    # exit speeds come from the exit-lane pieces, so the same records with no
    # schedule at all give the same report, clean or with findings of every kind
    lateral = next(r for r in base_run.vehicles if r.schedule.binding_case == "lateral")
    runs = (base_run, _with_spacing(base_run, 2 * BASE.geometry.min_safe_distance),
            _perturbed(base_run, lateral.spec.vehicle_id, dtm=-0.5, dtf=-0.5))
    kinds = set()
    for result in runs:
        report = audit_run(result)
        kinds.update(f.kind for f in report.findings)
        bare = tuple(replace(rec, schedule=None) for rec in result.vehicles)
        assert audit_run(replace(result, vehicles=bare)) == report
    assert kinds == {"cz_gap", "mz_overlap", "exit_spacing"}


def _imported_modules(path):
    """Every module an import statement in the source file at path names,
    with each name a from-import takes from a package, relative ones
    resolved against the crossflow package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["crossflow", module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_audit_module_imports_neither_the_scheduler_nor_the_simulator():
    # nor any planner: among the package's modules the audit imports only
    # the geometry, under TYPE_CHECKING too
    path = pathlib.Path(audit_module.__file__)
    assert path.name == "audit.py"
    imported = _imported_modules(path)
    assert "crossflow.geometry" in imported
    for module in ("crossflow.cz_planner", "crossflow.mz_planner", "crossflow.scheduler",
                   "crossflow.sim"):
        assert not {name for name in imported if name == module or name.startswith(module + ".")}
    assert {name.split(".")[1] for name in imported if name.startswith("crossflow.")} == {
        "geometry"}


def test_the_simulator_reads_no_merge_planner_internals():
    # a weighted merge piece is evaluated through MzTrajectory's public
    # derivatives, not its basis fields
    path = pathlib.Path(sim_module.__file__)
    assert path.name == "sim.py"
    imported = _imported_modules(path)
    assert "crossflow.mz_planner.MzTrajectory" in imported
    assert not {name for name in imported
                if name.startswith("crossflow.mz_planner._")}
    attributes = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)}
    assert not attributes & {"_regime", "_poly", "_beta", "rate_pos"}


CHECKS = ("_BOUND_EPS", "too_close", "gap_to", "Violation", "FeasibilityReport",
          "check_feasibility", "audit_queue", "audit_run", "AuditFinding", "AuditReport")


def test_the_audit_has_one_home():
    assert sim_module.audit_run is audit_module.audit_run
    assert crossflow.audit_run is audit_module.audit_run
    assert crossflow.AuditFinding is audit_module.AuditFinding
    assert crossflow.AuditReport is audit_module.AuditReport
    assert not hasattr(crossflow.scheduler, "QueueFinding")


def test_every_closed_form_check_has_one_home():
    # every check is defined in the audit module alone; the planner and
    # the scheduler each keep one name bound to it
    assert crossflow.cz_planner.check_feasibility is audit_module.check_feasibility
    assert crossflow.scheduler.audit_queue is audit_module.audit_queue
    assert not hasattr(crossflow.cz_planner, "_speed_extremum_times")
    kept = {"cz_planner": {"check_feasibility"}, "scheduler": {"audit_queue"}}
    for path in pathlib.Path(audit_module.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        if path.stem == "audit":
            assert set(CHECKS) <= defined
            continue
        assert not defined & set(CHECKS), path.name
        if path.stem in kept:
            bound = {alias.asname or alias.name for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.module == "crossflow.audit"
                     for alias in node.names}
            assert bound == kept[path.stem], path.name


@pytest.mark.parametrize("shift", [0.05, 0.01])
@pytest.mark.parametrize("seed", range(5))
def test_audit_catches_slightly_shrunk_merge_entry(seed, shift):
    # a crossing-bound vehicle's merge entry moved earlier by less than the
    # 0.1 s sample step still overlaps its crossing predecessor's window
    cfg = SimConfig(seed=seed)
    result = run(cfg)
    victim = next(r for r in result.vehicles if r.schedule.binding_case == "lateral")
    report = _perturbed(result, victim.spec.vehicle_id, dtm=-shift).audit
    overlaps = [f for f in report.findings
                if f.kind == "mz_overlap" and f.vehicle_id == victim.spec.vehicle_id]
    assert overlaps
    assert max(f.value for f in overlaps) == pytest.approx(shift, abs=1e-6)


# the audit against the all-pairs exact oracle, clean and perturbed; every
# finding of the sampled audit is one of its findings

AUDIT_RATES = (0.25, 1.0, 2.0)


@pytest.fixture(scope="module")
def audit_runs():
    return {
        rate: run(SimConfig(seed=3, arrival_rate=rate, vehicle_count=40))
        for rate in AUDIT_RATES
    }


def _assert_audits_agree(result, min_safe_distance=None):
    # the run audit of result, or of result with the spacing replaced,
    # against both oracles at that spacing on result's own records and table
    cfg, records = result.config, result.vehicles
    audited = result if min_safe_distance is None else _with_spacing(result, min_safe_distance)
    report = audit_run(audited)
    kwargs = {"min_safe_distance": min_safe_distance}
    assert report == oracles.audit_exact_pairwise(cfg, records, **kwargs)
    assert audit_run(replace(audited, vehicles=records[::-1])) == report
    sampled = oracles.audit_pairwise(cfg, records, oracles.sample_rows(result.samples), **kwargs)
    exact_pairs = {(f.kind, f.vehicle_id, f.other_id) for f in report.findings}
    assert {(f.kind, f.vehicle_id, f.other_id) for f in sampled.findings} <= exact_pairs
    return report


@pytest.mark.parametrize("rate", AUDIT_RATES)
def test_audit_matches_pairwise_oracle_on_clean_runs(audit_runs, rate):
    result = audit_runs[rate]
    report = _assert_audits_agree(result)
    assert report.ok


@pytest.mark.parametrize("rate", AUDIT_RATES)
@pytest.mark.parametrize("factor", [0.5, 2.0, 3.0])
def test_audit_matches_pairwise_oracle_with_spacing_override(audit_runs, rate, factor):
    result = audit_runs[rate]
    delta = factor * result.config.geometry.min_safe_distance
    report = _assert_audits_agree(result, min_safe_distance=delta)
    assert report.ok == (factor < 1.0)


@pytest.mark.parametrize(
    "case, kind",
    [
        # criterion 9: a crossing-bound vehicle enters the merge zone early
        ("lateral", "mz_overlap"),
        # a same-exit follower leaves the merge zone early
        ("same_exit", "exit_spacing"),
        # a gated follower enters the control zone early
        ("gated", "cz_gap"),
    ],
)
@pytest.mark.parametrize("rate", [1.0, 2.0])
def test_audit_matches_pairwise_oracle_on_perturbed_records(audit_runs, rate, case, kind):
    result = audit_runs[rate]
    if case == "gated":
        victims = [r for r in result.vehicles if r.spec.t0 > r.arrival_time]
        shift = {"dt0": -0.5}
    else:
        victims = [r for r in result.vehicles if r.schedule.binding_case == case]
        shift = {"dtm": -0.5} if case == "lateral" else {"dtf": -0.5}
    assert victims
    report = _assert_audits_agree(_perturbed(result, victims[0].spec.vehicle_id, **shift))
    assert kind in {f.kind for f in report.findings}


# ---------------------------------------------------------------------------
# the fast gate and sampler against their per-probe and per-row oracles


def _assert_same_rows(table, slow):
    assert table.dtype == sim_module.SAMPLE_DTYPE
    fast = oracles.sample_rows(table)
    assert oracles.row_bits(fast) == oracles.row_bits(slow)
    for fast_row, slow_row in zip(fast, slow):
        assert [type(x) for x in fast_row] == [type(x) for x in slow_row]
        for name in ("t", "p", "v", "u", "j"):
            assert type(getattr(fast_row, name)) is float


def _assert_gate_matches_oracle(monkeypatch, cfg):
    fast = run(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "_gated_entry", oracles.gated_entry_by_full_schedule)
        slow = run(cfg)
    assert any(rec.spec.t0 > rec.arrival_time for rec in slow.vehicles)
    assert fast.vehicles == slow.vehicles
    # the best-first admission against a full search of every arm head
    admitted = [(rec.arrival_time, rec.spec.t0) for rec in fast.vehicles]
    assert admitted == oracles.admissions_by_full_search(cfg)
    return fast, slow


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gate_matches_full_schedule_oracle(monkeypatch, seed, rate):
    fast, slow = _assert_gate_matches_oracle(
        monkeypatch, SimConfig(seed=seed, arrival_rate=rate, vehicle_count=24)
    )
    assert fast.samples.tolist() == slow.samples.tolist()


@pytest.mark.parametrize(
    "cfg",
    [
        # one busy arm: its heads queue behind their own lane leaders
        SimConfig(seed=4, arrival_rate=1.0, vehicle_count=60,
                  arm_probabilities=(0.7, 0.1, 0.15, 0.05)),
        # deep saturation: many heads held at every admission
        SimConfig(seed=5, arrival_rate=2.0, vehicle_count=120),
    ],
    ids=["skewed-arms", "saturated-120"],
)
def test_best_first_admission_matches_full_search_oracle(monkeypatch, cfg):
    fast, _ = _assert_gate_matches_oracle(monkeypatch, cfg)
    assert fast.gate.cut > 0


def _held_searches(monkeypatch, cfg):
    """Arguments and full answer of each search in a run that holds its
    vehicle past its gated t0."""
    searches = []
    search = sim_module._gated_entry

    def recording(spec, preds, leader, g, stats):
        _, entry = oracles.finish_search(search(spec, preds, leader, g, GateStats()))
        if entry > spec.t0:
            searches.append((spec, preds, leader, g, entry))
        return search(spec, preds, leader, g, stats)

    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "_gated_entry", recording)
        run(cfg)
    return searches


def _cut_off(search, cutoff):
    """A gate search dropped at its first yield at or past cutoff, as the
    admission drops a search that can no longer win: None then, and
    otherwise its answer."""
    try:
        while next(search) < cutoff:
            pass
    except StopIteration as done:
        return done.value
    return None


def _recording_probes(monkeypatch, probes, min_safe_distance):
    """Record (t0, clear) of every gap the gate measures, one per probe."""
    prepare = sim_module.gap_to

    def recording(leader):
        min_gap = prepare(leader)

        def measured(coefficients, t0, t1):
            found = min_gap(coefficients, t0, t1)
            probes.append((t0, found is None or not too_close(found[0], min_safe_distance)))
            return found

        return measured

    monkeypatch.setattr(sim_module, "gap_to", recording)


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gate_cutoff_returns_unbounded_answer_or_none_above_it(monkeypatch, seed, rate):
    cfg = SimConfig(seed=seed, arrival_rate=rate, vehicle_count=36)
    searches = _held_searches(monkeypatch, cfg)
    assert len(searches) >= 10
    probes = []
    _recording_probes(monkeypatch, probes, cfg.geometry.min_safe_distance)
    outcomes = set()
    for spec, preds, leader, g, entry in searches:
        # every yield is a probed time found not clear, from t0 on and below
        # the answer, and a held search yields t0 first
        probes.clear()
        yields, answer = oracles.finish_search(
            sim_module._gated_entry(spec, preds, leader, g, GateStats())
        )
        assert answer == entry
        assert yields == [t for t, clear in probes if not clear]
        assert yields[0] == spec.t0
        assert all(spec.t0 <= t < entry for t in yields)
        assert yields == sorted(set(yields))
        hold = entry - spec.t0
        cutoffs = [
            spec.t0 - 1.0, spec.t0, spec.t0 + 0.3 * hold, spec.t0 + 0.9 * hold,
            entry - 1e-7, entry - 1e-9, entry, entry + 1e-9, entry + 1.0,
        ]
        for cutoff in cutoffs:
            got = _cut_off(sim_module._gated_entry(spec, preds, leader, g, GateStats()), cutoff)
            if got is None:
                assert entry > cutoff
            else:
                assert got == entry
            outcomes.add((got is None, cutoff >= entry, cutoff <= spec.t0))
        # no probe found not clear reaches a cutoff at or past the answer,
        # and the first probe is not clear, so a cutoff at or before t0
        # ends the search at once
        stats = GateStats()
        assert _cut_off(sim_module._gated_entry(spec, preds, leader, g, stats), spec.t0) is None
        assert stats.probes == 1
    # both outcomes occur strictly between t0 and the answer
    assert (True, False, False) in outcomes
    assert (False, False, False) in outcomes


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gate_answer_is_a_clear_probe_just_past_one_not_clear(monkeypatch, seed, rate):
    cfg = SimConfig(seed=seed, arrival_rate=rate, vehicle_count=36)
    searches = _held_searches(monkeypatch, cfg)
    assert len(searches) >= 10
    probes = []
    _recording_probes(monkeypatch, probes, cfg.geometry.min_safe_distance)
    for spec, preds, leader, g, entry in searches:
        probes.clear()
        stats = GateStats()
        _, answer = oracles.finish_search(sim_module._gated_entry(spec, preds, leader, g, stats))
        assert answer == entry
        assert stats.probes == len(probes) <= 40
        assert (entry, True) in probes
        # every probe not clear is a lower bound, and the last bracket is
        # no wider than the resolution
        not_clear = [t for t, clear in probes if not clear]
        assert all(spec.t0 <= t < entry for t in not_clear)
        assert max(not_clear) >= entry - sim_module._GATE_RESOLUTION


def _exact_verdict(leader, coefficients, t0, t1, min_safe_distance):
    """The exact oracle's verdict on too_close, against the same bound."""
    bound = Fraction(min_safe_distance) - Fraction(audit_module._BOUND_EPS)
    return oracles.gap_below_exact(leader, coefficients, t0, t1, bound)


@pytest.mark.parametrize("seed", [1, 2])
def test_gap_rule_matches_exact_arithmetic(monkeypatch, seed):
    # the gate, the audit and the oracles all reach the lane-leader gap
    # through gap_to, so its verdict is checked here against exact
    # arithmetic: on every lane pair of a run, at the run's spacing and at
    # twice it, and on every probe of its held gate searches
    cfg = SimConfig(seed=seed, arrival_rate=2.0, vehicle_count=24)
    delta = cfg.geometry.min_safe_distance
    verdicts = []
    ahead = {}
    for rec in sorted(run(cfg).vehicles, key=lambda rec: rec.spec.vehicle_id):
        leader = ahead.get(rec.spec.movement.entry_arm)
        ahead[rec.spec.movement.entry_arm] = rec
        if leader is None:
            continue
        found = audit_module.gap_to(leader.cz)(rec.cz.coefficients, rec.cz.t0, rec.cz.t1)
        for spacing in (delta, 2.0 * delta):
            exact = _exact_verdict(leader.cz, rec.cz.coefficients, rec.cz.t0, rec.cz.t1, spacing)
            assert (found is None) == (exact is None)
            if found is not None:
                assert too_close(found[0], spacing) == exact
                verdicts.append(exact)
    assert True in verdicts and False in verdicts

    searches = _held_searches(monkeypatch, cfg)
    assert len(searches) >= 5
    probes = []
    prepare = sim_module.gap_to

    def recording(leader):
        min_gap = prepare(leader)

        def measured(coefficients, t0, t1):
            found = min_gap(coefficients, t0, t1)
            probes.append((leader, coefficients, t0, t1, found))
            return found

        return measured

    monkeypatch.setattr(sim_module, "gap_to", recording)
    for spec, preds, leader, g, entry in searches:
        probes.clear()
        _, answer = oracles.finish_search(sim_module._gated_entry(spec, preds, leader, g, GateStats()))
        clear_at = {}
        for lead, coefficients, t0, t1, found in probes:
            exact = _exact_verdict(lead, coefficients, t0, t1, delta)
            assert (found is None) == (exact is None)
            clear_at[t0] = found is None or not too_close(found[0], delta)
            assert clear_at[t0] == (exact is not True)
        # the answer is the last clear probe, and the last probe found not
        # clear lies within the gate's resolution below it
        last_not_clear = max(t for t, clear in clear_at.items() if not clear)
        assert clear_at[answer] and 0.0 < answer - last_not_clear <= sim_module._GATE_RESOLUTION


# slack profiles clear exactly from the boundary on, each of the signed
# distance d = t - boundary: linear, a steep root, a flat cubic, and a knee
# that is steep below the boundary and flat on the clear side, as a traced
# gate gap was (+0.0104 m at the clear end, -0.0013 m 1.2e-4 s earlier)
_SLACKS = {
    "linear": lambda d: d,
    "root": lambda d: math.copysign(abs(d) ** 0.2, d),
    "cubic": lambda d: d**3,
    "knee": lambda d: 10.8 * d if d < 0.0 else -0.0104 * math.expm1(-d * 10.8 / 0.0104),
}


def _clear_search(slack, start, boundary, cap):
    """Every probe (t, clear) of one _earliest_clear search on a probe clear
    exactly from boundary on, with the slack slack(t - boundary), and the
    search's yields and answer."""
    probes = []

    def probe(t):
        probes.append((t, t >= boundary))
        return t >= boundary, slack(t - boundary)

    yields, answer = oracles.finish_search(sim_module._earliest_clear(probe, start, cap))
    return probes, yields, answer


def _narrowing(probes):
    """The first bracket's width and the probes after the first clear one."""
    first = next(i for i, (_, clear) in enumerate(probes) if clear)
    return probes[first][0] - probes[first - 1][0], probes[first + 1:]


def _bisections(width):
    """How many probes bisection takes to narrow width to the resolution."""
    return max(0, math.ceil(math.log2(width / sim_module._GATE_RESOLUTION)))


_SEARCHES = dict(
    start=st.floats(0.0, 200.0),
    hold=st.floats(0.0, 100.0),
    past=st.floats(0.0, 50.0),
    scale=st.floats(1e-3, 1e3),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(_SLACKS)), **_SEARCHES)
def test_earliest_clear_narrows_within_four_probes_of_bisection(kind, start, hold, past, scale):
    boundary = start + hold
    probes, yields, answer = _clear_search(
        lambda d: scale * _SLACKS[kind](d), start, boundary, boundary + past
    )
    resolution = sim_module._GATE_RESOLUTION
    if start >= boundary:
        assert (probes, yields, answer) == ([(start, True)], [], start)
        return
    # the yields increase, each a probed time found not clear below the answer
    not_clear = [t for t, clear in probes if not clear]
    assert yields == not_clear
    assert all(a < b for a, b in zip(yields, yields[1:]))
    assert yields[0] == start and yields[-1] < answer
    # the answer is a clear probe within the resolution of the last one not clear
    assert (answer, True) in probes
    assert 0.0 < answer - yields[-1] <= resolution
    assert 0.0 <= answer - boundary < resolution
    width, narrowing = _narrowing(probes)
    assert len(narrowing) <= _bisections(width) + 4


@settings(max_examples=100, derandomize=True, deadline=None)
@given(**_SEARCHES)
def test_earliest_clear_bisects_when_the_clear_end_has_infinite_slack(start, hold, past, scale):
    boundary = start + hold
    probes, _, answer = _clear_search(
        lambda d: -scale if d < 0.0 else math.inf, start, boundary, boundary + past
    )
    if start >= boundary:
        return
    width, narrowing = _narrowing(probes)
    assert len(narrowing) == _bisections(width)
    # every narrowing probe is the midpoint of the bracket before it
    first = len(probes) - len(narrowing) - 1
    low, high = probes[first - 1][0], probes[first][0]
    for t, clear in narrowing:
        assert t == 0.5 * (low + high)
        low, high = (low, t) if clear else (t, high)
    assert answer == high


def _gate_totals(rate, vehicles):
    totals = [0, 0, 0]
    for seed in range(1_000_000, 1_000_006):
        gate = run(SimConfig(arrival_rate=rate, vehicle_count=vehicles, seed=seed)).gate
        totals = [totals[0] + gate.searches, totals[1] + gate.cut, totals[2] + gate.probes]
    return totals


def test_gate_work_on_saturated_and_light_runs():
    # the benchmark's saturated and light configurations; a search of
    # every arm head at every commit made 617 searches and 15,665 probes
    # on the saturated six and 2,801 searches on the light six, a 0.25 s
    # scan with a bisection made 7,302 and 2,704 probes, and searches in
    # order of their heads' first bounds, each cut off at the best entry
    # so far, made 1,923 and 1,237; the best-first admission makes 1,260
    # and 1,171
    searches, cut, probes = _gate_totals(2.0, 30)
    assert searches <= 300
    assert probes <= 1_300
    assert 0 < cut < searches
    searches, _, probes = _gate_totals(0.25, 120)
    assert searches <= 750
    assert 0 < probes <= 1_200


# sha256 of every gate probe, GateStats and record of the saturated six and
# one 240-vehicle 2.0 veh/s run; plain-float arithmetic alone feeds them
PROBE_DIGEST = "ea7409dfb1715272b73c35454d6cb350eb64e965cdd6445549d635563559d400"


def test_every_gate_probe_keeps_its_bits(monkeypatch):
    digest = hashlib.sha256()
    count = 0
    prepare = sim_module.gap_to

    def recording(leader):
        min_gap = prepare(leader)
        lead = (leader.coefficients, leader.t0, leader.t1)

        def measured(coefficients, t0, t1):
            nonlocal count
            found = min_gap(coefficients, t0, t1)
            digest.update(repr((lead, coefficients, t0, t1, found)).encode())
            count += 1
            return found

        return measured

    monkeypatch.setattr(sim_module, "gap_to", recording)
    configs = [SimConfig(arrival_rate=2.0, vehicle_count=30, seed=seed)
               for seed in range(1_000_000, 1_000_006)]
    configs.append(SimConfig(arrival_rate=2.0, vehicle_count=240))
    for cfg in configs:
        result = run(cfg)
        digest.update(repr(result.gate).encode())
        for rec in result.vehicles:
            digest.update(repr((rec.spec, rec.schedule)).encode())
    assert count == 5_154
    assert digest.hexdigest() == PROBE_DIGEST


@pytest.mark.parametrize(
    "objective, weight",
    [
        (MzVariant.JERK_ONLY, None),
        (MzVariant.FUEL_ONLY, None),
        (MzVariant.WEIGHTED, 0.05),
        (MzVariant.WEIGHTED, 0.5),
        (MzVariant.WEIGHTED, 0.95),
    ],
)
def test_sampler_matches_per_row_oracle(objective, weight):
    cfg = SimConfig(seed=4, vehicle_count=12, objective=objective, weight=weight)
    records = run(cfg).vehicles
    _assert_same_rows(
        sim_module._sample_states(records, cfg), oracles.sample_states_by_row(records, cfg)
    )


@functools.lru_cache(maxsize=None)
def _small_run(objective, weight):
    return run(SimConfig(seed=4, vehicle_count=4, objective=objective, weight=weight))


# any subset of a small run's records in any order, at steps that put grid
# points on and off the zone boundaries, under every objective and both
# weighted bases (0.05 the series, 0.5 the boundary layer); no shrinking, so
# a failing case reads as it was drawn
@settings(max_examples=40, derandomize=True, deadline=None, phases=[Phase.generate])
@given(
    objective=st.sampled_from([
        (MzVariant.JERK_ONLY, None), (MzVariant.FUEL_ONLY, None),
        (MzVariant.WEIGHTED, 0.05), (MzVariant.WEIGHTED, 0.5),
    ]),
    step=st.sampled_from([0.05, 0.1, 0.37, 1.0]),
    order=st.permutations(range(4)),
    kept=st.integers(0, 4),
)
def test_sampler_matches_per_row_oracle_on_any_records(objective, step, order, kept):
    result = _small_run(*objective)
    cfg = replace(result.config, sample_step=step)
    records = [result.vehicles[i] for i in order[:kept]]
    _assert_same_rows(
        sim_module._sample_states(records, cfg), oracles.sample_states_by_row(records, cfg)
    )


def test_sampler_refuses_a_table_above_the_row_cap_before_allocating(monkeypatch):
    cfg = SimConfig(seed=4, vehicle_count=3)
    records = run(cfg).vehicles
    rows = len(sim_module._sample_states(records, cfg))
    monkeypatch.setattr(sim_module, "MAX_SAMPLE_ROWS", rows)
    assert len(sim_module._sample_states(records, cfg)) == rows
    monkeypatch.setattr(sim_module, "MAX_SAMPLE_ROWS", rows - 1)
    # without numpy the sampler can allocate nothing: the refusal comes first
    monkeypatch.setattr(sim_module, "np", None)
    with pytest.raises(ValueError, match=f"sample_step 0.1 gives {rows} sample rows, "
                                         f"more than the {rows - 1} a state table may hold"):
        sim_module._sample_states(records, cfg)


def test_sampler_orders_rows_by_time_then_id_in_any_record_order():
    cfg = SimConfig(seed=4, vehicle_count=12)
    records = run(cfg).vehicles[::-1]
    _assert_same_rows(
        sim_module._sample_states(records, cfg), oracles.sample_states_by_row(records, cfg)
    )


def test_sampler_writes_no_row_before_a_vehicles_entry_at_a_coarse_step():
    # entry times far below one grid step: the grid point t = 0 lies within
    # 1e-9 grid units of each entry, but before it
    # (SimConfig refuses a step above 2**63 - 1, the int64 sample grid)
    cfg = SimConfig(sample_step=1e18, vehicle_count=3)
    result = run(cfg)
    entry = {rec.spec.vehicle_id: rec.spec.t0 for rec in result.vehicles}
    assert min(entry.values()) > 0.0
    assert all(row.t >= entry[row.vehicle_id] for row in oracles.sample_rows(result.samples))
    # the next grid point, t = 1e18, lies long past every exit
    assert len(result.samples) == 0
    _assert_same_rows(result.samples, oracles.sample_states_by_row(result.vehicles, cfg))


def test_sampler_zone_boundaries_on_grid_points():
    # tm and tf sit exactly on grid points: the row at tm is the first
    # merge-zone row and the row at tf the first row past the merge zone
    cfg = SimConfig()
    g = cfg.geometry
    step = cfg.sample_step
    movement = Movement(Arm.WEST, Turn.STRAIGHT)
    spec = VehicleSpec(vehicle_id=1, t0=10 * step, v0=10.0, movement=movement)
    tm, tf = 400 * step, 430 * step
    vm = g.mz_speed(movement.turn)
    sched = Schedule(
        vehicle_id=1, movement=movement, t0=spec.t0, v0=spec.v0, tm=tm, tf=tf,
        vm=vm, vf=vm, binding_case="feasibility",
    )
    cz, mz, out = plan_crossing(spec, tm, tf, g, MzVariant.JERK_ONLY)
    record = VehicleRecord(spec=spec, arrival_time=spec.t0, schedule=sched, cz=cz, mz=mz,
                           out=out)
    rows = sim_module._sample_states([record], cfg)
    _assert_same_rows(rows, oracles.sample_states_by_row([record], cfg))
    zone_at = {row.t: row.zone for row in oracles.sample_rows(rows)}
    assert zone_at[399 * step] == sim_module.ZONE_CZ
    assert zone_at[tm] == sim_module.ZONE_MZ
    assert zone_at[429 * step] == sim_module.ZONE_MZ
    assert zone_at[tf] == sim_module.ZONE_OUT
