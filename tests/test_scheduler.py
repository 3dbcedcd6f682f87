from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from crossflow import (
    Arm,
    AuditFinding,
    IntersectionGeometry,
    Movement,
    Turn,
    VehicleSpec,
    audit_queue,
    earliest_mz_arrival,
    schedule,
)
from crossflow import scheduler as scheduler_module
from crossflow.geometry import ALL_MOVEMENTS
from crossflow.scheduler import PredecessorTable, Schedule


def mv(arm: str, turn: str) -> Movement:
    return Movement(Arm(arm), Turn(turn))


def schedule_behind(spec, queue, g):
    """spec scheduled behind the conflict predecessors it has in queue."""
    return schedule(spec, PredecessorTable(queue).predecessors(spec.movement), g)


def make_schedule(vehicle_id, movement, tm, tf, vm, g, t0=None, v0=10.0):
    """Handcrafted queue entry with consistent derived fields: it leaves
    the merge zone at the through speed."""
    return Schedule(
        vehicle_id=vehicle_id,
        movement=movement,
        t0=tm - 30.0 if t0 is None else t0,
        v0=v0,
        tm=tm,
        tf=tf,
        vm=vm,
        vf=g.mz_speed_straight,
        binding_case="feasibility",
    )


GEOMETRY = IntersectionGeometry()
LEFT_WINDOW = GEOMETRY.transit_time(Turn.LEFT)
RIGHT_WINDOW = GEOMETRY.transit_time(Turn.RIGHT)


# ---------------------------------------------------------------------------
# conflict predecessors


def test_predecessors_empty_queue():
    spec = VehicleSpec(1, 0.0, 10.0, mv("W", "left"))
    preds = PredecessorTable([]).predecessors(spec.movement)
    assert preds.same_exit is None
    assert preds.same_entry is None
    assert preds.lateral is None
    assert preds.fifo is None


def test_predecessors_same_lane():
    queue = [schedule_behind(VehicleSpec(1, 0.0, 10.0, mv("W", "straight")), [], GEOMETRY)]
    preds = PredecessorTable(queue).predecessors(mv("W", "left"))
    assert preds.same_entry.vehicle_id == 1
    assert preds.same_exit is None
    assert preds.lateral is None
    assert preds.fifo is None


def test_predecessors_lane_and_crossing():
    queue = []
    queue.append(schedule_behind(VehicleSpec(1, 0.0, 10.0, mv("W", "straight")), queue, GEOMETRY))
    queue.append(schedule_behind(VehicleSpec(2, 1.0, 10.0, mv("N", "straight")), queue, GEOMETRY))
    preds = PredecessorTable(queue).predecessors(mv("W", "straight"))
    assert preds.same_entry.vehicle_id == 1
    assert preds.lateral.vehicle_id == 2
    assert preds.same_exit is None
    assert preds.fifo is None


def test_predecessors_keep_latest_per_class():
    queue = []
    for i, arm in enumerate(("W", "W", "N", "W"), start=1):
        spec = VehicleSpec(i, float(i), 10.0, mv(arm, "straight"))
        queue.append(schedule_behind(spec, queue, GEOMETRY))
    preds = PredecessorTable(queue).predecessors(mv("W", "straight"))
    assert preds.same_entry.vehicle_id == 4
    assert preds.lateral.vehicle_id == 3


_RIGHT_TURNS = [m for m in ALL_MOVEMENTS if m.turn is Turn.RIGHT]
_WEST_ARM = [m for m in ALL_MOVEMENTS if m.entry_arm is Arm.WEST]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    # right turns only and one entry arm only leave some classes empty
    movements=st.one_of(
        st.lists(st.sampled_from(ALL_MOVEMENTS), max_size=40),
        st.lists(st.sampled_from(_RIGHT_TURNS), max_size=40),
        st.lists(st.sampled_from(_WEST_ARM), max_size=40),
    ),
    own=st.sampled_from(ALL_MOVEMENTS),
)
@example(movements=[], own=ALL_MOVEMENTS[0])
def test_predecessors_match_forward_scan(movements, own):
    queue = [
        make_schedule(i, m, float(i), float(i) + 3.0, 10.0, GEOMETRY)
        for i, m in enumerate(movements, start=1)
    ]
    spec = VehicleSpec(len(queue) + 1, 0.0, 10.0, own)
    fast = PredecessorTable(queue).predecessors(spec.movement)
    slow = oracles.conflict_predecessors_forward(spec, queue)
    assert all(a is b for a, b in zip(fast, slow))


@pytest.mark.parametrize(
    "own, tail",
    [
        # one entry per class: no conflict, lateral, same entry, same exit
        (("W", "straight"), [("E", "straight"), ("N", "straight"), ("W", "left"), ("S", "right")]),
        # a right turn crosses no path, so three classes are all it can have
        (("W", "right"), [("W", "straight"), ("N", "straight"), ("E", "straight")]),
    ],
)
def test_predecessor_table_keeps_the_latest_of_each_class_without_classifying(
    monkeypatch, own, tail
):
    movements = [mv("W", "straight")] * 200 + [mv(*m) for m in tail]
    queue = [
        make_schedule(i, m, float(i), float(i) + 3.0, 10.0, GEOMETRY)
        for i, m in enumerate(movements, start=1)
    ]
    calls = []
    classify = scheduler_module.classify

    def counted(a, b):
        calls.append((a, b))
        return classify(a, b)

    # admitting and reading use the classes laid out once, so neither
    # costs more behind a longer queue
    monkeypatch.setattr(scheduler_module, "classify", counted)
    table = PredecessorTable()
    for entry in queue:
        table.admit(entry)
    preds = table.predecessors(mv(*own))
    assert calls == []
    assert {p.vehicle_id for p in preds if p is not None} == set(range(201, len(queue) + 1))
    assert PredecessorTable(queue).predecessors(mv(*own)) == preds


# ---------------------------------------------------------------------------
# feasibility bound


def test_bound_at_speed_cap_is_pure_cruise():
    g = IntersectionGeometry()
    spec = VehicleSpec(1, 7.0, g.v_max, mv("W", "straight"))
    assert earliest_mz_arrival(spec.t0, spec.v0, g) == pytest.approx(7.0 + 400.0 / 13.0, abs=1e-12)


def test_bound_reaching_cap_inside_zone():
    # 2 L u_max + v0^2 = 2500 >= v_max^2 = 169: accelerate, then cruise
    g = IntersectionGeometry()
    spec = VehicleSpec(1, 0.0, 10.0, mv("W", "straight"))
    expected = 400.0 / 13.0 + 9.0 / 78.0
    assert earliest_mz_arrival(spec.t0, spec.v0, g) == pytest.approx(expected, abs=1e-12)
    oracle = oracles.bang_cruise_arrival(0.0, 10.0, 400.0, 13.0, 3.0)
    assert earliest_mz_arrival(spec.t0, spec.v0, g) == pytest.approx(oracle, abs=1e-9)


def test_bound_accelerating_throughout():
    # 2 L u_max + v0^2 = 900 < v_max^2 = 1600: never reaches the cap
    g = IntersectionGeometry(v_max=40.0, u_max=1.0, mz_speed_straight=10.0)
    spec = VehicleSpec(1, 0.0, 10.0, mv("W", "straight"))
    assert earliest_mz_arrival(spec.t0, spec.v0, g) == pytest.approx(20.0, abs=1e-12)
    oracle = oracles.bang_cruise_arrival(0.0, 10.0, 400.0, 40.0, 1.0)
    assert earliest_mz_arrival(spec.t0, spec.v0, g) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("u_max", [1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 0.05, 1.0, 3.0])
def test_bound_keeps_its_digits_at_any_acceleration(u_max):
    # below u_max = 0.08625 the vehicle never reaches v_max, and 2 L u_max is
    # far below v0^2 = 100: sqrt(2 L u_max + v0^2) - v0 cancelled 8e-8 of the
    # bound at u_max = 1e-12
    g = IntersectionGeometry(u_max=u_max)
    oracle = oracles.bang_cruise_arrival(0.0, 10.0, 400.0, 13.0, u_max)
    assert earliest_mz_arrival(0.0, 10.0, g) == pytest.approx(oracle, rel=1e-14)


def test_bound_randomized_against_forward_integration():
    import numpy as np

    rng = np.random.default_rng(42)
    for _ in range(25):
        v_max = rng.uniform(8.0, 30.0)
        v0 = rng.uniform(1.0, v_max)
        length = rng.uniform(100.0, 800.0)
        u_max = rng.uniform(0.5, 4.0)
        closed = earliest_mz_arrival(0.0, v0, IntersectionGeometry(
            cz_length=length, v_max=v_max, u_max=u_max,
            mz_speed_left=min(8.0, v_max), mz_speed_straight=min(10.0, v_max),
            mz_speed_right=min(6.0, v_max),
        ))
        oracle = oracles.bang_cruise_arrival(0.0, v0, length, v_max, u_max)
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_bound_rejects_out_of_range_speed():
    with pytest.raises(ValueError):
        earliest_mz_arrival(0.0, 14.0, IntersectionGeometry())


# ---------------------------------------------------------------------------
# the exit-time max rule


def test_schedule_empty_queue_cruise():
    g = IntersectionGeometry(v_max=10.0)
    spec = VehicleSpec(1, 5.0, 10.0, mv("W", "straight"))
    sched = schedule_behind(spec, [], g)
    assert sched.tm == pytest.approx(45.0, abs=1e-12)
    assert sched.tf == pytest.approx(48.0, abs=1e-12)
    assert sched.binding_case == "feasibility"
    assert sched.vm == sched.vf == 10.0


def test_schedule_exit_lane_candidate():
    # S:right exits East, same as W:straight; spacing delta / vf = 1 s
    leader = make_schedule(1, mv("W", "straight"), 97.0, 100.0, 10.0, GEOMETRY)
    spec = VehicleSpec(2, 10.0, 10.0, mv("S", "right"))
    sched = schedule_behind(spec, [leader], GEOMETRY)
    assert sched.tf == pytest.approx(101.0, abs=1e-12)
    assert sched.tm == pytest.approx(101.0 - RIGHT_WINDOW, abs=1e-12)
    assert sched.binding_case == "same_exit"
    assert sched.same_exit_pred == 1
    assert sched.tf > leader.tf


def test_schedule_entry_lane_candidate():
    # left-turning leader occupies the lane head: follower waits on
    # max(leader merge entry + headway + own transit, leader exit)
    leader = make_schedule(1, mv("W", "left"), 50.0, 50.0 + LEFT_WINDOW, 8.0, GEOMETRY)
    spec = VehicleSpec(2, 10.0, 10.0, mv("W", "right"))
    sched = schedule_behind(spec, [leader], GEOMETRY)
    # max(50 + 10/8 + 1.47, 53.93) = 53.93
    assert 50.0 + 10.0 / 8.0 + RIGHT_WINDOW < leader.tf
    assert sched.tf == pytest.approx(leader.tf, abs=1e-12)
    assert sched.tm == pytest.approx(leader.tf - RIGHT_WINDOW, abs=1e-12)
    assert sched.binding_case == "same_entry"
    assert sched.tm > 50.0 + 10.0 / 8.0


def test_schedule_entry_lane_headway_branch():
    # straight leader: headway term 50 + 10/10 + 3.93 exceeds its exit 53
    leader = make_schedule(1, mv("W", "straight"), 50.0, 53.0, 10.0, GEOMETRY)
    spec = VehicleSpec(2, 10.0, 10.0, mv("W", "left"))
    sched = schedule_behind(spec, [leader], GEOMETRY)
    assert sched.tf == pytest.approx(51.0 + LEFT_WINDOW, abs=1e-12)
    assert sched.tm == pytest.approx(51.0, abs=1e-12)
    assert sched.binding_case == "same_entry"


def test_schedule_crossing_candidate():
    leader = make_schedule(1, mv("N", "straight"), 57.0, 60.0, 10.0, GEOMETRY)
    spec = VehicleSpec(2, 10.0, 10.0, mv("W", "straight"))
    sched = schedule_behind(spec, [leader], GEOMETRY)
    assert sched.tf == pytest.approx(63.0, abs=1e-12)
    assert sched.tm == pytest.approx(60.0, abs=1e-12)
    assert sched.binding_case == "lateral"
    assert sched.lateral_pred == 1


def test_schedule_queue_order_candidate():
    # opposing right turns never conflict; only the queue-order candidate
    # and the feasibility bound remain
    leader = make_schedule(1, mv("E", "right"), 100.0 - RIGHT_WINDOW, 100.0, 6.0, GEOMETRY)
    spec = VehicleSpec(2, 10.0, 10.0, mv("W", "right"))
    sched = schedule_behind(spec, [leader], GEOMETRY)
    assert sched.tf == pytest.approx(100.0, abs=1e-12)
    assert sched.binding_case == "fifo"
    assert sched.fifo_pred == 1


def test_schedule_feasibility_floor():
    spec = VehicleSpec(1, 0.0, 10.0, mv("W", "straight"))
    sched = schedule_behind(spec, [], GEOMETRY)
    bound = earliest_mz_arrival(spec.t0, spec.v0, GEOMETRY)
    assert sched.tm == pytest.approx(bound, abs=1e-12)
    assert sched.tf == sched.tm + 3.0


@pytest.mark.parametrize("movement", ALL_MOVEMENTS, ids=str)
def test_schedule_enters_at_curve_speed_and_leaves_at_through_speed(movement):
    sched = schedule_behind(VehicleSpec(1, 0.0, 10.0, movement), [], GEOMETRY)
    assert sched.vm == GEOMETRY.mz_speed(movement.turn)
    assert sched.vf == GEOMETRY.mz_speed_straight
    assert sched.tf - sched.tm == pytest.approx(GEOMETRY.transit_time(movement.turn), abs=1e-12)


# ---------------------------------------------------------------------------
# audits


def _random_specs(seed, count=24):
    import numpy as np

    rng = np.random.default_rng(seed)
    arms = ("N", "E", "S", "W")
    turns = ("left", "straight", "right")
    t = 0.0
    specs = []
    for i in range(count):
        t += float(rng.exponential(1.0))
        specs.append(VehicleSpec(
            i + 1, t, float(rng.uniform(10.0, 12.0)),
            mv(arms[rng.integers(4)], turns[rng.integers(3)]),
        ))
    return specs


def test_scheduled_queues_audit_clean():
    for seed in range(6):
        queue = []
        for spec in _random_specs(seed):
            queue.append(schedule_behind(spec, queue, GEOMETRY))
        assert audit_queue(queue) == []


def test_audit_flags_crossing_overlap():
    first = make_schedule(1, mv("W", "straight"), 50.0, 53.0, 10.0, GEOMETRY)
    second = make_schedule(2, mv("N", "straight"), 52.0, 55.0, 10.0, GEOMETRY)
    findings = audit_queue([first, second])
    assert len(findings) == 1
    assert findings[0].kind == "lateral_overlap"
    # the later vehicle against the earlier, at the overlap's start and length
    assert findings[0] == AuditFinding("lateral_overlap", 2, 1, 52.0, 1.0, 0.0)


def test_audit_entry_order_is_strict():
    first = make_schedule(1, mv("W", "straight"), 50.0, 53.0, 10.0, GEOMETRY)
    # equal merge-entry times on the same lane violate the strict ordering
    second = make_schedule(2, mv("W", "left"), 50.0, 50.0 + LEFT_WINDOW, 8.0, GEOMETRY)
    findings = audit_queue([first, second])
    kinds = {f.kind for f in findings}
    assert "entry_order" in kinds
    assert AuditFinding("entry_order", 2, 1, 50.0, 0.0, 0.0) in findings


def test_audit_exit_order_is_strict():
    first = make_schedule(1, mv("W", "straight"), 50.0, 53.0, 10.0, GEOMETRY)
    second = make_schedule(2, mv("S", "right"), 53.0 - RIGHT_WINDOW, 53.0, 6.0, GEOMETRY)
    findings = audit_queue([first, second])
    kinds = {f.kind for f in findings}
    assert "exit_order" in kinds
    assert AuditFinding("exit_order", 2, 1, 53.0, 0.0, 0.0) in findings


def test_audit_flags_a_decreasing_exit_time_along_the_queue():
    # no conflict between the two, so queue order is the only rule broken
    first = make_schedule(1, mv("E", "right"), 100.0 - RIGHT_WINDOW, 100.0, 6.0, GEOMETRY)
    second = make_schedule(2, mv("W", "right"), 99.5 - RIGHT_WINDOW, 99.5, 6.0, GEOMETRY)
    assert audit_queue([first, second]) == [AuditFinding("queue_order", 2, 1, 99.5, -0.5, 0.0)]


def test_audit_accepts_equal_exit_times_across_queue():
    # global exit-time ordering is non-strict; ties are legal
    first = make_schedule(1, mv("E", "right"), 100.0 - RIGHT_WINDOW, 100.0, 6.0, GEOMETRY)
    second = make_schedule(2, mv("W", "right"), 100.0 - RIGHT_WINDOW, 100.0, 6.0, GEOMETRY)
    assert audit_queue([first, second]) == []


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_exit_times_monotone_and_deterministic(seed):
    queue = []
    for spec in _random_specs(seed, count=16):
        queue.append(schedule_behind(spec, queue, GEOMETRY))
    exits = [s.tf for s in queue]
    assert all(b >= a for a, b in zip(exits, exits[1:]))
    again = []
    for spec in _random_specs(seed, count=16):
        again.append(schedule_behind(spec, again, GEOMETRY))
    assert again == queue


def test_headway_uses_leader_merge_speed():
    # a straight leader's merge headway is exactly delta / straight speed
    leader = make_schedule(1, mv("W", "straight"), 50.0, 53.0, 10.0, GEOMETRY)
    follower = schedule_behind(VehicleSpec(2, 10.0, 10.0, mv("W", "left")), [leader], GEOMETRY)
    assert follower.tm == pytest.approx(50.0 + 10.0 / 10.0, abs=1e-12)


def test_raising_predecessor_exit_never_lowers_follower():
    specs = _random_specs(3, count=12)
    queue = []
    for spec in specs[:-1]:
        queue.append(schedule_behind(spec, queue, GEOMETRY))
    base = schedule_behind(specs[-1], queue, GEOMETRY)
    for idx in range(len(queue)):
        bumped = list(queue)
        bumped[idx] = replace(queue[idx], tm=queue[idx].tm + 2.0, tf=queue[idx].tf + 2.0)
        raised = schedule_behind(specs[-1], bumped, GEOMETRY)
        assert raised.tf >= base.tf - 1e-12


def test_schedule_satisfies_ordering_guarantees():
    for seed in range(4):
        queue = []
        for spec in _random_specs(seed, count=20):
            sched = schedule_behind(spec, queue, GEOMETRY)
            if queue:
                assert sched.tf >= queue[-1].tf
            preds = PredecessorTable(queue).predecessors(spec.movement)
            if preds.same_entry is not None:
                assert sched.tm > preds.same_entry.tm
            if preds.same_exit is not None:
                assert sched.tf > preds.same_exit.tf
            queue.append(sched)
