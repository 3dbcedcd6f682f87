import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crossflow import (
    ALL_MOVEMENTS,
    Arm,
    ConflictClass,
    IntersectionGeometry,
    Movement,
    MzBoundary,
    SimConfig,
    Turn,
    classify,
)


def mv(arm: str, turn: str) -> Movement:
    return Movement(Arm(arm), Turn(turn))


def test_twelve_movements():
    assert len(ALL_MOVEMENTS) == 12
    assert len(set(ALL_MOVEMENTS)) == 12


def test_exit_arms_match_reference_table():
    for m in ALL_MOVEMENTS:
        assert m.exit_arm.value == oracles.EXIT_ARM[(m.entry_arm.value, m.turn.value)]


def test_classify_same_lane_pair():
    assert classify(mv("W", "straight"), mv("W", "left")) is ConflictClass.SAME_ENTRY


def test_classify_crossing_straights():
    assert classify(mv("W", "straight"), mv("N", "straight")) is ConflictClass.LATERAL


def test_classify_opposing_right_turns():
    # short corner arcs on opposite corners never meet
    assert classify(mv("W", "right"), mv("E", "right")) is ConflictClass.NO_CONFLICT


def test_classify_agrees_with_path_sampling():
    for a in ALL_MOVEMENTS:
        for b in ALL_MOVEMENTS:
            expected = oracles.classify_by_sampling(
                a.entry_arm.value, a.turn.value, b.entry_arm.value, b.turn.value
            )
            assert classify(a, b).value == expected, f"{a} vs {b}"


def test_classify_symmetric():
    for a in ALL_MOVEMENTS:
        for b in ALL_MOVEMENTS:
            assert classify(a, b) is classify(b, a)


def test_classify_total_and_single_valued():
    for a in ALL_MOVEMENTS:
        for b in ALL_MOVEMENTS:
            assert classify(a, b) in ConflictClass


def test_same_entry_takes_precedence():
    # same-lane pairs must never come out as lateral or same-exit, even
    # though their paths overlap geometrically
    for arm in Arm:
        for ta in Turn:
            for tb in Turn:
                cls = classify(Movement(arm, ta), Movement(arm, tb))
                assert cls is ConflictClass.SAME_ENTRY


# merge squares of other sides, so the paths and windows differ from the default's
MERGE_SQUARES = [{"mz_side": 30.0}, {"mz_side": 20.0}, {"mz_side": 45.0}]


@pytest.mark.parametrize("overrides", MERGE_SQUARES)
@pytest.mark.parametrize("turn", list(Turn))
def test_window_covers_the_path_at_constant_acceleration(turn, overrides):
    # the curve speed in, the through speed out, and the mean of the two
    # over the window is the path length
    g = IntersectionGeometry(**overrides)
    vm, vf = g.mz_speed(turn), g.mz_speed_straight
    assert g.transit_time(turn) * (vm + vf) / 2.0 == pytest.approx(g.path_length(turn), rel=1e-15)


def test_straight_window_is_three_seconds():
    assert IntersectionGeometry().transit_time(Turn.STRAIGHT) == 3.0


def test_derived_straight_time_times_speed_is_side():
    for speed in (7.5, 10.0, 12.5):
        g = IntersectionGeometry(mz_speed_straight=speed)
        assert g.transit_time(Turn.STRAIGHT) * speed == g.mz_side


MPH2_PER_FT = 0.44704 ** 2 / 0.3048   # m/s^2


@pytest.mark.parametrize("overrides", MERGE_SQUARES)
@pytest.mark.parametrize("friction, superelevation", [(0.2, 0.0), (0.15, 4.0)])
def test_curve_speeds_meet_the_design_lateral_acceleration(overrides, friction, superelevation):
    # v^2 / R = 15 (0.01 E + F) mph^2/ft on each turn's own quarter-circle
    # arc, of radius 3S/4 left and S/4 right
    g = IntersectionGeometry(**overrides)
    curved = g.with_curve_speeds(friction, superelevation)
    limit = 15.0 * (0.01 * superelevation + friction) * MPH2_PER_FT
    for turn, radius in ((Turn.LEFT, 0.75 * g.mz_side), (Turn.RIGHT, 0.25 * g.mz_side)):
        assert curved.mz_speed(turn) ** 2 / radius == pytest.approx(limit, rel=1e-14)
    assert curved.mz_speed_straight == g.mz_speed_straight


def test_curve_speeds_at_the_default_arcs():
    # radii 22.5 and 7.5 m; at F = 0.2 the lateral acceleration is 1.967 m/s^2
    g = IntersectionGeometry().with_curve_speeds(0.2)
    assert 2.0 * g.path_length(Turn.LEFT) / math.pi == pytest.approx(22.5, rel=1e-15)
    assert 2.0 * g.path_length(Turn.RIGHT) / math.pi == pytest.approx(7.5, rel=1e-15)
    assert g.mz_speed_left ** 2 / 22.5 == pytest.approx(1.967, abs=5e-4)
    assert (g.mz_speed_left, g.mz_speed_right) == pytest.approx((6.6526, 3.8409), abs=5e-5)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    side=st.floats(5.0, 50.0),
    speeds=st.tuples(*[st.floats(0.5, 13.0)] * 3),
    friction=st.floats(0.05, 0.3),
    superelevation=st.floats(0.0, 8.0),
)
def test_random_geometries_state_one_path_speed_and_window_per_turn(
    side, speeds, friction, superelevation
):
    # every square of side 5-50 m under the 13 m/s limit: each window
    # covers its path at the mean of its two speeds, and the formula's
    # curve speeds meet the design lateral acceleration on the turn's arc
    left, straight, right = speeds
    g = IntersectionGeometry(mz_side=side, mz_speed_left=left, mz_speed_straight=straight,
                             mz_speed_right=right)
    curved = g.with_curve_speeds(friction, superelevation)
    limit = 15.0 * (0.01 * superelevation + friction) * MPH2_PER_FT
    for geometry in (g, curved):
        for turn in Turn:
            mean = (geometry.mz_speed(turn) + geometry.mz_speed_straight) / 2.0
            assert geometry.transit_time(turn) * mean == pytest.approx(
                geometry.path_length(turn), rel=1e-15)
    for turn in (Turn.LEFT, Turn.RIGHT):
        radius = 2.0 * g.path_length(turn) / math.pi
        assert curved.mz_speed(turn) ** 2 / radius == pytest.approx(limit, rel=1e-14)


@pytest.mark.parametrize("friction, superelevation, message", [
    (0.0, 0.0, "side_friction"),
    (-0.1, 0.0, "side_friction"),
    (math.nan, 0.0, "side_friction"),
    (math.inf, 0.0, "side_friction"),
    (0.2, -1.0, "superelevation"),
    (0.2, math.nan, "superelevation"),
    (0.2, math.inf, "superelevation"),
    # a curve speed past v_max is refused by the geometry's own bound
    (5.0, 0.0, "mz_speed_left"),
])
def test_curve_speed_inputs_are_validated(friction, superelevation, message):
    with pytest.raises(ValueError, match=message):
        IntersectionGeometry().with_curve_speeds(friction, superelevation)


def test_mz_curve_speeds():
    g = IntersectionGeometry()
    assert g.mz_speed(mv("S", "left").turn) == 8.0
    assert g.mz_speed(mv("S", "straight").turn) == 10.0
    assert g.mz_speed(mv("S", "right").turn) == 6.0


def test_path_lengths():
    g = IntersectionGeometry()
    assert g.path_length(Turn.STRAIGHT) == 30.0
    assert g.path_length(Turn.LEFT) == pytest.approx(3.0 * math.pi * 30.0 / 8.0)
    assert g.path_length(Turn.RIGHT) == pytest.approx(math.pi * 30.0 / 8.0)


def test_geometry_validation():
    with pytest.raises(ValueError, match="min_safe_distance"):
        IntersectionGeometry(min_safe_distance=0.0)
    with pytest.raises(ValueError, match="v_min"):
        IntersectionGeometry(v_min=5.0, v_max=4.0)
    with pytest.raises(ValueError, match="mz_speed_straight"):
        IntersectionGeometry(mz_speed_straight=14.0)
    with pytest.raises(ValueError):
        IntersectionGeometry(cz_length=25.0, mz_side=30.0)


def test_queue_step_and_its_time_limits():
    g = IntersectionGeometry()
    # 10 m at the right turn's 6 m/s, then the left turn's 3.93 s window
    assert g.queue_step == 10.0 / 6.0 + g.transit_time(Turn.LEFT)
    # the shortest window, the right turn's, at the gate's resolution and
    # just below it
    side = 1e-6 * 64.0 / math.pi
    assert IntersectionGeometry(mz_side=side * 1.001).transit_time(Turn.RIGHT) >= 1e-6
    with pytest.raises(ValueError, match="mz_side .* right turn a merge window of"):
        IntersectionGeometry(mz_side=side * 0.999)
    # a queue step just below and at 2**32 s
    speed = 10.0 / (2.0**32 - g.transit_time(Turn.LEFT))
    assert IntersectionGeometry(mz_speed_right=speed * 1.001).queue_step < 2.0**32
    with pytest.raises(ValueError, match="mz_speed_right .* lets one queue step take"):
        IntersectionGeometry(mz_speed_right=speed * 0.999)


NAN, INF = math.nan, math.inf
WINDOW = dict(tm=40.0, tf=43.0, vm=10.0, vf=10.0, p_start=400.0, p_end=430.0)


@pytest.mark.parametrize("build, field", [
    (lambda: IntersectionGeometry(cz_length=NAN), "cz_length"),
    (lambda: IntersectionGeometry(v_max=INF), "v_max"),
    (lambda: IntersectionGeometry(mz_speed_right=INF), "mz_speed_right"),
    (lambda: SimConfig(arrival_rate=NAN), "arrival_rate"),
    (lambda: SimConfig(turn_probabilities=(NAN, 0.5, 0.5)), "turn_probabilities"),
    (lambda: SimConfig(weight=NAN), "weight"),
    (lambda: SimConfig(sample_step=INF), "sample_step"),
    (lambda: MzBoundary(**{**WINDOW, "vf": NAN}), "vf"),
    (lambda: MzBoundary(**WINDOW, u_start=-INF), "u_start"),
])
def test_configs_reject_non_finite_numbers(build, field):
    # comparisons let NaN through every bound check, so it must be caught
    # before them; infinities are no usable setting either
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build()
