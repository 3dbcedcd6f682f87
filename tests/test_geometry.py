import math

import pytest

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
    TurnTimeFormula,
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


def test_turn_time_table_mode():
    g = IntersectionGeometry()
    assert g.transit_time(mv("W", "straight").turn) == 3.0
    assert g.transit_time(mv("W", "left").turn) == 5.0
    assert g.transit_time(mv("W", "right").turn) == 3.0


FORMULA = TurnTimeFormula(radius_left_ft=75.0, radius_right_ft=75.0, side_friction=0.2)


def test_turn_time_derived_straight():
    g = IntersectionGeometry(
        v_max=31.0, mz_speed_straight=30.0, turn_times=None, turn_time_formula=FORMULA
    )
    assert g.transit_time(mv("N", "straight").turn) == 1.0
    # without a formula the left turn's time cannot be derived, so the
    # geometry itself is refused
    with pytest.raises(ValueError):
        IntersectionGeometry(v_max=31.0, mz_speed_straight=30.0, turn_times=None)


def test_turn_time_formula_mode():
    # R = 75 ft, F = 0.2, E = 0: R / sqrt(15 R F) = 75 / 15 = 5 s
    formula = TurnTimeFormula(radius_left_ft=75.0, radius_right_ft=75.0, side_friction=0.2)
    g = IntersectionGeometry(turn_times=None, turn_time_formula=formula)
    assert g.transit_time(mv("W", "left").turn) == pytest.approx(5.0, abs=1e-12)
    assert g.transit_time(mv("W", "right").turn) == pytest.approx(5.0, abs=1e-12)


def test_derived_straight_time_times_speed_is_side():
    for speed in (7.5, 10.0, 12.5):
        g = IntersectionGeometry(mz_speed_straight=speed, turn_times=None,
                                 turn_time_formula=FORMULA)
        assert g.transit_time(Turn.STRAIGHT) * speed == g.mz_side


def test_mz_exit_speeds():
    g = IntersectionGeometry()
    assert g.mz_speed(mv("S", "left").turn) == 8.0
    assert g.mz_speed(mv("S", "straight").turn) == 10.0
    assert g.mz_speed(mv("S", "right").turn) == 6.0


def test_path_lengths():
    g = IntersectionGeometry()
    assert g.path_length(Turn.STRAIGHT) == 30.0
    assert g.path_length(Turn.LEFT) == pytest.approx(3.0 * math.pi * 30.0 / 8.0)
    assert g.path_length(Turn.RIGHT) == pytest.approx(math.pi * 30.0 / 8.0)
    override = IntersectionGeometry(left_path_length=40.0, right_path_length=13.0)
    assert override.path_length(Turn.LEFT) == 40.0
    assert override.path_length(Turn.RIGHT) == 13.0


def test_geometry_validation():
    with pytest.raises(ValueError, match="min_safe_distance"):
        IntersectionGeometry(min_safe_distance=0.0)
    with pytest.raises(ValueError, match="v_min"):
        IntersectionGeometry(v_min=5.0, v_max=4.0)
    with pytest.raises(ValueError, match="mz_speed_straight"):
        IntersectionGeometry(mz_speed_straight=14.0)
    with pytest.raises(ValueError, match="not both"):
        IntersectionGeometry(
            turn_time_formula=TurnTimeFormula(
                radius_left_ft=75.0, radius_right_ft=75.0, side_friction=0.2
            )
        )
    with pytest.raises(ValueError):
        IntersectionGeometry(cz_length=25.0, mz_side=30.0)


NAN, INF = math.nan, math.inf
WINDOW = dict(tm=40.0, tf=43.0, vm=10.0, vf=10.0, p_start=400.0, p_end=430.0)


@pytest.mark.parametrize("build, field", [
    (lambda: IntersectionGeometry(cz_length=NAN), "cz_length"),
    (lambda: IntersectionGeometry(v_max=INF), "v_max"),
    (lambda: IntersectionGeometry(turn_times=(5.0, INF, 3.0)), "turn_times"),
    (lambda: IntersectionGeometry(right_path_length=NAN), "right_path_length"),
    (lambda: TurnTimeFormula(radius_left_ft=NAN), "radius_left_ft"),
    (lambda: TurnTimeFormula(superelevation=INF), "superelevation"),
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


@pytest.mark.parametrize("formula, missing", [
    (None, "turn_time_formula"),
    (TurnTimeFormula(side_friction=0.2), "radius_left_ft"),
    (TurnTimeFormula(radius_left_ft=75.0, side_friction=0.2), "radius_right_ft"),
    (TurnTimeFormula(radius_left_ft=75.0, radius_right_ft=75.0), "side_friction"),
])
def test_underivable_turn_times_are_refused(formula, missing):
    with pytest.raises(ValueError, match=missing):
        IntersectionGeometry(turn_times=None, turn_time_formula=formula)


def test_formula_mode_validation():
    with pytest.raises(ValueError):
        TurnTimeFormula(radius_left_ft=-5.0, radius_right_ft=75.0, side_friction=0.2)
    formula = TurnTimeFormula(radius_left_ft=75.0, radius_right_ft=75.0, side_friction=0.2)
    with pytest.raises(ValueError):
        formula.transit_time(Turn.STRAIGHT)
