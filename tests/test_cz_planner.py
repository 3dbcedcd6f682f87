import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crossflow import (
    IntersectionGeometry,
    MzBoundary,
    PolyTrajectory,
    Turn,
    check_feasibility,
    mz_costs,
    normalization_weights,
    solve_cz,
    solve_mz_fuel,
    solve_mz_jerk,
    solve_mz_weighted,
)
from crossflow.audit import gap_to, too_close
from crossflow.cz_planner import hermite
from crossflow.sim import SAMPLE_DTYPE, evaluate_crossing


def test_cruise_boundary_gives_constant_speed():
    a, b, c, d = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0).coefficients
    assert a == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    assert c == pytest.approx(10.0, abs=1e-12)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_boundary_conditions_hit_exactly():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t0 = float(rng.uniform(0.0, 100.0))
        v0 = float(rng.uniform(5.0, 14.0))
        duration = float(rng.uniform(20.0, 60.0))
        vm = float(rng.uniform(6.0, 13.0))
        length = float(rng.uniform(250.0, 600.0))
        traj = solve_cz(t0, v0, t0 + duration, vm, length)
        assert abs(traj.position(t0)) < 1e-9
        assert abs(traj.speed(t0) - v0) < 1e-9
        assert abs(traj.position(t0 + duration) - length) < 1e-9
        assert abs(traj.speed(t0 + duration) - vm) < 1e-9


def test_matches_discretized_minimum_effort():
    traj = solve_cz(0.0, 12.0, 38.0, 10.0, 400.0)
    cost = traj.half_square_integral(2)
    ref_cost, _, _ = oracles.transcription_min_effort(38.0, 12.0, -2.0, 400.0)
    assert abs(cost - ref_cost) / ref_cost < 1e-4


def test_transcription_never_beats_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(5):
        v0 = float(rng.uniform(8.0, 13.0))
        vm = float(rng.uniform(8.0, 13.0))
        duration = float(rng.uniform(30.0, 45.0))
        traj = solve_cz(0.0, v0, duration, vm, 400.0)
        ref_cost, _, _ = oracles.transcription_min_effort(duration, v0, vm - v0, 400.0, n=1500)
        assert ref_cost >= traj.half_square_integral(2) - 1e-6


def test_time_shift_invariance():
    base = solve_cz(0.0, 12.0, 38.0, 10.0, 400.0)
    shifted = solve_cz(1000.0, 12.0, 1038.0, 10.0, 400.0)
    for tau in np.linspace(0.0, 38.0, 25):
        assert shifted.control(1000.0 + tau) == pytest.approx(base.control(tau), abs=1e-8)
        assert shifted.position(1000.0 + tau) == pytest.approx(base.position(tau), abs=1e-6)
    assert shifted.half_square_integral(2) == pytest.approx(base.half_square_integral(2), rel=1e-9)


def test_derivative_chain_consistency():
    rng = np.random.default_rng(5)
    traj = solve_cz(0.0, 11.0, 37.0, 9.0, 380.0)
    h = 1e-6
    for t in rng.uniform(1.0, 36.0, size=40):
        dp = (traj.position(t + h) - traj.position(t - h)) / (2 * h)
        dv = (traj.speed(t + h) - traj.speed(t - h)) / (2 * h)
        assert abs(dp - traj.speed(t)) < 1e-6 * max(1.0, abs(traj.speed(t)))
        assert abs(dv - traj.control(t)) < 1e-6 * max(1.0, abs(traj.control(t)))


def test_derivatives_above_the_degree_are_zero():
    # a degree-1 piece, p = 5 + 2 * (t - 1): its control and jerk are zero,
    # as are their half-square integrals, and the batched sampler agrees
    line = PolyTrajectory(1.0, 3.0, (2.0, 5.0))
    t = np.array([1.0, 2.0, 3.0])
    assert line.position(t).tolist() == [5.0, 7.0, 9.0]
    assert line.speed(2.0) == 2.0
    for order in (2, 3, 4):
        assert line.derivative(2.0, order) == 0.0
        assert line.derivative(t, order).tolist() == [0.0, 0.0, 0.0]
    assert line.half_square_integral(1) == 4.0
    assert line.half_square_integral(2) == 0.0
    assert line.half_square_integral(3) == 0.0
    rows = np.zeros(len(t), SAMPLE_DTYPE)
    evaluate_crossing([(line,)], np.zeros(len(t), np.intp), t, rows)
    assert rows["p"].tolist() == [5.0, 7.0, 9.0]
    assert rows["v"].tolist() == [2.0, 2.0, 2.0]
    assert rows["u"].tolist() == [0.0, 0.0, 0.0]
    assert rows["j"].tolist() == [0.0, 0.0, 0.0]


def test_linearity_in_boundary_data():
    # coefficients are linear in (v0, vm, L) for fixed window
    args_a = (0.0, 12.0, 38.0, 10.0, 400.0)
    args_b = (0.0, 8.0, 38.0, 13.0, 320.0)
    ta = solve_cz(*args_a)
    tb = solve_cz(*args_b)
    mid = solve_cz(0.0, 10.0, 38.0, 11.5, 360.0)
    for m, a, b in zip(mid.coefficients, ta.coefficients, tb.coefficients):
        assert m == pytest.approx(0.5 * a + 0.5 * b, abs=1e-9)


def test_degenerate_window_raises():
    with pytest.raises(ValueError):
        solve_cz(5.0, 10.0, 5.0, 10.0, 400.0)
    with pytest.raises(ValueError):
        solve_cz(5.0, 10.0, 4.0, 10.0, 400.0)


def test_tiny_window_warns_about_conditioning():
    with pytest.warns(RuntimeWarning):
        solve_cz(0.0, 10.0, 1e-4, 10.0, 0.001)


def test_tiny_window_warning_names_its_width_for_both_degrees():
    with pytest.warns(RuntimeWarning, match="0.0001 s"):
        hermite(0.0, 1e-4, (0.0, 10.0), (0.001, 10.0))
    with pytest.warns(RuntimeWarning, match="0.0001 s"):
        hermite(0.0, 1e-4, (0.0, 10.0, 0.0), (0.001, 10.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_cz(0.0, 10.0, 1e-3, 10.0, 0.01)


@pytest.mark.parametrize("t0, t1", [(5.0, 5.0), (5.0, 4.0), (math.nan, 5.0), (5.0, math.nan)])
@pytest.mark.parametrize("start, end", [((0.0, 10.0), (30.0, 10.0)),
                                        ((0.0, 10.0, 0.0), (30.0, 10.0, 0.0))])
def test_hermite_rejects_empty_and_nan_windows(t0, t1, start, end):
    with pytest.raises(ValueError, match="does not exceed"):
        hermite(t0, t1, start, end)


@pytest.mark.parametrize("m", [0, 1, 4])
def test_hermite_takes_only_cubics_and_quintics(m):
    with pytest.raises(ValueError, match=f"got {m}"):
        hermite(0.0, 3.0, (0.0,) * m, (1.0,) * m)


def test_constant_speed_merge_has_exactly_zero_control_and_jerk():
    # the default straight crossing: 30 m in 3 s at 10 m/s, every value a
    # representable float, so each residual of the closed form is exactly 0
    g = IntersectionGeometry()
    b = MzBoundary(tm=40.0, tf=43.0, vm=10.0, vf=10.0, p_start=g.cz_length,
                   p_end=g.cz_length + g.path_length(Turn.STRAIGHT))
    times = np.linspace(b.tm, b.tf, 7)
    for traj in (solve_mz_fuel(b), solve_mz_jerk(b)):
        assert traj.coefficients[-2:] == (10.0, 400.0)
        assert set(traj.coefficients[:-2]) == {0.0}
        assert (traj.control(times) == 0.0).all() and (traj.jerk(times) == 0.0).all()


def test_integer_boundary_values_give_float_coefficients():
    for traj in (solve_cz(0, 10, 40, 10, 400), hermite(0, 3, (400, 10), (430, 10)),
                 hermite(0, 3, (400, 10, 0), (430, 10, 1))):
        assert all(type(x) is float for x in traj.coefficients)


# ---------------------------------------------------------------------------
# feasibility checks


def test_cruise_plan_passes_all_checks():
    g = IntersectionGeometry(v_max=10.0)
    traj = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0)
    report = check_feasibility(traj, g)
    assert report.ok
    assert not report.violations


def test_control_bound_violation_reported_at_start():
    # v0=10, 30 s, 900 m needs u(t0) = 4 > u_max = 3
    g = IntersectionGeometry(cz_length=900.0)
    traj = solve_cz(0.0, 10.0, 30.0, 10.0, 900.0)
    assert traj.control(0.0) == pytest.approx(4.0, abs=1e-9)
    report = check_feasibility(traj, g)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert "control_high" in kinds
    worst = next(v for v in report.violations if v.kind == "control_high")
    assert worst.time == pytest.approx(0.0, abs=1e-6)


def test_speed_bounds_checked():
    # sharp late arrival forces the speed over the cap somewhere inside
    g = IntersectionGeometry()
    traj = solve_cz(0.0, 10.0, 28.0, 13.0, 400.0)
    speeds = [traj.speed(t) for t in np.linspace(0.0, 28.0, 400)]
    if max(speeds) > g.v_max + 1e-9:
        report = check_feasibility(traj, g)
        assert any(v.kind == "speed_high" for v in report.violations)


def test_feasibility_refuses_any_piece_but_a_cubic():
    # the merge pieces of a left turn: the jerk quintic and the weighted
    # pieces of both bases are refused, and the fuel cubic is checked
    g = IntersectionGeometry()
    b = MzBoundary(tm=40.0, tf=43.93, vm=8.0, vf=10.0, p_start=400.0,
                   p_end=400.0 + g.path_length(Turn.LEFT))
    q1, q2 = normalization_weights(g.u_max)
    for piece in (solve_mz_jerk(b), solve_mz_weighted(b, 0.01, q1, q2),
                  solve_mz_weighted(b, 0.5, q1, q2)):
        with pytest.raises(ValueError, match="check_feasibility takes a cubic"):
            check_feasibility(piece, g)
    assert check_feasibility(solve_mz_fuel(b), g).ok


def _min_gap(leader, follower):
    """gap_to's least gap of follower behind leader over their shared
    window, and its time; None when they share none."""
    return gap_to(leader)(follower.coefficients, follower.t0, follower.t1)


def test_follower_exact_headway_margin_passes():
    g = IntersectionGeometry()
    leader = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0)
    follower = solve_cz(1.0, 10.0, 41.0, 10.0, 400.0)
    gap, _ = _min_gap(leader, follower)
    assert not too_close(gap, g.min_safe_distance)
    # identical cruise offset by delta/v keeps the gap pinned at delta
    for t in np.linspace(1.0, 40.0, 50):
        gap = leader.position(t) - follower.position(t)
        assert gap == pytest.approx(g.min_safe_distance, abs=1e-9)


def test_follower_too_close_flagged():
    g = IntersectionGeometry()
    leader = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0)
    follower = solve_cz(0.5, 10.0, 40.5, 10.0, 400.0)
    gap, _ = _min_gap(leader, follower)
    assert too_close(gap, g.min_safe_distance)


def test_rear_end_catches_interior_minimum():
    # gap dips to -8 mid-zone and recovers; the check finds the true minimum
    g = IntersectionGeometry()
    leader = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0)
    follower = solve_cz(1.2, 12.0, 41.2, 8.0, 400.0)
    gap, _ = _min_gap(leader, follower)
    assert too_close(gap, g.min_safe_distance)
    assert gap == pytest.approx(-8.0, abs=1e-6)


def test_rear_end_minimum_gap_on_random_pairs():
    # the closed-form minimum is the dense-grid minimum of the gap over
    # the shared window
    g = IntersectionGeometry()
    rng = np.random.default_rng(17)
    reported = recovered = 0
    for _ in range(2000):
        lead_v0, v0 = map(float, rng.uniform(8.0, 13.0, size=2))
        lead_vm, vm = map(float, rng.uniform(6.0, 13.0, size=2))
        lead_span, span = map(float, rng.uniform(25.0, 50.0, size=2))
        headway = float(rng.uniform(0.0, 10.0))
        leader = solve_cz(0.0, lead_v0, lead_span, lead_vm, g.cz_length)
        follower = solve_cz(headway, v0, headway + span, vm, g.cz_length)
        gap, _ = _min_gap(leader, follower)
        times = np.linspace(headway, min(lead_span, headway + span), 4001)
        gaps = leader.position(times) - follower.position(times)
        assert gaps.min() - 1e-3 <= gap <= gaps.min() + 1e-9
        if too_close(gap, g.min_safe_distance):
            reported += 1
            recovered += float(gaps[-1]) >= g.min_safe_distance
    # the sample holds gaps that dip below the safe distance and recover
    assert reported > 100 and recovered > 0


# ---------------------------------------------------------------------------
# cost


def test_cruise_cost_is_zero():
    traj = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0)
    assert traj.half_square_integral(2) == pytest.approx(0.0, abs=1e-12)


def test_unit_ramp_cost():
    traj = PolyTrajectory(t0=0.0, t1=2.0, coefficients=(0.0, 1.0, 0.0, 0.0))
    assert traj.half_square_integral(2) == pytest.approx(1.0, abs=1e-12)


def test_cost_matches_quadrature():
    rng = np.random.default_rng(9)
    for _ in range(10):
        traj = solve_cz(
            0.0,
            float(rng.uniform(6.0, 13.0)),
            float(rng.uniform(25.0, 45.0)),
            float(rng.uniform(6.0, 13.0)),
            float(rng.uniform(250.0, 500.0)),
        )
        ref = oracles.quad_half_square(traj.control, traj.t0, traj.t1)
        assert traj.half_square_integral(2) == pytest.approx(ref, abs=1e-10, rel=1e-10)


# ---------------------------------------------------------------------------
# the rear-end gap predicate shared by the entry gate and the run audit


def _assert_gap_predicate(leader, follower):
    found = _min_gap(leader, follower)
    if found is None:
        return found
    gap, time = found
    assert max(leader.t0, follower.t0) <= time <= min(leader.t1, follower.t1)
    # evaluated on plain floats, the gap keeps every bit of the numpy path
    assert type(gap) is float
    assert gap == float(leader.position(time) - follower.position(time))
    return found


@settings(max_examples=200, deadline=None)
@given(
    lead_v0=st.floats(8.0, 13.0),
    lead_vm=st.floats(6.0, 13.0),
    lead_span=st.floats(25.0, 50.0),
    headway=st.floats(0.0, 60.0),
    v0=st.floats(8.0, 13.0),
    vm=st.floats(6.0, 13.0),
    span=st.floats(25.0, 50.0),
)
def test_gap_predicate_matches_numpy_positions(lead_v0, lead_vm, lead_span, headway, v0, vm, span):
    g = IntersectionGeometry()
    leader = solve_cz(0.0, lead_v0, lead_span, lead_vm, g.cz_length)
    follower = solve_cz(headway, v0, headway + span, vm, g.cz_length)
    found = _assert_gap_predicate(leader, follower)
    assert (found is None) == (headway > lead_span)


@settings(max_examples=100, deadline=None)
@given(offset=st.floats(-3e-9, 3e-9), speed=st.floats(8.0, 13.0))
def test_gap_predicate_at_the_safety_distance_with_equal_profiles(offset, speed):
    # equal cubic coefficients make quad == 0; the constant gap sits within
    # a few _BOUND_EPS of min_safe_distance
    g = IntersectionGeometry()
    leader = PolyTrajectory(t0=0.0, t1=40.0, coefficients=(0.0, 0.0, speed, 0.0))
    follower = PolyTrajectory(t0=g.min_safe_distance / speed, t1=41.0,
                              coefficients=(0.0, 0.0, speed, -offset))
    gap, _ = _assert_gap_predicate(leader, follower)
    assert abs(gap - (g.min_safe_distance + offset)) < 1e-12
    if offset < -2e-9:
        assert too_close(gap, g.min_safe_distance)
    elif offset > -0.5e-9:
        assert not too_close(gap, g.min_safe_distance)


def test_gap_predicate_windows():
    g = IntersectionGeometry()
    leader = solve_cz(0.0, 10.0, 40.0, 10.0, 400.0)
    # follower enters after the leader has left: lo > hi, nothing to check
    assert _assert_gap_predicate(leader, solve_cz(40.5, 10.0, 80.0, 10.0, 400.0)) is None
    # windows touching at one instant still get a closed-form check
    gap, time = _assert_gap_predicate(leader, solve_cz(40.0, 10.0, 80.0, 10.0, 400.0))
    assert time == 40.0 and not too_close(gap, g.min_safe_distance)
    # the interior dip of test_rear_end_catches_interior_minimum
    gap, time = _assert_gap_predicate(leader, solve_cz(1.2, 12.0, 41.2, 8.0, 400.0))
    assert too_close(gap, g.min_safe_distance) and 1.2 < time < 40.0
    # equal jerk, different control: quad == 0 and the gap is quadratic,
    # smallest where the speeds match, inside the window
    speeding_up = PolyTrajectory(t0=0.0, t1=40.0, coefficients=(0.0, 0.2, 8.0, 0.0))
    cruising = PolyTrajectory(t0=0.5, t1=40.5, coefficients=(0.0, 0.0, 10.0, 0.0))
    gap, time = _assert_gap_predicate(speeding_up, cruising)
    assert time == 10.0 and too_close(gap, g.min_safe_distance)


# ---------------------------------------------------------------------------
# the closed-form Hermite coefficients against the exact rational solve of
# the same boundary problem, and the one Horner evaluator against the
# hand-written cubic and quintic evaluators and cost formulas it replaces

FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)

# meters and meters per second; the float solves of the hand-written
# systems meet it too, so it is no looser for the closed forms
EXACT_TOL = 1e-10


def _assert_close_to_exact(traj, start, end, float_solve, fractions):
    exact = oracles.hermite_exact(traj.t0, traj.t1, start, end)
    width = Fraction(traj.t1) - Fraction(traj.t0)
    taus = [Fraction(0), width] + [Fraction(f) * width for f in fractions]
    for coeffs in (traj.coefficients, float_solve):
        # exact evaluation is linear, so the error of every value is the
        # value of the coefficients' error polynomial
        error = [Fraction(c) - e for c, e in zip(coeffs, exact)]
        for tau in taus:
            for order in (0, 1):
                assert abs(oracles.poly_derivative_exact(error, tau, order)) <= EXACT_TOL


def _assert_matches_reference(traj, states, costs, fractions):
    coeffs = traj.coefficients
    assert all(type(x) is float for x in coeffs)
    t0, t1 = traj.t0, traj.t1
    times = [t0, t1] + [t0 + f * (t1 - t0) for f in fractions]
    evaluators = (traj.position, traj.speed, traj.control, traj.jerk)
    array = np.array(times)
    for evaluate, expected in zip(evaluators, states(coeffs, t0, array)):
        got = evaluate(array)
        assert got.shape == expected.shape and (got == expected).all()
    for t in times:
        for evaluate, expected in zip(evaluators, states(coeffs, t0, t)):
            assert float(evaluate(t)) == float(expected)
    fuel, discomfort = costs(coeffs, t1 - t0)
    assert traj.half_square_integral(2) == pytest.approx(fuel, rel=1e-12)
    assert traj.half_square_integral(3) == pytest.approx(discomfort, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    t0=st.floats(0.0, 1000.0),
    width=st.floats(0.5, 60.0),
    v0=st.floats(0.0, 20.0),
    vm=st.floats(0.0, 20.0),
    length=st.floats(5.0, 800.0),
    fractions=FRACTIONS,
)
def test_approach_plan_matches_hand_written_cubic(t0, width, v0, vm, length, fractions):
    tm = t0 + width
    traj = solve_cz(t0, v0, tm, vm, length)
    assert (traj.t0, traj.t1) == (t0, tm)
    start, end = (0.0, v0), (length, vm)
    float_solve = oracles.cubic_coefficients(t0, tm, *start, *end)
    _assert_close_to_exact(traj, start, end, float_solve, fractions)
    _assert_matches_reference(traj, oracles.cubic_states, oracles.cubic_costs, fractions)


MERGE_WINDOWS = dict(
    tm=st.floats(0.0, 1000.0),
    width=st.floats(0.5, 10.0),
    vm=st.floats(0.0, 20.0),
    vf=st.floats(0.0, 20.0),
    p_start=st.floats(30.0, 800.0),
    distance=st.floats(1.0, 100.0),
    u_start=st.floats(-3.0, 3.0),
    u_end=st.floats(-3.0, 3.0),
    fractions=FRACTIONS,
)


def _merge_boundary(tm, width, vm, vf, p_start, distance, u_start, u_end):
    return MzBoundary(tm=tm, tf=tm + width, vm=vm, vf=vf, p_start=p_start,
                      p_end=p_start + distance, u_start=u_start, u_end=u_end)


@settings(max_examples=200, deadline=None)
@given(**MERGE_WINDOWS)
def test_merge_fuel_plan_matches_hand_written_cubic(fractions, **window):
    b = _merge_boundary(**window)
    traj = solve_mz_fuel(b)
    start, end = (b.p_start, b.vm), (b.p_end, b.vf)
    float_solve = oracles.cubic_coefficients(b.tm, b.tf, *start, *end)
    _assert_close_to_exact(traj, start, end, float_solve, fractions)
    _assert_matches_reference(traj, oracles.cubic_states, oracles.cubic_costs, fractions)
    costs = mz_costs(traj)
    assert (costs.fuel, costs.discomfort) == (traj.half_square_integral(2),
                                              traj.half_square_integral(3))


@settings(max_examples=200, deadline=None)
@given(**MERGE_WINDOWS)
def test_merge_jerk_plan_matches_hand_written_quintic(fractions, **window):
    b = _merge_boundary(**window)
    traj = solve_mz_jerk(b)
    start, end = (b.p_start, b.vm, b.u_start), (b.p_end, b.vf, b.u_end)
    float_solve = oracles.quintic_coefficients(b.tm, b.tf, *start, *end)
    _assert_close_to_exact(traj, start, end, float_solve, fractions)
    _assert_matches_reference(traj, oracles.quintic_states, oracles.quintic_costs, fractions)
    costs = mz_costs(traj)
    assert (costs.fuel, costs.discomfort) == (traj.half_square_integral(2),
                                              traj.half_square_integral(3))
