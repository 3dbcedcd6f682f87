import math

import numpy as np
import pytest

import oracles
from crossflow import (
    IntersectionGeometry,
    MzBoundary,
    MzVariant,
    Turn,
    mz_costs,
    normalization_weights,
    solve_mz,
    solve_mz_fuel,
    solve_mz_jerk,
    solve_mz_weighted,
)
from crossflow.mz_planner import (
    _remainders,
    half_square_integrals,
    solve_mz_weighted_grid,
    weighted_rate,
)
from crossflow.sim import merge_boundary

S_LEFT = 3.0 * math.pi * 30.0 / 8.0  # left-turn arc length for a 30 m zone

CRUISE = MzBoundary(tm=40.0, tf=43.0, vm=10.0, vf=10.0, p_start=400.0, p_end=430.0)
LEFT = MzBoundary(tm=40.0, tf=45.0, vm=8.0, vf=8.0, p_start=400.0, p_end=400.0 + S_LEFT)

Q1, Q2 = normalization_weights()


def _boundary_residuals(traj, b):
    return (
        abs(traj.position(b.tm) - b.p_start),
        abs(traj.speed(b.tm) - b.vm),
        abs(traj.control(b.tm) - b.u_start),
        abs(traj.position(b.tf) - b.p_end),
        abs(traj.speed(b.tf) - b.vf),
        abs(traj.control(b.tf) - b.u_end),
    )


def _random_boundary(rng):
    vm = float(rng.uniform(6.0, 12.0))
    vf = float(rng.uniform(6.0, 12.0))
    dt = float(rng.uniform(2.0, 6.0))
    avg = 0.5 * (vm + vf) + float(rng.uniform(-1.0, 1.0))
    tm = float(rng.uniform(0.0, 100.0))
    return MzBoundary(
        tm=tm,
        tf=tm + dt,
        vm=vm,
        vf=vf,
        p_start=400.0,
        p_end=400.0 + avg * dt,
        u_start=float(rng.uniform(-1.0, 1.0)),
        u_end=float(rng.uniform(-1.0, 1.0)),
    )


# ---------------------------------------------------------------------------
# minimum-jerk variant


def test_jerk_consistent_boundary_is_cruise():
    traj = solve_mz_jerk(CRUISE)
    # quintic reduces to the linear-position profile: top four coefficients zero
    a, b, c, d, e, f = traj.coefficients
    for coeff in (a, b, c, d):
        assert coeff == pytest.approx(0.0, abs=1e-9)
    assert e == pytest.approx(10.0, abs=1e-9)
    assert mz_costs(traj).discomfort == pytest.approx(0.0, abs=1e-12)


def test_jerk_straight_crossing_costs_nothing():
    traj = solve_mz_jerk(CRUISE)
    costs = mz_costs(traj)
    assert costs.fuel < 1e-12
    assert costs.discomfort < 1e-12
    for t in np.linspace(40.0, 43.0, 31):
        assert abs(traj.jerk(t)) < 1e-9
        assert abs(traj.control(t)) < 1e-9


def test_jerk_left_turn_matches_qp():
    traj = solve_mz_jerk(LEFT)
    cost = mz_costs(traj).discomfort
    ref, _, _ = oracles.min_jerk_qp(5.0, 0.0, S_LEFT - 40.0, 0.0, 0.0, n=800)
    assert abs(cost - ref) / ref < 1e-3


def test_jerk_boundary_residuals():
    rng = np.random.default_rng(21)
    for _ in range(30):
        b = _random_boundary(rng)
        traj = solve_mz_jerk(b)
        assert max(_boundary_residuals(traj, b)) < 1e-8


# ---------------------------------------------------------------------------
# minimum-fuel variant


def test_fuel_consistent_boundary_is_cruise():
    traj = solve_mz_fuel(CRUISE)
    assert mz_costs(traj).fuel == pytest.approx(0.0, abs=1e-12)
    for t in np.linspace(40.0, 43.0, 31):
        assert abs(traj.control(t)) < 1e-9


def test_fuel_left_turn_matches_transcription():
    traj = solve_mz_fuel(LEFT)
    cost = mz_costs(traj).fuel
    ref, _, _ = oracles.transcription_min_effort(5.0, 8.0, 0.0, S_LEFT, n=2000)
    assert abs(cost - ref) / ref < 1e-3


def test_fuel_relaxation_never_costs_more():
    # the fuel problem drops the endpoint-acceleration pins, so its fuel
    # can only undercut the jerk variant's on the same window
    rng = np.random.default_rng(33)
    for _ in range(20):
        b = _random_boundary(rng)
        assert mz_costs(solve_mz_fuel(b)).fuel <= mz_costs(solve_mz_jerk(b)).fuel + 1e-9


def test_fuel_ignores_acceleration_pins():
    pinned = MzBoundary(tm=0.0, tf=4.0, vm=9.0, vf=9.0, p_start=400.0,
                        p_end=434.0, u_start=2.0, u_end=-2.0)
    free = MzBoundary(tm=0.0, tf=4.0, vm=9.0, vf=9.0, p_start=400.0, p_end=434.0)
    a = solve_mz_fuel(pinned)
    b = solve_mz_fuel(free)
    assert a.coefficients == b.coefficients


def test_fuel_boundary_residuals():
    # only the four position/speed conditions apply to this variant
    rng = np.random.default_rng(22)
    for _ in range(30):
        b = _random_boundary(rng)
        traj = solve_mz_fuel(b)
        res = _boundary_residuals(traj, b)
        assert max(res[0], res[1], res[3], res[4]) < 1e-8


# ---------------------------------------------------------------------------
# weighted variant


def test_weighted_consistent_boundary_is_cruise():
    for w in (1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3):
        traj = solve_mz_weighted(CRUISE, w, Q1, Q2)
        for t in np.linspace(40.0, 43.0, 16):
            assert abs(traj.control(t)) < 1e-7


def test_weighted_stationarity_residual():
    # the optimality condition in control form, with derivatives taken by
    # finite differences so the check does not reuse the solver's algebra
    w, q1, q2 = 0.5, 1.0, 1.0
    traj = solve_mz_weighted(LEFT, w, q1, q2)
    a, b = traj.coefficients[0], traj.coefficients[1]
    h = 1e-4
    for t in np.linspace(40.0 + 2 * h, 45.0 - 2 * h, 1000):
        u_dd = (traj.control(t + h) - 2.0 * traj.control(t) + traj.control(t - h)) / h**2
        tau = t - 40.0
        residual = (1.0 - w) * q2 * u_dd - w * q1 * traj.control(t) + (a * tau + b)
        assert abs(residual) < 1e-6


def test_weighted_left_turn_matches_qp():
    traj = solve_mz_weighted(LEFT, 0.5, 1.0, 1.0)
    cost = mz_costs(traj).weighted
    ref, _, _ = oracles.weighted_qp(5.0, 0.0, S_LEFT - 40.0, 0.0, 0.0, 0.5, 1.0, 1.0, n=2000)
    assert abs(cost - ref) / ref < 1e-3


def test_weighted_random_instances_match_qp():
    rng = np.random.default_rng(77)
    for _ in range(20):
        b = _random_boundary(rng)
        w = float(rng.uniform(0.05, 0.95))
        traj = solve_mz_weighted(b, w, Q1, Q2)
        cost = mz_costs(traj).weighted
        ref, _, _ = oracles.weighted_qp(
            b.duration, b.vf - b.vm, (b.p_end - b.p_start) - b.vm * b.duration,
            b.u_start, b.u_end, w, Q1, Q2, n=1200,
        )
        scale = max(abs(ref), 1e-9)
        assert abs(cost - ref) / scale < 1e-3


def test_weighted_limits_to_jerk_solution():
    base = solve_mz_jerk(LEFT)
    near = solve_mz_weighted(LEFT, 1e-6, 1.0, 1.0)
    grid = np.linspace(40.0, 45.0, 200)
    gap = max(abs(float(near.control(t)) - float(base.control(t))) for t in grid)
    assert gap < 1e-2


def test_weighted_boundary_residuals_across_regimes():
    rng = np.random.default_rng(23)
    for w in (1e-3, 0.01, 0.5, 0.99, 1.0 - 1e-3):
        for _ in range(8):
            b = _random_boundary(rng)
            traj = solve_mz_weighted(b, w, Q1, Q2)
            assert max(_boundary_residuals(traj, b)) < 1e-8


def test_weighted_rejects_degenerate_weights():
    with pytest.raises(ValueError, match="solve_mz_jerk"):
        solve_mz_weighted(LEFT, 0.0, Q1, Q2)
    with pytest.raises(ValueError, match="solve_mz_fuel"):
        solve_mz_weighted(LEFT, 1.0, Q1, Q2)
    with pytest.raises(ValueError):
        solve_mz_weighted(LEFT, -0.2, Q1, Q2)
    with pytest.raises(ValueError):
        solve_mz_weighted(LEFT, 0.5, -1.0, Q2)


def test_weighted_rejects_unresolvable_stiffness():
    with pytest.raises(ValueError, match="cap"):
        solve_mz_weighted(LEFT, 0.5, 1e12, 1e-4)


def test_weighted_objective_needs_a_weight():
    with pytest.raises(ValueError, match="weight None"):
        solve_mz(LEFT, MzVariant.WEIGHTED)


def test_remainder_matches_its_series():
    # R(x, k) = sum of x^(2j) / (k+2j)!, its first 60 terms summed by
    # math.fsum, on both sides of the series split, at the split and its float
    # neighbours, at zero, and where x^2 underflows
    xs = [*np.linspace(-3.0, 3.0, 601), 0.0, 1e-300]
    for split in (0.5, -0.5):
        xs += [split, math.nextafter(split, 0.0), math.nextafter(split, 2.0 * split)]
    for k, values in _remainders(np.array(xs), range(1, 6)).items():
        for x, got in zip(xs, values):
            ref = math.fsum(x ** (2 * j) / math.factorial(k + 2 * j) for j in range(60))
            assert abs(got - ref) <= 1e-12 * ref


def test_weighted_control_is_continuous_across_regimes():
    # rate*width on either side of the basis switch gives the same physics
    b = LEFT
    w_lo = 0.013  # rate*width just below 2
    w_hi = 0.015  # just above
    for w in (w_lo, w_hi):
        rate = math.sqrt(w * Q1 / ((1.0 - w) * Q2))
        assert abs(rate * b.duration - 2.0) < 0.1
    t = np.linspace(40.0, 45.0, 50)
    lo = solve_mz_weighted(b, w_lo, Q1, Q2).control(t)
    hi = solve_mz_weighted(b, w_hi, Q1, Q2).control(t)
    assert np.max(np.abs(lo - hi)) < 0.05


# ---------------------------------------------------------------------------
# derivative consistency


def _check_derivative_chain(traj, lo, hi):
    h = 1e-5
    for t in np.linspace(lo + 2 * h, hi - 2 * h, 60):
        dp = (traj.position(t + h) - traj.position(t - h)) / (2 * h)
        dv = (traj.speed(t + h) - traj.speed(t - h)) / (2 * h)
        du = (traj.control(t + h) - traj.control(t - h)) / (2 * h)
        assert abs(dp - traj.speed(t)) < 1e-5 * max(1.0, abs(traj.speed(t)))
        assert abs(dv - traj.control(t)) < 1e-5 * max(1.0, abs(traj.control(t)))
        assert abs(du - traj.jerk(t)) < 1e-4 * max(1.0, abs(traj.jerk(t)))


def test_derivative_chain_all_variants():
    _check_derivative_chain(solve_mz_jerk(LEFT), 40.0, 45.0)
    _check_derivative_chain(solve_mz_fuel(LEFT), 40.0, 45.0)
    _check_derivative_chain(solve_mz_weighted(LEFT, 0.5, Q1, Q2), 40.0, 45.0)
    _check_derivative_chain(solve_mz_weighted(LEFT, 0.99, Q1, Q2), 40.0, 45.0)


def test_boundary_window_validation():
    with pytest.raises(ValueError):
        MzBoundary(tm=45.0, tf=45.0, vm=8.0, vf=8.0, p_start=400.0, p_end=435.0)
    with pytest.raises(ValueError):
        MzBoundary(tm=40.0, tf=45.0, vm=8.0, vf=8.0, p_start=400.0, p_end=400.0)


# ---------------------------------------------------------------------------
# cost functionals


def test_costs_zero_for_cruise():
    costs = mz_costs(solve_mz_weighted(CRUISE, 0.5, Q1, Q2))
    assert costs.fuel == pytest.approx(0.0, abs=1e-12)
    assert costs.discomfort == pytest.approx(0.0, abs=1e-12)
    assert costs.weighted == pytest.approx(0.0, abs=1e-12)
    # a pure-jerk trajectory carries no weight, so no combined cost exists
    jerk_costs = mz_costs(solve_mz_jerk(CRUISE))
    assert jerk_costs.fuel == pytest.approx(0.0, abs=1e-12)
    assert jerk_costs.weighted is None


def test_costs_match_quadrature_polynomial():
    rng = np.random.default_rng(41)
    for _ in range(10):
        b = _random_boundary(rng)
        traj = solve_mz_jerk(b)
        fuel = oracles.quad_half_square(lambda t: traj.control(t), b.tm, b.tf)
        disc = oracles.quad_half_square(lambda t: traj.jerk(t), b.tm, b.tf)
        costs = mz_costs(traj)
        assert costs.fuel == pytest.approx(fuel, rel=1e-10, abs=1e-10)
        assert costs.discomfort == pytest.approx(disc, rel=1e-10, abs=1e-10)


def test_costs_match_quadrature_exponential():
    rng = np.random.default_rng(42)
    for w in (0.05, 0.5, 0.95):
        b = _random_boundary(rng)
        traj = solve_mz_weighted(b, w, Q1, Q2)
        fuel = oracles.quad_half_square(lambda t: traj.control(t), b.tm, b.tf)
        disc = oracles.quad_half_square(lambda t: traj.jerk(t), b.tm, b.tf)
        costs = mz_costs(traj)
        assert costs.fuel == pytest.approx(fuel, rel=1e-8, abs=1e-8)
        assert costs.discomfort == pytest.approx(disc, rel=1e-8, abs=1e-8)


def test_costs_match_panel_by_panel_quadrature():
    # the same nodes and panels, summed in another order: equal to a few
    # ulps per panel
    rng = np.random.default_rng(43)
    for w in (1e-3, 0.05, 0.5, 0.99, 0.999):
        b = _random_boundary(rng)
        traj = solve_mz_weighted(b, w, Q1, Q2)
        costs = mz_costs(traj)
        for got, fn in ((costs.fuel, traj.control), (costs.discomfort, traj.jerk)):
            ref = oracles.panelled_half_square(fn, b.tm, b.tf, traj.rate_pos)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_weighted_cost_definition():
    traj = solve_mz_weighted(LEFT, 0.3, Q1, Q2)
    costs = mz_costs(traj)
    assert costs.weighted == pytest.approx(
        0.3 * Q1 * costs.fuel + 0.7 * Q2 * costs.discomfort, rel=1e-12
    )


def test_weighted_beats_jerk_solution_on_its_own_functional():
    # both solve the same six boundary conditions, so the weighted optimum
    # can only be cheaper under the weighted objective
    jerk = mz_costs(solve_mz_jerk(LEFT))
    assert jerk.weighted is None
    for w in (0.1, 0.5, 0.9):
        opt = mz_costs(solve_mz_weighted(LEFT, w, Q1, Q2)).weighted
        other = w * Q1 * jerk.fuel + (1.0 - w) * Q2 * jerk.discomfort
        assert opt <= other + 1e-9


# ---------------------------------------------------------------------------
# batched solve and quadrature


def test_single_weighted_solve_matches_per_weight_oracle():
    rng = np.random.default_rng(31)
    for w in (1e-3, 0.01, 0.2, 0.5, 0.99, 1.0 - 1e-3):
        for _ in range(6):
            b = _random_boundary(rng)
            got = solve_mz_weighted(b, w, Q1, Q2)
            ref = oracles.solve_weighted_by_weight(b, w, Q1, Q2)
            assert repr(got) == repr(ref)
            costs = mz_costs(got)
            assert repr((costs.fuel, costs.discomfort)) == repr(
                (oracles.half_square_by_trajectory(ref, 2),
                 oracles.half_square_by_trajectory(ref, 3))
            )


@pytest.mark.parametrize("tm", [0.5, 1.0e6])
@pytest.mark.parametrize("turn", list(Turn))
def test_derivative_keeps_the_scalar_oracles_bits(turn, tm):
    # each order at the window's ends and 23 points inside it, one time at
    # a time and as one array, against the scalar cubic and basis pair;
    # the weights span both bases
    g = IntersectionGeometry()
    b = merge_boundary(turn, tm, tm + g.transit_time(turn), g)
    times = np.linspace(b.tm, b.tf, 25)
    trajectories = solve_mz_weighted_grid(b, (1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99), Q1, Q2)
    assert {traj._regime for traj in trajectories} == {"series", "layer"}
    for traj in trajectories:
        together = traj.derivatives(times, range(4))
        for order in range(4):
            expected = oracles.derivative_by_scalar(traj, times, order)
            assert traj.derivative(times, order).tobytes() == expected.tobytes()
            assert together[order].tobytes() == expected.tobytes()
            for t, value in zip(times.tolist(), expected.tolist()):
                assert float(traj.derivative(t, order)).hex() == value.hex()


def test_weighted_grid_raises_at_its_first_refused_weight():
    with pytest.raises(ValueError, match="weight 0.9999 gives"):
        solve_mz_weighted_grid(LEFT, (0.1, 0.5, 0.9999, 0.99999), Q1, Q2)
    assert solve_mz_weighted_grid(LEFT, (), Q1, Q2) == ()


def _assert_batched_costs_match_each_alone(trajectories):
    batched = half_square_integrals(trajectories, (2, 3))
    for traj, costs in zip(trajectories, batched):
        (alone,) = half_square_integrals((traj,), (2, 3))
        assert repr(costs) == repr(alone)
        assert repr(alone) == repr(
            (oracles.half_square_by_trajectory(traj, 2), oracles.half_square_by_trajectory(traj, 3))
        )


def _panels(traj):
    return max(3, math.ceil(traj.rate_pos * traj.duration / 10.0))


def test_batched_costs_of_mixed_windows_match_each_alone():
    # windows that differ, windows that repeat (so that trajectories share
    # a node layout), both bases and several panel counts, in shuffled order
    rng = np.random.default_rng(5)
    boundaries = [_random_boundary(rng) for _ in range(4)]
    boundaries.append(boundaries[0])
    trajectories = [
        solve_mz_weighted(b, w, Q1, Q2)
        for b in boundaries
        for w in (1e-3, 0.01, 0.3, 0.5, 0.9, 0.99, 0.999)
    ]
    order = rng.permutation(len(trajectories))
    trajectories = [trajectories[i] for i in order]
    assert {t._regime for t in trajectories} == {"series", "layer"}
    _assert_batched_costs_match_each_alone(trajectories)
    assert half_square_integrals((), (2, 3)) == []


def test_batched_costs_of_many_panel_counts_match_each_alone():
    # two windows of one width at different entry times, whose nodes differ
    # in the last bits; weights from the series basis to near the exponent
    # cap, so that one batch holds more than 20 panel counts; and one
    # trajectory listed twice, all in shuffled order
    later = MzBoundary(tm=10.0, tf=15.0, vm=9.0, vf=7.0, p_start=400.0, p_end=400.0 + S_LEFT)
    assert later.duration == LEFT.duration and later.tm != LEFT.tm
    weights = [1e-3, 0.01, 0.5] + [1.0 - d for d in np.geomspace(0.05, 6e-4, 30)]
    trajectories = [solve_mz_weighted(b, w, Q1, Q2) for b in (LEFT, later) for w in weights]
    trajectories.append(trajectories[len(weights) + 7])
    rng = np.random.default_rng(8)
    trajectories = [trajectories[i] for i in rng.permutation(len(trajectories))]
    assert {t._regime for t in trajectories} == {"series", "layer"}
    assert len({_panels(t) for t in trajectories}) >= 20
    _assert_batched_costs_match_each_alone(trajectories)


def test_costs_at_the_exponent_cap_need_at_most_70_panels():
    # the largest weight weighted_rate accepts on a long left-turn window
    g = IntersectionGeometry(mz_side=62.0)
    b = merge_boundary(Turn.LEFT, 0.0, g.transit_time(Turn.LEFT), g)

    def accepted(w):
        try:
            weighted_rate(w, Q1, Q2, b.duration)
        except ValueError:
            return False
        return True

    ratio = (700.0 / b.duration) ** 2 * Q2 / Q1
    w = ratio / (1.0 + ratio)
    while not accepted(w):
        w = math.nextafter(w, 0.0)
    while accepted(math.nextafter(w, 1.0)):
        w = math.nextafter(w, 1.0)
    traj = solve_mz_weighted(b, w, Q1, Q2)
    assert traj.rate_pos * b.duration <= 700.0
    assert 60 < _panels(traj) <= 70
    costs = mz_costs(traj)
    assert repr((costs.fuel, costs.discomfort)) == repr(
        (oracles.half_square_by_trajectory(traj, 2), oracles.half_square_by_trajectory(traj, 3))
    )
