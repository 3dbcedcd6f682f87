import math

import numpy as np
import pytest

import oracles
from crossflow import (
    IntersectionGeometry,
    MzBoundary,
    ParetoPoint,
    Turn,
    default_grid,
    frontier,
    mz_costs,
    normalization_weights,
    solve_mz_jerk,
    solve_mz_weighted,
    sweep,
)
from crossflow.mz_planner import _REGIME_SPLIT

S_LEFT = 3.0 * math.pi * 30.0 / 8.0

CRUISE = MzBoundary(tm=40.0, tf=43.0, vm=10.0, vf=10.0, p_start=400.0, p_end=430.0)
LEFT = MzBoundary(tm=40.0, tf=45.0, vm=8.0, vf=8.0, p_start=400.0, p_end=400.0 + S_LEFT)


def pt(w, fuel, discomfort):
    return ParetoPoint(w=w, fuel=fuel, discomfort=discomfort, trajectory=None)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 50
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1.0 - 1e-3)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # log-spaced toward both endpoints: steps shrink near each end
    steps = np.diff(grid)
    assert steps[0] < steps[len(steps) // 2]
    assert steps[-1] < steps[len(steps) // 2]


def test_sweep_of_cruise_is_a_single_zero_point():
    run = sweep(CRUISE)
    assert len(run.points) == 50
    for point in run.points:
        assert point.fuel == pytest.approx(0.0, abs=1e-9)
        assert point.discomfort == pytest.approx(0.0, abs=1e-9)
    assert len(run.frontier) == 1


def test_sweep_left_turn_is_monotone():
    run = sweep(LEFT)
    fuels = [p.fuel for p in run.points]
    discs = [p.discomfort for p in run.points]
    for a, b in zip(fuels, fuels[1:]):
        assert b <= a + 1e-9
    for a, b in zip(discs, discs[1:]):
        assert b >= a - 1e-9


def test_sweep_endpoints_approach_pure_solutions():
    run = sweep(LEFT)
    jerk_disc = mz_costs(solve_mz_jerk(LEFT)).discomfort
    assert abs(run.points[0].discomfort - jerk_disc) / jerk_disc < 0.01
    fuel_ref, _, _ = oracles.min_fuel_qp(5.0, 0.0, S_LEFT - 40.0, 0.0, 0.0, n=2000)
    assert abs(run.points[-1].fuel - fuel_ref) / fuel_ref < 0.01


def test_sweep_rejects_degenerate_grids():
    with pytest.raises(ValueError):
        sweep(LEFT, grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        sweep(LEFT, grid=(0.5, 1.0))
    with pytest.raises(ValueError, match="at least one weight"):
        sweep(LEFT, grid=())


def test_sweep_rejects_pinned_accelerations():
    pinned = MzBoundary(tm=40.0, tf=45.0, vm=8.0, vf=8.0, p_start=400.0,
                        p_end=400.0 + S_LEFT, u_start=0.5)
    with pytest.raises(ValueError):
        sweep(pinned)


def test_sweep_single_weight():
    run = sweep(LEFT, grid=(0.5,))
    assert len(run.points) == 1
    assert len(run.frontier) == 1
    assert run.frontier[0].w == 0.5


def test_sweep_wraps_solver_failures():
    with pytest.raises(RuntimeError, match="w=0.5"):
        sweep(LEFT, grid=(0.5,), q1=1e12, q2=1e-4)


def test_frontier_drops_dominated_points():
    points = (pt(0.1, 1.0, 2.0), pt(0.5, 2.0, 1.0), pt(0.9, 2.0, 2.0))
    kept = frontier(points)
    assert [(p.fuel, p.discomfort) for p in kept] == [(1.0, 2.0), (2.0, 1.0)]


def test_frontier_collapses_identical_points():
    points = (pt(0.1, 1.0, 1.0), pt(0.5, 1.0, 1.0), pt(0.9, 1.0, 1.0))
    kept = frontier(points)
    assert len(kept) == 1
    assert kept[0].w == 0.1


def test_frontier_of_sweep_is_fixed_point():
    run = sweep(LEFT, grid=(0.05, 0.25, 0.5, 0.75, 0.95))
    assert frontier(run.frontier) == run.frontier


def test_cross_evaluation_optimality():
    # each grid trajectory must lose to the weight's own optimum under
    # that weight's objective
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    run = sweep(LEFT, grid=grid)
    q1, q2 = run.q1, run.q2
    for own in run.points:
        own_cost = own.w * q1 * own.fuel + (1.0 - own.w) * q2 * own.discomfort
        for other in run.points:
            cross = own.w * q1 * other.fuel + (1.0 - own.w) * q2 * other.discomfort
            assert own_cost <= cross + 1e-9


# ---------------------------------------------------------------------------
# the batched sweep against the per-weight solve and quadrature


def _turn_boundary(turn, vm=None):
    # the merge window crossflow pareto sweeps by default, from the turn's
    # curve speed to the through speed; an entry speed other than the
    # turn's curve speed gives a straight crossing costs too
    g = IntersectionGeometry()
    return MzBoundary(
        tm=0.0, tf=g.transit_time(turn), vm=g.mz_speed(turn) if vm is None else vm,
        vf=g.mz_speed_straight, p_start=g.cz_length, p_end=g.cz_length + g.path_length(turn),
    )


def _frontier_indices(points, kept):
    return [i for i, p in enumerate(points) if any(p is k for k in kept)]


def _assert_sweep_matches_per_weight(b, grid):
    q1, q2 = normalization_weights()
    run = sweep(b, grid, q1=q1, q2=q2)
    reference = oracles.sweep_by_weight(b, run.grid, q1, q2)
    assert len(run.points) == len(reference) == len(grid)
    for point, (w, traj, fuel, discomfort) in zip(run.points, reference):
        got = point.trajectory
        assert point.w == w
        assert repr((got.coefficients, got._poly, got._beta, got.rate_pos, got._regime)) == repr(
            (traj.coefficients, traj._poly, traj._beta, traj.rate_pos, traj._regime)
        )
        assert repr((point.fuel, point.discomfort)) == repr((fuel, discomfort))
    reference_points = [
        ParetoPoint(w=w, fuel=fuel, discomfort=discomfort, trajectory=traj)
        for w, traj, fuel, discomfort in reference
    ]
    assert _frontier_indices(run.points, run.frontier) == _frontier_indices(
        reference_points, oracles.frontier_by_pairs(reference_points)
    )
    return run


@pytest.mark.parametrize("turn", list(Turn))
@pytest.mark.parametrize("vm", [None, 11.0])
def test_sweep_matches_per_weight_on_default_grid(turn, vm):
    run = _assert_sweep_matches_per_weight(_turn_boundary(turn, vm), default_grid())
    assert {p.trajectory._regime for p in run.points} == {"series", "layer"}


@pytest.mark.parametrize("turn", list(Turn))
def test_sweep_matches_per_weight_on_a_dense_grid(turn):
    # 400 weights up to near the exponent cap: on the left turn, 58
    # (basis, panel count) groups with 3 to 59 panels in one batch
    b = _turn_boundary(turn)
    run = _assert_sweep_matches_per_weight(b, default_grid(400, 1e-3, 0.9995))
    groups = {
        (p.trajectory._regime, max(3, math.ceil(p.trajectory.rate_pos * b.duration / 10.0)))
        for p in run.points
    }
    assert {regime for regime, _ in groups} == {"series", "layer"}
    assert len(groups) > 20


def test_sweep_matches_per_weight_across_the_regime_split():
    b = _turn_boundary(Turn.LEFT)
    q1, q2 = normalization_weights()
    rate = _REGIME_SPLIT / b.duration
    split = rate * rate * q2 / (q1 + rate * rate * q2)
    grid = [split * (1.0 + k * 1e-3) for k in range(-3, 4)]
    grid += [math.nextafter(split, 0.0), split, math.nextafter(split, 1.0)]
    run = _assert_sweep_matches_per_weight(b, grid)
    assert {p.trajectory._regime for p in run.points} == {"series", "layer"}


def test_sweep_matches_per_weight_on_unsorted_grid_with_duplicates():
    grid = (0.5, 0.01, 0.9, 0.01, 0.3, 0.5, 0.999, 0.002, 0.9)
    for turn in Turn:
        run = _assert_sweep_matches_per_weight(_turn_boundary(turn, 11.0), grid)
        assert run.grid == grid


@pytest.mark.parametrize("w", [0.001, 0.01, 0.5, 0.99])
def test_sweep_of_one_weight_matches_the_single_solve(w):
    b = _turn_boundary(Turn.LEFT, 11.0)
    run = _assert_sweep_matches_per_weight(b, (w,))
    q1, q2 = normalization_weights()
    single = solve_mz_weighted(b, w, q1, q2)
    assert run.points[0].trajectory == single
    costs = mz_costs(single)
    assert repr((run.points[0].fuel, run.points[0].discomfort)) == repr(
        (costs.fuel, costs.discomfort)
    )


def test_sweep_names_the_first_weight_past_the_exponent_cap():
    # the third and fourth weights both pass the cap; the error names the third
    with pytest.raises(RuntimeError, match=r"weighted solve failed at w=0\.9999: weight 0\.9999 "):
        sweep(LEFT, grid=(0.1, 0.5, 0.9999, 0.99999))


def test_frontier_matches_pairwise_oracle_on_ties_and_duplicates():
    rng = np.random.default_rng(12)
    # exact ties, ties inside the tie tolerance, just outside it, and far apart
    offsets = (0.0, 0.0, 4e-13, -7e-13, 1e-12, -1e-12, 3e-12, -2.5e-12, 0.25)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        points = []
        for _ in range(n):
            fuel = float(rng.integers(0, 4)) + float(rng.choice(offsets))
            discomfort = float(rng.integers(0, 4)) + float(rng.choice(offsets))
            w = float(rng.choice((0.1, 0.2, 0.2, 0.5, 0.7, 0.9)))
            points.append(pt(w, fuel, discomfort))
        # the same point object listed more than once
        for i in rng.integers(0, n, int(rng.integers(0, 3))):
            points.append(points[int(i)])
        rng.shuffle(points)
        kept = frontier(points)
        expected = oracles.frontier_by_pairs(points)
        assert [id(p) for p in kept] == [id(p) for p in expected]


def test_frontier_of_nothing_is_empty():
    assert frontier(()) == ()
