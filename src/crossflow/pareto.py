"""Fuel/comfort tradeoff sweep over the merging-zone weight.

Each weight w in (0, 1) yields one optimal trajectory for the same
boundary conditions; collecting (fuel, discomfort) across a grid traces
the tradeoff curve, and dominance filtering extracts its frontier.  The
default grid is log-spaced toward both ends of the interval because the
curve's knees live near the degenerate weights.  A sweep makes one
batched solve of the whole grid (mz_planner.solve_mz_weighted_grid) and
one batched cost quadrature of its trajectories
(mz_planner.half_square_integrals), which evaluates each basis's nodes,
for every weight's panel count at once, in one call; the frontier
compares every pair of points at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from crossflow.mz_planner import (
    MzBoundary,
    MzTrajectory,
    half_square_integrals,
    normalization_weights,
    solve_mz_weighted_grid,
)

DEFAULT_GRID_SIZE = 50
DEFAULT_W_MIN = 1e-3
DEFAULT_W_MAX = 1.0 - 1e-3


@dataclass(frozen=True)
class ParetoPoint:
    w: float
    fuel: float
    discomfort: float
    trajectory: MzTrajectory


@dataclass(frozen=True)
class ParetoRun:
    boundary: MzBoundary
    q1: float
    q2: float
    grid: Tuple[float, ...]
    points: Tuple[ParetoPoint, ...]
    frontier: Tuple[ParetoPoint, ...]


def default_grid(
    n: int = DEFAULT_GRID_SIZE,
    w_min: float = DEFAULT_W_MIN,
    w_max: float = DEFAULT_W_MAX,
) -> Tuple[float, ...]:
    """n weights in [w_min, w_max], log-spaced toward both interval ends."""
    if n < 1:
        raise ValueError("grid size must be at least 1")
    if not 0.0 < w_min <= w_max < 1.0:
        raise ValueError(f"weight range [{w_min}, {w_max}] must sit inside (0, 1)")
    if n == 1:
        return (w_min,)
    lower_n = n // 2
    upper_n = n - lower_n
    lower = np.geomspace(w_min, 0.5, lower_n, endpoint=False)
    upper = 1.0 - np.geomspace(1.0 - w_max, 0.5, upper_n, endpoint=False)[::-1]
    return tuple(float(w) for w in np.concatenate([lower, upper]))


# the grid a sweep without one uses, built once
_DEFAULT_GRID = default_grid()

_TIE_EPS = 1e-12


def frontier(points: Iterable[ParetoPoint]) -> Tuple[ParetoPoint, ...]:
    """Non-dominated subset under (fuel, discomfort) minimization.

    Cost ties, exact or within float noise, keep only the lowest-w
    representative; output is ordered by w.  Every pair is compared at
    once, as one dominance matrix over (other, candidate).
    """
    pts = list(points)
    # columns over the other point, to compare with their transposes over the candidate
    fuel, discomfort, w = np.array(
        [(p.fuel, p.discomfort, p.w) for p in pts], dtype=float
    ).reshape(-1, 3).T[:, :, None]
    no_worse = (fuel <= fuel.T + _TIE_EPS) & (discomfort <= discomfort.T + _TIE_EPS)
    strictly_better = (fuel < fuel.T - _TIE_EPS) | (discomfort < discomfort.T - _TIE_EPS)
    tie_loser = (
        (np.abs(fuel - fuel.T) <= _TIE_EPS)
        & (np.abs(discomfort - discomfort.T) <= _TIE_EPS)
        & (w < w.T)
    )
    # a point never dominates itself: it is neither strictly better nor of lower w
    dominated = (no_worse & (strictly_better | tie_loser)).any(axis=0)
    kept = [point for point, out in zip(pts, dominated) if not out]
    kept.sort(key=lambda point: point.w)
    return tuple(kept)


def sweep(
    b: MzBoundary,
    grid: Optional[Sequence[float]] = None,
    q1: Optional[float] = None,
    q2: Optional[float] = None,
) -> ParetoRun:
    """Solve the weighted problem across a weight grid and collect costs.

    The boundary must carry zero endpoint accelerations: every weight then
    shares one admissible trajectory set, which is what makes the per-point
    optima comparable as a tradeoff curve.
    """
    if b.u_start != 0.0 or b.u_end != 0.0:
        raise ValueError("tradeoff sweeps require zero boundary accelerations")
    if grid is None:
        grid = _DEFAULT_GRID
    grid = tuple(float(w) for w in grid)
    if not grid:
        raise ValueError("grid must hold at least one weight")
    for w in grid:
        if not 0.0 < w < 1.0:
            raise ValueError(f"grid weight {w} outside the open interval (0, 1)")
    if q1 is None or q2 is None:
        default_q1, default_q2 = normalization_weights()
        q1 = default_q1 if q1 is None else q1
        q2 = default_q2 if q2 is None else q2

    try:
        trajectories = solve_mz_weighted_grid(b, grid, q1, q2)
    except Exception as exc:
        # name the first weight that fails on its own
        for w in grid:
            try:
                solve_mz_weighted_grid(b, (w,), q1, q2)
            except Exception as single:
                raise RuntimeError(f"weighted solve failed at w={w}: {single}") from single
        raise RuntimeError(f"weighted solve failed: {exc}") from exc
    points = tuple(
        ParetoPoint(w=w, fuel=fuel, discomfort=discomfort, trajectory=traj)
        for w, traj, (fuel, discomfort) in zip(
            grid, trajectories, half_square_integrals(trajectories, (2, 3)))
    )
    return ParetoRun(
        boundary=b,
        q1=q1,
        q2=q2,
        grid=grid,
        points=points,
        frontier=frontier(points),
    )
