"""Closed-form fuel-minimal trajectories for the control-zone approach.

Minimizing the squared-acceleration integral between fixed position/speed
endpoints makes the optimal control linear in time, so the whole planning
problem collapses to a 4x4 linear solve for the cubic position profile.
Speed/acceleration bounds and the rear-end gap to a leader are verified
after the fact and reported; a violating plan is surfaced, never clipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from crossflow.geometry import IntersectionGeometry

# slack applied to all bound comparisons so exact-boundary profiles pass
_BOUND_EPS = 1e-9

# bisection tolerance on reported violation times
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class CzTrajectory:
    """Cubic position profile over the approach window [t0, tm].

    Coefficients live in shifted time tau = t - t0: u = a*tau + b,
    v = a*tau^2/2 + b*tau + c, p = a*tau^3/6 + b*tau^2/2 + c*tau + d.
    Shifting keeps the boundary system well-conditioned at large absolute
    times.  Position is measured from the control-zone entrance.
    """

    a: float
    b: float
    c: float
    d: float
    t0: float
    tm: float
    v0: float
    vm: float
    length: float

    @property
    def duration(self) -> float:
        return self.tm - self.t0

    def control(self, t):
        tau = np.asarray(t, dtype=float) - self.t0
        return self.a * tau + self.b

    def speed(self, t):
        tau = np.asarray(t, dtype=float) - self.t0
        return (0.5 * self.a * tau + self.b) * tau + self.c

    def position(self, t):
        tau = np.asarray(t, dtype=float) - self.t0
        return ((self.a * tau / 6.0 + 0.5 * self.b) * tau + self.c) * tau + self.d

    def jerk(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.a)


def solve_cz(t0: float, v0: float, tm: float, vm: float, length: float) -> CzTrajectory:
    """Solve the boundary system for the fuel-minimal approach trajectory.

    Conditions: p(t0) = 0, v(t0) = v0, p(tm) = length, v(tm) = vm.
    """
    if not tm > t0:
        raise ValueError(f"merge time {tm} does not exceed entry time {t0}: boundary system is singular")
    horizon = tm - t0
    system = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [horizon**3 / 6.0, horizon**2 / 2.0, horizon, 1.0],
            [horizon**2 / 2.0, horizon, 1.0, 0.0],
        ]
    )
    rhs = np.array([0.0, v0, length, vm])
    if horizon < 1e-3:
        warnings.warn(
            f"approach window of {horizon:.3g} s is extremely short; "
            f"boundary system condition estimate {np.linalg.cond(system):.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    a, b, c, d = np.linalg.solve(system, rhs)
    return CzTrajectory(
        a=float(a), b=float(b), c=float(c), d=float(d),
        t0=t0, tm=tm, v0=v0, vm=vm, length=length,
    )


def cz_cost(traj: CzTrajectory) -> float:
    """Control effort 0.5 * integral of u^2 over the window, in closed form."""
    horizon = traj.duration
    a, b = traj.a, traj.b
    return 0.5 * (a * a * horizon**3 / 3.0 + a * b * horizon**2 + b * b * horizon)


@dataclass(frozen=True)
class Violation:
    """One bound or gap violation: what was exceeded, when, by how much."""

    kind: str
    time: float
    value: float
    bound: float


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: Tuple[Violation, ...]
    # worst gap to the leader over the shared control-zone window, if checked
    min_gap: Optional[float] = None
    min_gap_time: Optional[float] = None


def _speed_extremum_times(traj: CzTrajectory):
    times = [traj.t0, traj.tm]
    if traj.a != 0.0:
        stationary = traj.t0 - traj.b / traj.a
        if traj.t0 < stationary < traj.tm:
            times.append(stationary)
    return times


def _position(traj: CzTrajectory, t: float) -> float:
    # CzTrajectory.position on plain floats: the same operations in the same
    # order give the same bits, without numpy-scalar overhead
    tau = t - traj.t0
    return ((traj.a * tau / 6.0 + 0.5 * traj.b) * tau + traj.c) * tau + traj.d


def _gap(leader: CzTrajectory, follower: CzTrajectory, t: float) -> float:
    return _position(leader, t) - _position(follower, t)


def _shared_window(leader: CzTrajectory, follower: CzTrajectory) -> Tuple[float, float]:
    """Window where both vehicles are inside the control zone; empty when lo > hi."""
    return max(follower.t0, leader.t0), min(follower.tm, leader.tm)


def _min_gap(leader: CzTrajectory, follower: CzTrajectory, lo: float, hi: float):
    """Exact minimum of the leader-follower gap on [lo, hi].

    The gap is cubic in t, so its minimum over a closed window sits either
    at a window endpoint or at a root of the quadratic speed difference.
    """
    quad = 0.5 * (leader.a - follower.a)
    lin = (leader.b - leader.a * leader.t0) - (follower.b - follower.a * follower.t0)
    const = (
        0.5 * leader.a * leader.t0**2 - leader.b * leader.t0 + leader.c
    ) - (0.5 * follower.a * follower.t0**2 - follower.b * follower.t0 + follower.c)
    candidates = [lo, hi]
    if quad != 0.0:
        disc = lin * lin - 4.0 * quad * const
        if disc >= 0.0:
            # stable form: the naive (-lin + sqrt) numerator cancels badly
            # when quad is tiny, which it often is for near-cruise profiles
            root = math.sqrt(disc)
            q = -0.5 * (lin + math.copysign(root, lin) if lin != 0.0 else -root)
            candidates.append(q / quad)
            if q != 0.0:
                candidates.append(const / q)
    elif lin != 0.0:
        candidates.append(-const / lin)
    best = min((_gap(leader, follower, t), t) for t in candidates if lo <= t <= hi)
    return best


class GapCheck(NamedTuple):
    """Closest approach of a follower to its lane leader in the control zone."""

    gap: float         # minimum of p_leader - p_follower over the shared window
    time: float        # when that minimum occurs
    too_close: bool    # gap below min_safe_distance by more than float slack


def rear_end_gap(
    leader: CzTrajectory, follower: CzTrajectory, min_safe_distance: float
) -> Optional[GapCheck]:
    """Rear-end check of a follower against the vehicle ahead on its lane.

    The gap is minimized in closed form over the window where both are
    inside the control zone; None when that window is empty.  This is the
    one rule behind both the entry gate and the ``rear_end`` entry of
    check_feasibility.
    """
    lo, hi = _shared_window(leader, follower)
    if lo > hi:
        return None
    gap, time = _min_gap(leader, follower, lo, hi)
    return GapCheck(gap, time, gap < min_safe_distance - _BOUND_EPS)


def _first_gap_crossing(leader, follower, delta: float) -> float:
    """Earliest time in the shared window at which the gap drops below delta."""
    lo, hi = _shared_window(leader, follower)
    if _gap(leader, follower, lo) < delta:
        return lo
    a, b = lo, hi
    while b - a > _TIME_EPS:
        mid = 0.5 * (a + b)
        if _gap(leader, follower, mid) >= delta:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def check_feasibility(
    traj: CzTrajectory,
    g: IntersectionGeometry,
    leader: Optional[CzTrajectory] = None,
) -> FeasibilityReport:
    """Verify speed/acceleration bounds and the rear-end gap to a leader.

    The control law is linear and the speed quadratic, so both are
    extremized analytically instead of sampled.  When a leader sharing the
    lane is given, the gap p_leader - p_follower is minimized in closed
    form over the window where both are inside the control zone, and a
    sub-threshold gap is reported with the time it first opens up.
    Violations are report entries, not exceptions: downstream stages decide
    what to do with an infeasible plan.
    """
    violations = []
    for t in (traj.t0, traj.tm):
        u = float(traj.control(t))
        if u < g.u_min - _BOUND_EPS:
            violations.append(Violation("control_low", t, u, g.u_min))
        elif u > g.u_max + _BOUND_EPS:
            violations.append(Violation("control_high", t, u, g.u_max))
    for t in _speed_extremum_times(traj):
        v = float(traj.speed(t))
        if v < g.v_min - _BOUND_EPS:
            violations.append(Violation("speed_low", t, v, g.v_min))
        elif v > g.v_max + _BOUND_EPS:
            violations.append(Violation("speed_high", t, v, g.v_max))

    min_gap = None
    min_gap_time = None
    if leader is not None:
        found = rear_end_gap(leader, traj, g.min_safe_distance)
        if found is not None:
            min_gap, min_gap_time = found.gap, found.time
            if found.too_close:
                when = _first_gap_crossing(leader, traj, g.min_safe_distance)
                violations.append(
                    Violation("rear_end", when, min_gap, g.min_safe_distance)
                )

    violations.sort(key=lambda item: item.time)
    return FeasibilityReport(
        ok=not violations,
        violations=tuple(violations),
        min_gap=min_gap,
        min_gap_time=min_gap_time,
    )
