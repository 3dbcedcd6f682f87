"""Every closed-form safety check, and the one record of a finding.

audit_run re-derives the safety story from a run's trajectory records
alone, exactly on their closed forms: each vehicle against its lane
leader, the merge-zone windows swept in order of start, and vehicles
paired only within an exit arm and a headway of each other's exit.  It
reads no schedule, no sampled state and no scheduler bookkeeping: a
vehicle's exit speed is the speed its exit-lane piece starts with.
audit_queue re-checks a finished queue's ordering rules.  gap_to with
too_close is the one rule for the gap to a lane leader, which the entry
gate shares, and check_feasibility verifies one cubic's speed and
control bounds, so a violating plan is surfaced, never clipped; both
find their extrema by one root rule, _real_roots.  Pieces are read by
their coefficients, window and derivative alone, so among the package's
modules this one imports only the geometry.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from crossflow.geometry import Arm, ConflictClass, IntersectionGeometry, classify

# slack applied to all bound comparisons so exact-boundary profiles pass
_BOUND_EPS = 1e-9

# merge-zone windows may share, and exit headways fall short by, this much
_AUDIT_TIME_TOL = 1e-6


def _real_roots(quad: float, lin: float, const: float) -> List[float]:
    """The real roots of quad*x^2 + lin*x + const, none for a constant.  A
    quadratic's roots take the stable form: the naive (-lin + sqrt)
    numerator cancels badly when quad is tiny, as it often is for
    near-cruise profiles.  A double root may come twice."""
    if quad == 0.0:
        return [-const / lin] if lin != 0.0 else []
    disc = lin * lin - 4.0 * quad * const
    if not disc >= 0.0:
        return []
    root = math.sqrt(disc)
    q = -0.5 * (lin + math.copysign(root, lin) if lin != 0.0 else -root)
    return [q / quad, const / q] if q != 0.0 else [q / quad]


def gap_to(
    leader: "PolyTrajectory",
) -> Callable[[Sequence[float], float, float], Optional[Tuple[float, float]]]:
    """The exact minimum of the gap to one cubic lane leader, prepared once.

    Returns min_gap(coefficients, t0, t1): the least leader-follower gap
    over the window a cubic follower with those coefficients on [t0, t1]
    shares with the leader, and its time, or None when they share none.
    The gap is cubic in t, so its minimum over a closed window sits either
    at a window endpoint or at a stationary point: a real root of the
    quadratic speed difference.  The leader's terms of that quadratic are
    computed here, so each follower costs only its own terms; no object is
    built beyond the result.
    """
    la, lb, lc, ld = leader.coefficients
    lt0, lt1 = leader.t0, leader.t1
    half_lb = 0.5 * lb
    lead_lin = lb - la * lt0
    lead_const = 0.5 * la * lt0**2 - lb * lt0 + lc

    def min_gap(coefficients: Sequence[float], ft0: float, ft1: float):
        lo = lt0 if lt0 > ft0 else ft0
        hi = lt1 if lt1 < ft1 else ft1
        if lo > hi:
            return None
        fa, fb, fc, fd = coefficients
        quad = 0.5 * (la - fa)
        lin = lead_lin - (fb - fa * ft0)
        const = lead_const - (0.5 * fa * ft0**2 - fb * ft0 + fc)
        # both positions by the Horner steps of PolyTrajectory.position, on
        # plain floats: the same operations in the same order give the same
        # bits; ties in the gap go to the earlier time
        half_fb = 0.5 * fb
        best_gap = best_t = None
        for t in (lo, hi, *_real_roots(quad, lin, const)):
            if lo <= t <= hi:
                lt, ft = t - lt0, t - ft0
                gap = ((la * lt / 6.0 + half_lb) * lt + lc) * lt + ld - (
                    ((fa * ft / 6.0 + half_fb) * ft + fc) * ft + fd
                )
                if best_t is None or gap < best_gap or (gap == best_gap and t < best_t):
                    best_gap, best_t = gap, t
        return best_gap, best_t

    return min_gap


def too_close(gap: float, min_safe_distance: float) -> bool:
    """Whether a gap falls below min_safe_distance by more than float slack."""
    return gap < min_safe_distance - _BOUND_EPS


@dataclass(frozen=True)
class Violation:
    """One bound violation: what was exceeded, when, by how much."""

    kind: str
    time: float
    value: float
    bound: float


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: Tuple[Violation, ...]


def check_feasibility(traj: "PolyTrajectory", g: IntersectionGeometry) -> FeasibilityReport:
    """Verify one cubic's speed and acceleration bounds.

    The control law is linear and the speed quadratic, so both are
    extremized analytically instead of sampled: the control at the window
    ends, the speed there and at the control's root inside the window.
    Violations are report entries, not exceptions: downstream stages
    decide what to do with an infeasible plan.  Any piece whose
    coefficients are not a cubic's four, a quintic or a weighted merge
    piece, is refused with a ValueError.
    """
    if len(traj.coefficients) != 4:
        raise ValueError(f"check_feasibility takes a cubic, got {type(traj).__name__} "
                         f"with {len(traj.coefficients)} coefficients")
    t0, t1 = traj.t0, traj.t1
    a, b, _, _ = traj.coefficients
    stationary = [t0 + tau for tau in _real_roots(0.0, a, b)]
    violations = []
    for kind, order, times, low, high in (
        ("control", 2, (t0, t1), g.u_min, g.u_max),
        ("speed", 1, (t0, t1, *(t for t in stationary if t0 < t < t1)), g.v_min, g.v_max),
    ):
        for t in times:
            value = float(traj.derivative(t, order))
            if value < low - _BOUND_EPS:
                violations.append(Violation(f"{kind}_low", t, value, low))
            elif value > high + _BOUND_EPS:
                violations.append(Violation(f"{kind}_high", t, value, high))
    violations.sort(key=lambda item: item.time)
    return FeasibilityReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class AuditFinding:
    """One safety violation between two vehicles.

    Per kind, from audit_run:

    - cz_gap: vehicle_id follows other_id on its entry arm; time is when
      their control-zone gap is smallest, value that gap, bound the
      minimum safe distance.
    - mz_overlap: vehicle_id is the higher id of a crossing-path pair;
      time is when their merge-zone windows start to overlap, value the
      length of the overlap, bound 0.
    - exit_spacing: vehicle_id leaves into other_id's exit lane too soon;
      time is its merge-zone exit, value the headway behind other_id's
      exit, bound the headway the safe distance needs at other_id's exit
      speed.

    From audit_queue, where vehicle_id is the later vehicle in
    the queue, other_id the earlier one, and bound 0:

    - queue_order: other_id is the vehicle just before in the queue;
      time is vehicle_id's tf, value its tf less other_id's.
    - exit_order: the two share an exit lane; time and value as for
      queue_order.
    - entry_order: the two share an entry lane; time is vehicle_id's tm,
      value its tm less other_id's.
    - lateral_overlap: the two cross paths; time is when their merge
      windows start to overlap, value the length of the overlap.
    """

    kind: str
    vehicle_id: int
    other_id: int
    time: float
    value: float
    bound: float


@dataclass(frozen=True)
class AuditReport:
    findings: Tuple[AuditFinding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def audit_run(run_result: Any) -> AuditReport:
    """Safety findings of a finished run, a sim.SimRun, from its trajectory
    records alone.

    Neither the sampled state table nor the scheduler's schedules play
    any part.  Records may come in any order: lane order is entry order,
    which the vehicle ids follow.  Every check is exact on the closed
    forms:

    - cz_gap: each vehicle against the vehicle ahead of it on its entry
      arm, at the exact minimum of their gap over the window where both
      are inside the control zone, by the entry gate's rule (gap_to and
      too_close);
    - mz_overlap: merge-zone windows [mz.t0, mz.t1] swept in order of
      start, flagging crossing-path pairs that share more than
      _AUDIT_TIME_TOL;
    - exit_spacing: vehicles leaving into the same exit arm from
      different entry arms, compared at their merge-zone exit times; each
      vehicle is compared only with the earlier vehicles of its exit arm
      that leave less than the largest headway before it, or after it.

    The spacing is the run's own geometry's min_safe_distance.  To audit
    the same records against another spacing, audit a copy of the run
    whose config carries a geometry with that min_safe_distance.
    """
    delta = run_result.config.geometry.min_safe_distance
    ordered = sorted(run_result.vehicles, key=lambda rec: rec.spec.vehicle_id)
    findings: List[AuditFinding] = []

    ahead_on_arm: Dict[Arm, Any] = {}
    for rec in ordered:
        arm = rec.spec.movement.entry_arm
        leader = ahead_on_arm.get(arm)
        ahead_on_arm[arm] = rec
        if leader is None:
            continue
        found = gap_to(leader.cz)(rec.cz.coefficients, rec.cz.t0, rec.cz.t1)
        if found is not None and too_close(found[0], delta):
            gap, time = found
            findings.append(AuditFinding(
                "cz_gap", rec.spec.vehicle_id, leader.spec.vehicle_id, time, gap, delta
            ))

    # a window that ends within _AUDIT_TIME_TOL of a start overlaps no window
    # starting later by more than _AUDIT_TIME_TOL, so it leaves the sweep
    inside: List[Any] = []
    for rec in sorted(ordered, key=lambda rec: rec.mz.t0):
        start = rec.mz.t0
        inside = [other for other in inside if other.mz.t1 - start > _AUDIT_TIME_TOL]
        for other in inside:
            overlap = min(other.mz.t1, rec.mz.t1) - start
            if overlap > _AUDIT_TIME_TOL and (
                classify(other.spec.movement, rec.spec.movement) is ConflictClass.LATERAL
            ):
                low, high = sorted((other.spec.vehicle_id, rec.spec.vehicle_id))
                findings.append(AuditFinding("mz_overlap", high, low, start, overlap, 0.0))
        inside.append(rec)

    # Exit spacing: vehicles leaving into the same lane must be at least
    # the safety distance apart, at the leader's exit speed, when they
    # cross the merge-zone end.  Two movements are in the same-exit class
    # exactly when they share the exit arm but not the entry arm, so only
    # each exit arm's earlier vehicles need checking, and of those only the
    # ones leaving less than the largest headway before the later vehicle,
    # or after it.  Each exit arm keeps its earlier vehicles, each with the
    # headway its exit speed needs, in order of merge-zone exit, so that
    # window is one slice; the slice reaches _AUDIT_TIME_TOL further back
    # than any finding can.  A vehicle's exit speed is its exit-lane
    # piece's speed at its start, the order-1 coefficient of the piece.
    headways = [delta / rec.out.coefficients[-2] for rec in ordered]
    headway = max(headways, default=0.0)
    by_exit: Dict[Arm, Tuple[List[float], List[Tuple[Any, float]]]] = {}
    for later, later_headway in zip(ordered, headways):
        movement = later.spec.movement
        exit_times, exiting = by_exit.setdefault(movement.exit_arm, ([], []))
        actual = later.mz.t1
        first = bisect.bisect_left(exit_times, actual - headway - _AUDIT_TIME_TOL)
        for earlier, needed in exiting[first:]:
            if earlier.spec.movement.entry_arm is movement.entry_arm:
                continue
            if actual < earlier.mz.t1 + needed - _AUDIT_TIME_TOL:
                findings.append(AuditFinding(
                    "exit_spacing", later.spec.vehicle_id, earlier.spec.vehicle_id,
                    actual, actual - earlier.mz.t1, needed,
                ))
        at = bisect.bisect_right(exit_times, actual)
        exit_times.insert(at, actual)
        exiting.insert(at, (later, later_headway))

    findings.sort(key=lambda f: (f.time, f.kind, f.vehicle_id, f.other_id))
    return AuditReport(findings=tuple(findings))


def audit_queue(q: Sequence["Schedule"]) -> List[AuditFinding]:
    """Re-check every pairwise ordering condition over a finished queue.

    Exit order must be strict between vehicles sharing an exit lane, entry
    order strict between vehicles sharing an entry lane, merge-zone
    occupancy intervals of laterally crossing vehicles must not overlap
    (touching endpoints are fine), and exit times must be non-decreasing
    along the queue.  Returns every violation found, as the AuditFinding
    kinds queue_order, exit_order, entry_order and lateral_overlap; an
    empty list is the expected outcome for queues built by schedule().
    """
    findings: List[AuditFinding] = []
    for idx in range(1, len(q)):
        later, earlier = q[idx], q[idx - 1]
        if later.tf < earlier.tf:
            findings.append(AuditFinding("queue_order", later.vehicle_id, earlier.vehicle_id,
                                         later.tf, later.tf - earlier.tf, 0.0))
    for later_idx in range(len(q)):
        later = q[later_idx]
        for earlier_idx in range(later_idx):
            earlier = q[earlier_idx]
            cls = classify(earlier.movement, later.movement)
            if cls is ConflictClass.SAME_EXIT and not later.tf > earlier.tf:
                findings.append(AuditFinding("exit_order", later.vehicle_id, earlier.vehicle_id,
                                             later.tf, later.tf - earlier.tf, 0.0))
            elif cls is ConflictClass.SAME_ENTRY and not later.tm > earlier.tm:
                findings.append(AuditFinding("entry_order", later.vehicle_id, earlier.vehicle_id,
                                             later.tm, later.tm - earlier.tm, 0.0))
            elif cls is ConflictClass.LATERAL:
                # tm is recovered as tf - transit, so back-to-back windows can
                # overlap by one ulp; only flag overlap beyond float noise
                start = max(later.tm, earlier.tm)
                overlap = min(later.tf, earlier.tf) - start
                if overlap > 1e-9:
                    findings.append(AuditFinding("lateral_overlap", later.vehicle_id,
                                                 earlier.vehicle_id, start, overlap, 0.0))
    return findings
