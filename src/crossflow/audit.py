"""The safety audit of a finished run, and the one record of a finding.

audit_run re-derives the safety story from a run's trajectory records
alone, exactly on their closed forms, and reports every violation it
finds: a single pass that checks each vehicle against its lane leader,
sweeps the merge-zone windows in order of start, and pairs vehicles only
within an exit arm and a headway of each other's exit.  It reads no
schedule, no sampled state and no scheduler bookkeeping: a vehicle's
exit speed is the speed its exit-lane piece starts with.  So this module
imports neither the scheduler nor the simulator; the lane-leader gap is
the closed-form rule the entry gate also uses (gap_to and too_close).

scheduler.audit_queue reports its ordering findings in the same
AuditFinding record.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from crossflow.cz_planner import gap_to, too_close
from crossflow.geometry import Arm, ConflictClass, classify

# merge-zone windows may share, and exit headways fall short by, this much
_AUDIT_TIME_TOL = 1e-6


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

    From scheduler.audit_queue, where vehicle_id is the later vehicle in
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
