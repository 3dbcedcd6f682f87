"""First-in-first-out crossing schedules for the merge zone.

Each vehicle is scheduled once, on control-zone entry, against the
vehicles already queued.  Its merge-zone exit time is the largest of a
small set of candidate times, one per conflict type: enough spacing
behind the latest vehicle sharing its exit lane, enough headway behind
the latest vehicle sharing its entry lane, strict serialization against
the latest laterally crossing vehicle, queue-order consistency with the
latest non-conflicting vehicle, and a physical lower bound given by full
acceleration to the speed cap.  The rule never delays a vehicle beyond
what its conflicts require, and whichever candidate wins is recorded so
runs can be analyzed case by case.  A schedule reads only those latest
vehicles, the conflict predecessors, which a PredecessorTable keeps for
every movement as the queue grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from crossflow.audit import AuditFinding
from crossflow.geometry import (
    ALL_MOVEMENTS,
    IntersectionGeometry,
    Movement,
    ConflictClass,
    classify,
)

# binding_case labels, in tie-break precedence order
CASE_SAME_EXIT = "same_exit"
CASE_SAME_ENTRY = "same_entry"
CASE_LATERAL = "lateral"
CASE_FIFO = "fifo"
CASE_FEASIBILITY = "feasibility"


@dataclass(frozen=True)
class VehicleSpec:
    """One arrival: queue id, control-zone entry time and speed, movement."""

    vehicle_id: int
    t0: float
    v0: float
    movement: Movement


@dataclass(frozen=True)
class Schedule:
    """Terminal conditions assigned to one vehicle.

    ``tm`` and ``tf`` bracket the merge-zone traversal; ``vm`` and ``vf``
    are the boundary speeds there: the movement's curve speed on entry and
    the through speed on exit, so tf - tm is the geometry's transit_time.
    ``binding_case`` names the candidate that achieved the maximum, and the
    four predecessor ids record which queue members drove each candidate.
    """

    vehicle_id: int
    movement: Movement
    t0: float
    v0: float
    tm: float
    tf: float
    vm: float
    vf: float
    binding_case: str
    same_exit_pred: Optional[int] = None
    same_entry_pred: Optional[int] = None
    lateral_pred: Optional[int] = None
    fifo_pred: Optional[int] = None


class ConflictPredecessors(NamedTuple):
    """Latest queue member of each conflict class, if any."""

    same_exit: Optional[Schedule]
    same_entry: Optional[Schedule]
    lateral: Optional[Schedule]
    fifo: Optional[Schedule]


_SLOT = {
    ConflictClass.SAME_EXIT: 0,
    ConflictClass.SAME_ENTRY: 1,
    ConflictClass.LATERAL: 2,
    ConflictClass.NO_CONFLICT: 3,
}

# _SLOTS[queued][own]: the ConflictPredecessors field a queued movement
# fills for an own movement, both by their ALL_MOVEMENTS position
_SLOTS = tuple(tuple(_SLOT[classify(queued, own)] for own in ALL_MOVEMENTS)
               for queued in ALL_MOVEMENTS)


class PredecessorTable:
    """The latest queue member of each conflict class, for each movement.

    The table is a queue folded in admission order: admitting a schedule
    stores it in each movement's row, in the one class it has with that
    movement.  So an admission is 12 stores and a read one row, whatever
    the queue length.
    """

    def __init__(self, q: Iterable[Schedule] = ()) -> None:
        self._rows: List[List[Optional[Schedule]]] = [[None] * 4 for _ in ALL_MOVEMENTS]
        for entry in q:
            self.admit(entry)

    def admit(self, entry: Schedule) -> None:
        for row, slot in zip(self._rows, _SLOTS[entry.movement._index]):
            row[slot] = entry

    def predecessors(self, movement: Movement) -> ConflictPredecessors:
        return ConflictPredecessors._make(self._rows[movement._index])


def earliest_mz_arrival(t0: float, v0: float, g: IntersectionGeometry) -> float:
    """Earliest merge-zone arrival: flat-out acceleration, then cruise.

    When the speed cap is reached inside the control zone the arrival time
    is t0 + L/v_max + (v_max - v0)^2 / (2 u_max v_max); otherwise the
    vehicle is still accelerating at the merge-zone boundary and arrives at
    t0 + (sqrt(2 L u_max + v0^2) - v0) / u_max, computed as
    t0 + 2 L / (sqrt(2 L u_max + v0^2) + v0), which does not cancel when
    2 L u_max is small against v0^2.
    """
    if not g.v_min <= v0 <= g.v_max:
        raise ValueError(f"entry speed {v0} outside [{g.v_min}, {g.v_max}]")
    length, u_max, v_max = g.cz_length, g.u_max, g.v_max
    if 2.0 * length * u_max + v0 * v0 >= v_max * v_max:
        return t0 + length / v_max + (v_max - v0) ** 2 / (2.0 * u_max * v_max)
    return t0 + 2.0 * length / (math.sqrt(2.0 * length * u_max + v0 * v0) + v0)


def conflict_candidates(
    preds: ConflictPredecessors, transit: float, g: IntersectionGeometry
) -> List[Tuple[str, float]]:
    """Exit-time candidates contributed by the conflict predecessors.

    One (binding_case, tf) pair per predecessor present, in tie-break
    order.  None of them depends on the vehicle's own entry time, so a
    caller trying several entry times can compute them once.
    """
    candidates = []
    if preds.same_exit is not None:
        e = preds.same_exit
        candidates.append((CASE_SAME_EXIT, e.tf + g.min_safe_distance / e.vf))
    if preds.same_entry is not None:
        s = preds.same_entry
        # Headway for the leader to put min_safe_distance of merge-zone path
        # behind it, at its scheduled merge speed, before this vehicle enters.
        clearance = g.min_safe_distance / s.vm
        candidates.append((CASE_SAME_ENTRY, max(s.tm + clearance + transit, s.tf)))
    if preds.lateral is not None:
        candidates.append((CASE_LATERAL, preds.lateral.tf + transit))
    if preds.fifo is not None:
        candidates.append((CASE_FIFO, preds.fifo.tf))
    return candidates


def schedule(spec: VehicleSpec, preds: ConflictPredecessors, g: IntersectionGeometry) -> Schedule:
    """Assign merge-zone entry/exit times to a newly arrived vehicle, given
    its conflict predecessors in the queue so far.

    The exit time is the maximum over the candidates contributed by the
    conflict predecessors plus the feasibility bound; the entry time
    follows at tf minus the movement's transit duration.  Ties between
    candidates resolve toward the conflict classes in the order same-exit,
    same-entry, lateral, fifo, feasibility.
    """
    transit = g.transit_time(spec.movement.turn)
    earliest = earliest_mz_arrival(spec.t0, spec.v0, g)

    candidates = conflict_candidates(preds, transit, g)
    candidates.append((CASE_FEASIBILITY, earliest + transit))

    binding_case, tf = max(candidates, key=lambda item: item[1])
    tm = tf - transit
    return Schedule(
        vehicle_id=spec.vehicle_id,
        movement=spec.movement,
        t0=spec.t0,
        v0=spec.v0,
        tm=tm,
        tf=tf,
        vm=g.mz_speed(spec.movement.turn),
        vf=g.mz_speed_straight,
        binding_case=binding_case,
        same_exit_pred=preds.same_exit.vehicle_id if preds.same_exit else None,
        same_entry_pred=preds.same_entry.vehicle_id if preds.same_entry else None,
        lateral_pred=preds.lateral.vehicle_id if preds.lateral else None,
        fifo_pred=preds.fifo.vehicle_id if preds.fifo else None,
    )


def audit_queue(q: Sequence[Schedule]) -> List[AuditFinding]:
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
