"""Event-driven simulation of randomized arrivals at one intersection.

Vehicles arrive on the four approach arms as a Poisson stream, get
scheduled the moment they enter the control zone (first-in-first-out by
actual entry), and follow their closed-form trajectories through both
zones.  An upstream entry gate holds a vehicle at the control-zone
boundary until its planned approach keeps the minimum safe distance to
the vehicle ahead on the same lane for the whole stretch where both are
inside the control zone; beyond that gate, safety is entirely the
scheduler's job.  The gate searches entry times by a galloping forward
scan, whose step doubles, and a regula falsi on the probe's exact gap,
guarded to take at most four probes more than bisection would.  The run
keeps, for each movement, the latest queued vehicle of each conflict
class, so a search reads its predecessors in one step; each probe then
costs one earliest-arrival bound, one set of approach coefficients and
the follower's half of the exact minimum gap, whose leader half is
prepared once per search, and builds no trajectory.  Each search yields
every probed time found not clear, a strict lower bound of its answer.
Each admission is one best-first search over the arm heads: the head
whose bound is least is advanced, and the admission is decided once no
head's bound can beat the best entry found, so a search that cannot win
is dropped at its first bound past that entry, and a head whose earliest
possible entry is already later is not searched at all.  A vehicle's
record, its schedule and its path, is built the moment it is admitted.
plan_crossing is the one rule that turns a merge window into a path: the
approach, the merge and the exit-lane pieces, each starting where the one
before it ends.  evaluate_crossing is the one evaluator of paths, of many
vehicles' at once: the polynomial pieces that share a slot and a degree
are evaluated together, each weighted merge piece on its own.

A run keeps only decisions: its config, its records and the gate's
work.  Everything derived from them is computed on first read and then
kept.  SimRun.audit is audit.audit_run's report on the run.
SimRun.binding_histogram counts the binding cases.  SimRun.samples, the
sampled state table, only displays the decisions, as one structured
array of the paths' values in (t, vehicle_id) order: one sort of the
rows' small keys places each row, and the table is then allocated once,
at most MAX_SAMPLE_ROWS rows, and filled column by column in that order.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Deque, Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from crossflow.audit import AuditReport, audit_run, gap_to, too_close
from crossflow.cz_planner import PolyTrajectory, _horner, approach_coefficients, solve_cz
from crossflow.geometry import (
    MAX_TIME,
    Arm,
    IntersectionGeometry,
    Movement,
    Turn,
    require_finite,
)
from crossflow.mz_planner import (
    DEFAULT_JERK_SCALE,
    MzBoundary,
    MzTrajectory,
    MzVariant,
    _evaluate,
    normalization_weights,
    refuse_ignored_weight,
    solve_mz,
    weighted_rate,
)
from crossflow.scheduler import (
    ConflictPredecessors,
    PredecessorTable,
    Schedule,
    VehicleSpec,
    conflict_candidates,
    earliest_mz_arrival,
)
from crossflow.scheduler import schedule as schedule_vehicle

_ARM_ORDER = (Arm.NORTH, Arm.EAST, Arm.SOUTH, Arm.WEST)
_TURN_ORDER = (Turn.LEFT, Turn.STRAIGHT, Turn.RIGHT)

ZONE_CZ = "cz"
ZONE_MZ = "mz"
ZONE_OUT = "out"
# the zone of each piece of a path, in order
_ZONES = (ZONE_CZ, ZONE_MZ, ZONE_OUT)

# One sampled state: which vehicle, where, and how fast, at time t.  The
# text fields are as wide as the longest arm, turn and zone label.
SAMPLE_DTYPE = np.dtype([
    ("t", "f8"), ("vehicle_id", "i8"), ("arm", "U1"), ("turn", "U8"), ("zone", "U3"),
    ("p", "f8"), ("v", "f8"), ("u", "f8"), ("j", "f8"),
])

# the largest vehicle_count and sample_step whose use fits 64-bit arrays:
# the arrival arrays hold vehicle_count float64 values, and the sample
# grid is sample_step times 64-bit integer indices
_MAX_VEHICLE_COUNT = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
_MAX_SAMPLE_STEP = np.iinfo(np.int64).max

# entry-gate search: first forward scan step and commit-time resolution
_GATE_SCAN_STEP = 0.25
_GATE_RESOLUTION = 1e-6

# the finest sample_step: the gate resolves no time finer, and the grid of
# a much finer step would not fit in memory
MIN_SAMPLE_STEP = _GATE_RESOLUTION

# the most rows a state table may hold: 2**25 rows of SAMPLE_DTYPE are 3.2 GB
MAX_SAMPLE_ROWS = 2**25

# a key above every admission key (entry, arrival time, arrival id)
_NO_KEY = (math.inf,)


@dataclass(frozen=True)
class SimConfig:
    """One reproducible scenario: geometry, traffic mix, objective, seed.

    Traffic is one Poisson stream at arrival_rate, and each arrival draws
    its arm from arm_probabilities and its turn from turn_probabilities.
    """

    geometry: IntersectionGeometry = IntersectionGeometry()
    arrival_rate: float = 1.0
    entry_speed_range: Tuple[float, float] = (10.0, 12.0)
    # (N, E, S, W) and (left, straight, right); uniform unless stated
    arm_probabilities: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    turn_probabilities: Tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    vehicle_count: int = 30
    objective: MzVariant = MzVariant.JERK_ONLY
    # the weighted objective's weight; refused under the other objectives
    weight: Optional[float] = None
    jerk_scale: float = DEFAULT_JERK_SCALE
    seed: int = 0
    sample_step: float = 0.1

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("seed", "vehicle_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.arrival_rate <= 0.0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        lo, hi = self.entry_speed_range
        g = self.geometry
        if not (g.v_min <= lo <= hi <= g.v_max):
            raise ValueError(
                f"entry_speed_range [{lo}, {hi}] must sit inside [{g.v_min}, {g.v_max}]"
            )
        for name, probs, count in (
            ("arm_probabilities", self.arm_probabilities, 4),
            ("turn_probabilities", self.turn_probabilities, 3),
        ):
            if len(probs) != count or any(p < 0.0 for p in probs):
                raise ValueError(f"{name} must be {count} nonnegative values, got {probs}")
            if abs(sum(probs) - 1.0) > 1e-6:
                raise ValueError(f"{name} must sum to 1, got {sum(probs)}")
        if self.vehicle_count < 1:
            raise ValueError(f"vehicle_count must be at least 1, got {self.vehicle_count}")
        if self.vehicle_count > _MAX_VEHICLE_COUNT:
            raise ValueError(f"vehicle_count must be at most {_MAX_VEHICLE_COUNT}, "
                             f"got {self.vehicle_count}")
        if self.weight is not None and (
            isinstance(self.weight, bool) or not isinstance(self.weight, numbers.Real)
        ):
            raise ValueError(f"weight must be a real number, got {self.weight!r}")
        if self.jerk_scale <= 0.0:
            raise ValueError(f"jerk_scale must be positive, got {self.jerk_scale}")
        refuse_ignored_weight(self.objective, self.weight)
        if self.objective is MzVariant.WEIGHTED:
            # the stiffest solve is over the longest merge window of a turn drawn
            width = max(g.transit_time(turn) for turn, p in
                        zip(_TURN_ORDER, self.turn_probabilities) if p > 0.0)
            weighted_rate(self.weight, *normalization_weights(g.u_max, self.jerk_scale), width)
        if self.sample_step <= 0.0:
            raise ValueError(f"sample_step must be positive, got {self.sample_step}")
        if self.sample_step < MIN_SAMPLE_STEP:
            raise ValueError(f"sample_step must be at least {MIN_SAMPLE_STEP}, "
                             f"the entry gate's resolution, got {self.sample_step}")
        if self.sample_step > _MAX_SAMPLE_STEP:
            raise ValueError(f"sample_step must be at most {_MAX_SAMPLE_STEP}, "
                             f"got {self.sample_step}")


def require_sample_rows(rows: int, step: float) -> None:
    """Refuse a state table of more than MAX_SAMPLE_ROWS rows, the rows
    that sample_step step gives, before it is allocated."""
    if rows > MAX_SAMPLE_ROWS:
        raise ValueError(f"sample_step {step} gives {rows} sample rows, more than the "
                         f"{MAX_SAMPLE_ROWS} a state table may hold")


def generate_arrivals(cfg: SimConfig) -> List[VehicleSpec]:
    """Draw the arrival sequence for a scenario, deterministically per seed.

    Inter-arrival gaps are exponential at arrival_rate, entry speeds
    uniform over the configured range, and arm and turn choices
    independent draws.  Independent Poisson streams of rates r_i per arm
    are this stream at rate sum(r_i) with arm probabilities r_i / sum(r_i).
    Ids count up in arrival order; exactly coincident timestamps are
    ordered by an auxiliary random draw.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.vehicle_count
    times = np.cumsum(rng.exponential(1.0 / cfg.arrival_rate, size=n))
    tiebreak = rng.random(n)
    arm_idx = rng.choice(4, size=n, p=np.asarray(cfg.arm_probabilities, dtype=float))
    turn_idx = rng.choice(3, size=n, p=np.asarray(cfg.turn_probabilities, dtype=float))
    speeds = rng.uniform(cfg.entry_speed_range[0], cfg.entry_speed_range[1], size=n)
    order = np.lexsort((tiebreak, times))
    return [
        VehicleSpec(
            vehicle_id=rank + 1,
            t0=float(times[idx]),
            v0=float(speeds[idx]),
            movement=Movement(_ARM_ORDER[arm_idx[idx]], _TURN_ORDER[turn_idx[idx]]),
        )
        for rank, idx in enumerate(order)
    ]


class HorizonError(ValueError):
    """A run whose last arrival cannot reach the merge zone before MAX_TIME,
    or whose queue puts a merge-zone exit within a queue step of
    2 * MAX_TIME."""


@dataclass(frozen=True)
class VehicleRecord:
    """Everything the run decided about one vehicle: its schedule, and its
    path as the three consecutive pieces of plan_crossing."""

    spec: VehicleSpec          # entry-time spec (t0 is the gated entry)
    arrival_time: float        # when the vehicle reached the control-zone boundary
    schedule: Schedule
    cz: PolyTrajectory
    mz: Union[PolyTrajectory, MzTrajectory]
    out: PolyTrajectory


@dataclass
class GateStats:
    """Entry-gate work of one run: gated-entry searches started, the
    searches dropped unfinished once they could no longer give the next
    entry, and gate probes.  Kept out of every output file."""

    searches: int = 0
    cut: int = 0
    probes: int = 0


@dataclass(frozen=True)
class SimRun:
    """One simulated scenario: its config, its records and the gate's work.

    The audit, the binding histogram and the state table are derived from
    the records: each is computed on its first read and is the same object
    on every later one.  A run copied with replace() derives its own.
    """

    config: SimConfig
    vehicles: Tuple[VehicleRecord, ...]
    gate: GateStats

    @cached_property
    def audit(self) -> AuditReport:
        """The findings of audit_run on this run."""
        # looked up as a module global at call time, so a wrapper installed
        # on this module's name sees every audit
        return audit_run(self)

    @cached_property
    def binding_histogram(self) -> Dict[str, int]:
        """How many vehicles each binding case decided."""
        histogram = dict.fromkeys(("same_exit", "same_entry", "lateral", "fifo", "feasibility"), 0)
        for rec in self.vehicles:
            histogram[rec.schedule.binding_case] += 1
        return histogram

    @cached_property
    def samples(self) -> np.ndarray:
        """The state table of _sample_states."""
        return _sample_states(self.vehicles, self.config)


def merge_boundary(
    turn: Turn, tm: float, tf: float, g: IntersectionGeometry, u_start: float = 0.0
) -> MzBoundary:
    """The one rule for a turn's merge-zone boundary over [tm, tf]: in at
    its curve speed with control u_start, out at the through speed with
    zero control, along its whole path.  tf is given, since a scheduled
    tf need not equal tm + transit_time(turn) bit for bit."""
    return MzBoundary(tm=tm, tf=tf, vm=g.mz_speed(turn), vf=g.mz_speed_straight,
                      p_start=g.cz_length, p_end=g.cz_length + g.path_length(turn),
                      u_start=u_start)


def plan_crossing(
    spec: VehicleSpec,
    tm: float,
    tf: float,
    g: IntersectionGeometry,
    objective: MzVariant,
    weight: Optional[float] = None,
    jerk_scale: float = DEFAULT_JERK_SCALE,
) -> Tuple[PolyTrajectory, Union[PolyTrajectory, MzTrajectory], PolyTrajectory]:
    """A vehicle's path for the merge window [tm, tf], as its approach,
    merge and exit-lane pieces: the minimum-effort approach from its
    control-zone entry to the merge entry at the movement's merge speed;
    the merge-zone optimum for objective over merge_boundary, entered
    with the approach's end control; then the exit lane at the through
    speed, until the vehicle has cleared min_safe_distance past the merge
    exit.  The exit-lane piece is a cubic with zero jerk and control, so
    every piece is evaluated the same way."""
    turn = spec.movement.turn
    cz = solve_cz(spec.t0, spec.v0, tm, g.mz_speed(turn), g.cz_length)
    boundary = merge_boundary(turn, tm, tf, g, float(cz.control(tm)))
    vf = boundary.vf
    out = PolyTrajectory(tf, tf + g.min_safe_distance / vf, (0.0, 0.0, vf, boundary.p_end))
    return cz, solve_mz(boundary, objective, weight, g.u_max, jerk_scale), out


def _gated_entry(
    spec: VehicleSpec,
    preds: ConflictPredecessors,
    leader: Optional[PolyTrajectory],
    g: IntersectionGeometry,
    stats: GateStats,
) -> Generator[float, None, float]:
    """Gated control-zone entry at or after spec.t0, behind the conflict
    predecessors preds: the first time found clear, where clear means the
    planned approach stays at least min_safe_distance behind the lane
    leader.

    A generator: it yields each probed time found not clear, and returns
    the answer.  Every yield is a strict lower bound of the answer, and
    the yields increase, so a caller that drives several searches at once
    can pause each at its latest yield and drop it once that bound can no
    longer win.  Each probe adds one to stats.probes.

    The search probes spec.t0, then gallops forward: the step starts at
    _GATE_SCAN_STEP and doubles until a probe is clear, capped just past
    the leader's control-zone exit.  The last step is then narrowed to
    _GATE_RESOLUTION by regula falsi on the probe's gap, with the
    Illinois rule: when the same end of the bracket moves twice in a row,
    the other end's gap is halved.  Each estimate is held at least half
    the resolution inside the bracket and close enough to its midpoint
    that after j probes the bracket is no wider than bisection's after
    j - 4, so no narrowing takes more than four probes beyond
    bisection's count.  When the clear end shares no control-zone window
    with the leader, its gap is infinite and the estimate is the
    midpoint.  The answer is the clear end of the last bracket; a clear
    pocket that opens and closes again between two scan points is
    skipped, so the answer need not be the earliest clear time.  The
    probes are a pure function of spec.t0, spec.v0, the predecessors'
    exit-time floor and the leader.

    Only the feasibility bound of the schedule depends on the entry time,
    so the predecessors' candidates are reduced to one floor, and the
    leader's half of the gap rule prepared, once per search.  Each probe
    then costs one earliest_mz_arrival, one set of approach coefficients
    and the follower's half of the exact minimum gap, and builds no
    trajectory; it plans the same tm that schedule() would.
    """
    if leader is None:
        return spec.t0
    t0, v0 = spec.t0, spec.v0
    transit = g.transit_time(spec.movement.turn)
    vm = g.mz_speed(spec.movement.turn)
    length, delta = g.cz_length, g.min_safe_distance
    floor = max((tf for _, tf in conflict_candidates(preds, transit, g)), default=-math.inf)
    min_gap = gap_to(leader)

    def probe(t: float) -> Tuple[bool, float]:
        # whether entry at t is clear, and the least gap to the leader less
        # the safe distance: infinite when they share no control-zone window
        stats.probes += 1
        tm = max(floor, earliest_mz_arrival(t, v0, g) + transit) - transit
        found = min_gap(approach_coefficients(t, v0, tm, vm, length), t, tm)
        if found is None:
            return True, math.inf
        gap = found[0]
        return not too_close(gap, delta), gap - delta

    clear, f_low = probe(t0)
    if clear:
        return t0
    low = t0
    yield low
    # the gap condition holds trivially once the leader has left the
    # control zone, so the scan ends at the cap at the latest
    cap = leader.t1 + _GATE_SCAN_STEP
    step = _GATE_SCAN_STEP
    while True:
        high = min(low + step, cap)
        clear, f_high = probe(high)
        if clear:
            break
        low, f_low = high, f_high
        yield low
        step *= 2.0
    width0 = high - low
    margin = 0.5 * _GATE_RESOLUTION
    narrowed = 0
    # whether the last narrowing probe moved the clear end; None before it
    moved_clear_end = None
    while high - low > _GATE_RESOLUTION:
        mid = 0.5 * (low + high)
        t = mid
        if f_low < f_high < math.inf:
            # within radius of the midpoint, the bracket after n narrowing
            # probes is at most 2^(4 - n) times its first width
            radius = width0 * 0.5 ** (narrowed - 3) - 0.5 * (high - low)
            t = low + (high - low) * (f_low / (f_low - f_high))
            t = min(max(t, mid - radius, low + margin), mid + radius, high - margin)
        clear, f = probe(t)
        narrowed += 1
        if clear == moved_clear_end:
            if clear:
                f_low *= 0.5
            else:
                f_high *= 0.5
        moved_clear_end = clear
        if clear:
            high, f_high = t, f
        else:
            low, f_low = t, f
            yield low
    return high


def run(cfg: SimConfig) -> SimRun:
    """Simulate one scenario end to end.

    Arrivals are replayed through the entry gate one commitment at a time:
    among the four arms' next-in-line vehicles, whichever can enter the
    control zone earliest is admitted, scheduled against its conflict
    predecessors, and assigned its closed-form trajectories.  Queue ids
    are (re)assigned at the gate, so they track the order vehicles
    actually enter rather than the order they showed up upstream.
    Scheduling never looks at the merging-zone objective, so runs
    differing only in objective produce identical schedules.  The run
    keeps the queue as a PredecessorTable, so reading a vehicle's conflict
    predecessors, for a gate search or its schedule, costs the same at
    any queue length.

    Each admission is one best-first search over the arm heads' gate
    searches.  A heap holds each head under the key (lower bound, arrival
    time, arrival id): its bound is at first the later of its arrival and
    the last committed entry, and then the latest time its search found
    not clear.  The head of least key is advanced, its search started on
    first pop, until the search finishes or its key reaches the next
    head's or the best finished (entry, arrival time, arrival id).  The
    admission is decided once the least key left is above the best
    finished one; the searches still open are dropped.  Since each search's probes do not depend on
    when it is paused, every finished search has its full answer, and the
    vehicle admitted is the one that searching every head in full would
    admit.
    """
    g = cfg.geometry
    arrivals = generate_arrivals(cfg)
    # the last arrival reaches the merge zone no sooner than this
    horizon = arrivals[-1].t0 + g.cz_length / g.v_max
    if not horizon < MAX_TIME:
        raise HorizonError(
            f"sim.arrival_rate, sim.vehicle_count and geometry.cz_length put the last "
            f"merge-zone arrival at {horizon:.6g} s or later, not below {MAX_TIME:.6g} s")
    # each merge-zone exit leaves a queue step before 2 * MAX_TIME, so that
    # every exit-time candidate and gate probe is resolved
    last_exit = 2.0 * MAX_TIME - g.queue_step
    # each arm's arrivals not yet admitted, by the arm's place in _ARM_ORDER
    lines: List[Deque[VehicleSpec]] = [deque() for _ in _ARM_ORDER]
    for spec in arrivals:
        lines[_ARM_ORDER.index(spec.movement.entry_arm)].append(spec)

    table = PredecessorTable()
    records: List[VehicleRecord] = []
    # each arm's last admitted approach trajectory
    lane_leader: List[Optional[PolyTrajectory]] = [None] * len(_ARM_ORDER)
    gate = GateStats()
    clock = 0.0

    while any(lines):
        # gate from no earlier than the last committed entry: a commit
        # elsewhere can lengthen a head's queue slot and relax its gate
        # below times the coordinator has already passed, and admitting it
        # retroactively would break entry-order ids
        heap = [((max(line[0].t0, clock), line[0].t0, line[0].vehicle_id), lane)
                for lane, line in enumerate(lines) if line]
        heapq.heapify(heap)
        # each arm's gate search, from its first pop until it finishes
        searches: List[Optional[Generator[float, None, float]]] = [None] * len(_ARM_ORDER)
        # the least finished (entry, arrival time, arrival id), and its arm
        best, winner = _NO_KEY, 0
        while heap and heap[0][0] < best:
            key, lane = heapq.heappop(heap)
            _, t0, vehicle_id = key
            search = searches[lane]
            if search is None:
                head = lines[lane][0]
                candidate = head if t0 >= clock else replace(head, t0=clock)
                gate.searches += 1
                search = searches[lane] = _gated_entry(
                    candidate, table.predecessors(head.movement), lane_leader[lane], g, gate
                )
            limit = min(heap[0][0], best) if heap else best
            try:
                while key < limit:
                    key = (next(search), t0, vehicle_id)
            except StopIteration as done:
                searches[lane] = None
                key = (done.value, t0, vehicle_id)
                if key < best:
                    best, winner = key, lane
                continue
            heapq.heappush(heap, (key, lane))
        # the searches still open could no longer give the next entry
        gate.cut += len(searches) - searches.count(None)
        entry = clock = best[0]
        head = lines[winner].popleft()
        spec = replace(head, vehicle_id=len(records) + 1, t0=entry)
        sched = schedule_vehicle(spec, table.predecessors(spec.movement), g)
        if not sched.tf < last_exit:
            raise HorizonError(
                f"sim.vehicle_count and the queue put vehicle {spec.vehicle_id}'s merge-zone "
                f"exit at {sched.tf:.6g} s, not below {last_exit:.6g} s")
        cz, mz, out = plan_crossing(
            spec, sched.tm, sched.tf, g, cfg.objective, cfg.weight, cfg.jerk_scale
        )
        records.append(VehicleRecord(
            spec=spec, arrival_time=head.t0, schedule=sched, cz=cz, mz=mz, out=out
        ))
        table.admit(sched)
        lane_leader[winner] = cz

    return SimRun(config=cfg, vehicles=tuple(records), gate=gate)


def evaluate_crossing(
    paths: Sequence[Sequence[Union[PolyTrajectory, MzTrajectory]]],
    owner: np.ndarray,
    t: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Fill the zone, p, v, u and j fields of rows, a SAMPLE_DTYPE array,
    at the times t: row i from the path paths[owner[i]], a vehicle's
    consecutive pieces (the approach, the merge and, if given, the exit
    lane).  Row i's piece is the last of its path whose t0 <= t[i], or the
    first, so a time on a boundary belongs to the later piece.

    The polynomial pieces of one slot with one coefficient count are
    evaluated together, one _horner call per field on per-row coefficient
    columns, and each weighted piece by one _evaluate call for all four
    fields, straight into its rows.  Every value keeps the bits of its own
    piece's derivative."""
    owner = np.asarray(owner, dtype=np.intp)
    slots = max(map(len, paths), default=0)
    starts = np.full((len(paths), slots), math.inf)
    # the groups of pieces evaluated together, keyed by (slot, coefficient
    # count) for the polynomials and (slot, -1 - path) for a weighted piece:
    # each group's code and its (path, piece) pairs, and the code of each
    # (path, slot), of the smallest integer type, which sorts in linear time
    groups: Dict[Tuple[int, int], Tuple[int, List[Tuple[int, Any]]]] = {}
    group = np.zeros((len(paths), slots), np.min_scalar_type(len(paths) * slots))
    for i, path in enumerate(paths):
        for j, piece in enumerate(path):
            starts[i, j] = piece.t0
            kind = len(piece.coefficients) if isinstance(piece, PolyTrajectory) else -1 - i
            group[i, j], members = groups.setdefault((j, kind), (len(groups), []))
            members.append((i, piece))
    slot = np.zeros(len(t), np.intp)
    for j in range(1, slots):
        slot += t >= starts[owner, j]
    rows["zone"] = np.array(_ZONES)[slot]
    row_group = group[owner, slot]
    order = np.argsort(row_group, kind="stable")
    ends = np.bincount(row_group, minlength=len(groups)).cumsum().tolist()
    fields = [rows[name] for name in ("p", "v", "u", "j")]
    for ((j, kind), (_, members)), start, end in zip(groups.items(), [0, *ends], ends):
        index = order[start:end]
        if kind < 0:
            ((_, piece),) = members
            values = _evaluate(piece._regime, piece.rate_pos, piece.duration, piece._poly,
                               piece._beta, t[index] - piece.t0, (0, 1, 2, 3))
        else:
            # each member's coefficients and start in its path's column
            coefficients = np.zeros((kind, len(paths)))
            t0 = np.zeros(len(paths))
            for i, piece in members:
                coefficients[:, i] = piece.coefficients
                t0[i] = piece.t0
            owners = owner[index]
            columns = coefficients[:, owners]
            tau = t[index] - t0[owners]
            values = [_horner(columns[:max(kind - d, 0)], tau) for d in range(4)]
        for field, value in zip(fields, values):
            field[index] = value


def _sample_states(records: Sequence[VehicleRecord], cfg: SimConfig) -> np.ndarray:
    """State table on the shared time grid k * sample_step, as one
    SAMPLE_DTYPE array.

    Rows exist from a vehicle's control-zone entry until the end of its
    exit-lane piece, when it has cleared the safety distance past the
    merge-zone exit; every row is evaluate_crossing's value of the
    vehicle's path.  The table is the run's published output; the auditor
    does not read it.  Rows come out ordered by (t, vehicle_id), with ties
    in record order.  A table of more than MAX_SAMPLE_ROWS rows is refused
    before anything is allocated.

    One stable lexsort of the rows' (t, vehicle_id) keys, in record order,
    gives each row of the table its time and record; the table is then
    allocated once and each of its columns filled in place.
    """
    step = cfg.sample_step
    # a grid point up to 1e-9 grid units before the entry time counts as the
    # entry, but never one more than 1e-9 of the entry time itself before it:
    # a step far above the entry time would otherwise put a row at t = 0
    spans = [
        (
            math.ceil(rec.spec.t0 / step - 1e-9 * min(1.0, rec.spec.t0 / step)),
            math.floor(rec.out.t1 / step + 1e-9),
        )
        for rec in records
    ]
    counts = [last + 1 - first for first, last in spans]
    require_sample_rows(sum(counts), step)
    counts = np.array(counts, np.intp)
    # each row's grid index and record, in record order
    offsets = np.array([first for first, _ in spans], np.int64) - (counts.cumsum() - counts)
    owner = np.arange(len(records)).repeat(counts)
    t = (np.arange(len(owner)) + offsets.repeat(counts)) * step
    ids = np.array([rec.spec.vehicle_id for rec in records], np.int64)
    order = np.lexsort((ids[owner], t))
    owner, t = owner[order], t[order]

    table = np.empty(len(t), SAMPLE_DTYPE)
    table["t"] = t
    table["vehicle_id"] = ids[owner]
    for name, labels in (("arm", [rec.spec.movement.entry_arm.value for rec in records]),
                         ("turn", [rec.spec.movement.turn.value for rec in records])):
        table[name] = np.array(labels, SAMPLE_DTYPE[name])[owner]
    evaluate_crossing([(rec.cz, rec.mz, rec.out) for rec in records], owner, t, table)
    return table
