"""Intersection layout, movements, and pairwise conflict classification.

The junction is the signal-free four-arm crossing of Zhang, Malikopoulos
& Cassandras (ACC 2016), with right-hand traffic, one approach lane per
arm and a square merge zone at the center.  Each vehicle approaches
through a control zone of length ``cz_length`` and then follows a fixed
curve through the merge square: a straight chord, or a quarter-circle arc
for turns.  Two movements conflict in one of four ways: they share the
entry lane, share the exit lane, cross each other inside the merge zone,
or not at all.  Two turn rules, stated at ``classify``, decide which
pairs cross; ``oracles.classify_by_sampling`` in the test suite checks
them against densely sampled paths.  Everything in this module is a pure
value type, so a single geometry instance can be shared freely by the
planners and the simulator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Tuple


class Arm(Enum):
    """Compass label of an approach/exit leg."""

    NORTH = "N"
    EAST = "E"
    SOUTH = "S"
    WEST = "W"


class Turn(Enum):
    LEFT = "left"
    STRAIGHT = "straight"
    RIGHT = "right"


class ConflictClass(Enum):
    """How the merge-zone paths of two movements can interact."""

    SAME_ENTRY = "same_entry"   # rear-end risk at the start of the merge zone
    SAME_EXIT = "same_exit"     # rear-end risk at the end of the merge zone
    LATERAL = "lateral"         # crossing paths inside the merge zone
    NO_CONFLICT = "no_conflict"


# _ARMS runs clockwise and _TURNS runs left, straight, right: under
# right-hand traffic a movement exits 1, 2 or 3 arms clockwise of its entry
_ARMS = list(Arm)
_TURNS = list(Turn)


@dataclass(frozen=True)
class Movement:
    """One path through the intersection: an entry arm plus a turn choice."""

    entry_arm: Arm
    turn: Turn

    def __post_init__(self) -> None:
        # the movement's row and column in the classification table, and its
        # exit arm; list lookups compare by identity, so no enum or
        # dataclass is hashed
        arm = _ARMS.index(self.entry_arm)
        turn = _TURNS.index(self.turn)
        object.__setattr__(self, "_index", arm * len(_TURNS) + turn)
        object.__setattr__(self, "_exit_arm", _ARMS[(arm + turn + 1) % len(_ARMS)])

    @property
    def exit_arm(self) -> Arm:
        return self._exit_arm

    def __str__(self) -> str:
        return f"{self.entry_arm.value}:{self.turn.value}"


ALL_MOVEMENTS: Tuple[Movement, ...] = tuple(
    Movement(arm, turn) for arm in Arm for turn in Turn
)


def require_finite(config) -> None:
    """Raise ValueError if a real number in one of the dataclass config's
    fields, or inside a tuple field, is NaN or infinite.  Bound checks
    written as comparisons let NaN through, so this runs first."""
    for field in fields(config):
        value = getattr(config, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            # a float is known without the slower abstract-class checks; an
            # integer is finite however large, even past the float range
            if type(item) is float or (
                isinstance(item, numbers.Real) and not isinstance(item, numbers.Integral)
            ):
                if not math.isfinite(item):
                    raise ValueError(f"{field.name} must be finite, got {value}")


# A run's last arrival must reach the merge zone before MAX_TIME, in seconds,
# and each merge-zone exit must leave a queue step before 2 * MAX_TIME: up to
# there a float64 still resolves 1e-6 s, the entry gate's resolution, and
# MIN_TRANSIT_TIME, the shortest merge window; far beyond, a window vanishes.
MAX_TIME = 2.0**32
MIN_TRANSIT_TIME = 1e-6

# the curve-design relation's units, in SI: meters per foot, and meters per
# second per mile per hour
_FOOT = 0.3048
_MPH = 0.44704


@dataclass(frozen=True)
class IntersectionGeometry:
    """Dimensions, speed limits, and merge-zone kinematics of one junction.

    Defaults reproduce the baseline calibration used throughout the test
    suite: a 400 m approach, a 30 m merge square, 10 m minimum spacing,
    and merge speeds of 8 / 10 / 6 m/s for left / straight / right
    movements.  The merge square's side fixes every path (path_length).  A
    movement enters the merge zone at its own merge speed and leaves it
    at the exit lane's through speed, mz_speed_straight; its merge
    window, transit_time, follows from its path and those two speeds
    (3.93 / 3 / 1.47 s by default).  Turning comfort is thus tied
    to the curve speed, as in Zhang & Cassandras (Automatica 2019), and
    with_curve_speeds derives the two turn speeds from the curves
    themselves.
    """

    cz_length: float = 400.0
    mz_side: float = 30.0
    min_safe_distance: float = 10.0
    v_min: float = 0.0
    v_max: float = 13.0
    u_min: float = -3.0
    u_max: float = 3.0
    mz_speed_left: float = 8.0
    mz_speed_straight: float = 10.0
    mz_speed_right: float = 6.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.mz_side <= 0.0:
            raise ValueError(f"mz_side must be positive, got {self.mz_side}")
        if self.cz_length <= self.mz_side:
            raise ValueError(
                f"cz_length must exceed mz_side, got {self.cz_length} <= {self.mz_side}"
            )
        if self.min_safe_distance <= 0.0:
            raise ValueError(
                f"min_safe_distance must be positive, got {self.min_safe_distance}"
            )
        if self.min_safe_distance >= self.cz_length:
            raise ValueError("min_safe_distance must be smaller than cz_length")
        if not 0.0 <= self.v_min < self.v_max:
            raise ValueError(
                f"speed bounds need 0 <= v_min < v_max, got [{self.v_min}, {self.v_max}]"
            )
        if not self.u_min < 0.0 < self.u_max:
            raise ValueError(
                f"accel bounds must straddle zero, got [{self.u_min}, {self.u_max}]"
            )
        for name in ("mz_speed_left", "mz_speed_straight", "mz_speed_right"):
            speed = getattr(self, name)
            if not self.v_min < speed <= self.v_max:
                raise ValueError(
                    f"{name} must lie in ({self.v_min}, {self.v_max}], got {speed}"
                )
        for turn in Turn:
            window = self.transit_time(turn)
            if not window >= MIN_TRANSIT_TIME:
                raise ValueError(f"mz_side {self.mz_side} and the merge speeds give the "
                                 f"{turn.value} turn a merge window of {window:.6g} s, "
                                 f"shorter than {MIN_TRANSIT_TIME} s")
            # a path below half a float step of cz_length ends where it starts
            path = self.path_length(turn)
            if not self.cz_length + path > self.cz_length:
                raise ValueError(f"mz_side {self.mz_side:.6g} gives the {turn.value} turn a "
                                 f"{path:.6g} m path, which vanishes against cz_length "
                                 f"{self.cz_length:.6g}")
        if not self.queue_step < MAX_TIME:
            slowest = min(("mz_speed_left", "mz_speed_straight", "mz_speed_right"),
                          key=lambda name: getattr(self, name))
            raise ValueError(f"{slowest} {getattr(self, slowest)} lets one queue step take "
                             f"{self.queue_step:.6g} s, not below {MAX_TIME:.6g} s")

    @property
    def queue_step(self) -> float:
        """The most a conflict predecessor's merge-zone exit can delay a
        vehicle's, in seconds: the safe distance at the slowest merge speed,
        then the longest merge window."""
        slowest = min(self.mz_speed_left, self.mz_speed_straight, self.mz_speed_right)
        return self.min_safe_distance / slowest + max(map(self.transit_time, Turn))

    def path_length(self, turn: Turn) -> float:
        """Distance along the merge-zone curve for one turn choice, in
        meters: the square's side S straight across, and the quarter-circle
        arcs inscribed in the square for the turns, 3 pi S / 8 left (radius
        3S/4) and pi S / 8 right (radius S/4)."""
        if turn is Turn.STRAIGHT:
            return self.mz_side
        if turn is Turn.LEFT:
            return 3.0 * math.pi * self.mz_side / 8.0
        return math.pi * self.mz_side / 8.0

    def mz_speed(self, turn: Turn) -> float:
        """Merge-zone entry speed of one turn choice: its curve speed."""
        if turn is Turn.LEFT:
            return self.mz_speed_left
        if turn is Turn.RIGHT:
            return self.mz_speed_right
        return self.mz_speed_straight

    def transit_time(self, turn: Turn) -> float:
        """Merge-zone window for one turn choice, in seconds: the time to
        cover path_length(turn) at constant acceleration from the entry
        speed mz_speed(turn) to the exit speed mz_speed_straight.  A
        straight movement takes mz_side / mz_speed_straight."""
        return 2.0 * self.path_length(turn) / (self.mz_speed(turn) + self.mz_speed_straight)

    def with_curve_speeds(
        self, side_friction: float, superelevation: float = 0.0
    ) -> IntersectionGeometry:
        """This geometry with its left and right merge speeds set by the
        highway curve-design relation v = sqrt(15 R (0.01 E + F)), with v in
        mph, the radius R in feet, the superelevation rate E in percent
        (zero on urban streets) and the side friction factor F.  Each turn
        runs on its own arc, a quarter circle of radius
        2 * path_length / pi, that is 3S/4 left and S/4 right (22.5 m and
        7.5 m by default), so its lateral acceleration v^2 / R is
        15 (0.01 E + F) mph^2/ft."""
        if not (math.isfinite(side_friction) and side_friction > 0.0):
            raise ValueError(f"side_friction must be positive and finite, got {side_friction}")
        if not (math.isfinite(superelevation) and superelevation >= 0.0):
            raise ValueError(
                f"superelevation must be nonnegative and finite, got {superelevation}"
            )

        def speed(turn: Turn) -> float:
            radius = 2.0 * self.path_length(turn) / math.pi / _FOOT
            return _MPH * math.sqrt(15.0 * radius * (0.01 * superelevation + side_friction))

        return replace(self, mz_speed_left=speed(Turn.LEFT), mz_speed_right=speed(Turn.RIGHT))


def _build_classification() -> Tuple[Tuple[ConflictClass, ...], ...]:
    table = [[ConflictClass.NO_CONFLICT] * len(ALL_MOVEMENTS) for _ in ALL_MOVEMENTS]
    for a in ALL_MOVEMENTS:
        for b in ALL_MOVEMENTS:
            if a.entry_arm is b.entry_arm:
                cls = ConflictClass.SAME_ENTRY
            elif a.exit_arm is b.exit_arm:
                cls = ConflictClass.SAME_EXIT
            elif Turn.RIGHT in (a.turn, b.turn) or (
                a.turn is b.turn is Turn.STRAIGHT and a.exit_arm is b.entry_arm
            ):
                cls = ConflictClass.NO_CONFLICT
            else:
                cls = ConflictClass.LATERAL
            table[a._index][b._index] = cls
    return tuple(map(tuple, table))


# indexed by the two movements' _index
_CLASSIFICATION = _build_classification()


def classify(a: Movement, b: Movement) -> ConflictClass:
    """Conflict type of two movements.

    Entry-lane equality is checked first (rear-end risk where the merge
    zone begins), then exit-lane equality (rear-end risk where it ends).
    Two movements from different entries to different exits cross inside
    the merge zone unless either turns right or both go straight from
    opposite arms.  A right turn keeps to the corner between its own entry
    and exit lanes, which no path reaches without sharing one of them, and
    opposite straights are parallel chords.  Symmetric and total;
    ``oracles.classify_by_sampling`` checks the two rules independently,
    from densely sampled paths.
    """
    return _CLASSIFICATION[a._index][b._index]
