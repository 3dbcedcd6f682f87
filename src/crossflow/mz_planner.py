"""Merging-zone trajectory solvers: fuel-only, jerk-only, and weighted.

All three objectives admit closed-form optima between fixed boundary
conditions.  Minimizing squared acceleration alone gives the cubic
Hermite interpolant of position and speed at both ends; minimizing
squared jerk gives the quintic one, which pins acceleration too.  Both
are PolyTrajectory instances with the same closed-form Hermite
coefficients as the approach plan.  The convex combination of the two
objectives gives a cubic particular part plus a pair of exponential
modes exp(+A1*tau), exp(-A1*tau) whose rate

    A1 = sqrt(w*q1 / ((1-w)*q2))

grows without bound as w -> 1.  Solving directly in the exponential basis
would overflow and lose the solution to rounding long before that, so the
solver switches between two equivalent parametrizations of the same
six-dimensional solution space:

* series basis (A1*duration <= 2): tau^4 R(A1*tau, 4) and
  tau^5 R(A1*tau, 5), where R(x, k) is cosh x (k even) or sinh x (k odd)
  less its Taylor terms below x^k, over x^k.  The d-th derivative of
  tau^k R(A1*tau, k) is tau^(k-d) R(A1*tau, k-d), so one remainder
  function serves every order.  The pair limits to tau^4/24 and
  tau^5/120, the quintic completion, so the weighted solve degrades
  gracefully into the jerk solve as w -> 0.  For large A1*duration both
  grow like exp(A1*tau) and their columns turn parallel.
* boundary-layer basis (A1*duration > 2): exp(-A1*(duration-tau)) and
  exp(-A1*tau), each bounded by 1, carrying the two endpoint layers that
  the stiff solution develops as w -> 1.  For small A1*duration both
  flatten towards the cubic's span and the system turns singular.

Both parametrizations represent {cubic} + span{exp(+-A1 tau)} exactly;
only the conditioning of the 6x6 boundary system differs.  A single
basis centred on the window's midpoint would serve every rate, and was
more accurate (1.2e-13 against a 700-digit reference, where the series
basis reaches 1.9e-12), but it evaluated 2.5-4x slower at w = 0.5 and
made the perfbench ``light`` round about 12% slower, so both regimes
stay.  MzTrajectory carries this weighted form only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from crossflow.cz_planner import PolyTrajectory, hermite
from crossflow.geometry import IntersectionGeometry, require_finite
from crossflow.scheduler import Schedule

# objective normalization: q1 = 1/u_max^2 keeps q1*u^2 in [0,1] at the
# acceleration bound; q2 mirrors it for jerk against a configured scale
DEFAULT_JERK_SCALE = 10.0

# A1 * duration above which the boundary-layer basis takes over
_REGIME_SPLIT = 2.0

# largest A1 * duration the weighted solve accepts; exp(710) overflows
_EXPONENT_CAP = 700.0

# |x| at or below which _remainder sums its series, and the terms it sums
_SERIES_SPLIT = 0.5
_SERIES_TERMS = 8

# k!/(k-d)!, the factor the d-th derivative puts on tau^k; 0 for k < d
_FALLING = tuple(tuple(math.perm(k, d) for k in range(4)) for d in range(4))
_UNIT = tuple(tuple(float(i == k) for i in range(4)) for k in range(4))

# Gauss-Legendre panel layout for the weighted cost integrals
_GL_NODES = 20
_GL_WIDTH = 10.0
_GL_POINTS, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_NODES)


def normalization_weights(
    u_max: float = 3.0, jerk_scale: float = DEFAULT_JERK_SCALE
) -> Tuple[float, float]:
    """Scale factors (q1, q2) that normalize acceleration and jerk terms."""
    if u_max <= 0 or jerk_scale <= 0:
        raise ValueError("u_max and jerk_scale must be positive")
    return 1.0 / (u_max * u_max), 1.0 / (jerk_scale * jerk_scale)


class MzVariant(enum.Enum):
    """A merging-zone objective."""

    FUEL_ONLY = "fuel_only"
    JERK_ONLY = "jerk_only"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class MzBoundary:
    """Boundary data for one merging-zone traversal.

    Positions are arc length along the vehicle's path measured from the
    control-zone entrance, so p_start is the control-zone length and
    p_end adds the in-zone path length.  Schedules produced by the
    scheduler always have vf = vm and tf - tm equal to the movement's
    transit time; the solvers accept any consistent window.
    """

    tm: float
    tf: float
    vm: float
    vf: float
    p_start: float
    p_end: float
    u_start: float = 0.0
    u_end: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.tf > self.tm:
            raise ValueError(f"exit time {self.tf} does not exceed entry time {self.tm}")
        if not self.p_end > self.p_start:
            raise ValueError(f"path end {self.p_end} does not exceed start {self.p_start}")

    @property
    def duration(self) -> float:
        return self.tf - self.tm


def boundary_from_schedule(
    sched: Schedule,
    g: IntersectionGeometry,
    u_start: float = 0.0,
    u_end: float = 0.0,
) -> MzBoundary:
    """Build the merging-zone boundary conditions for a scheduled vehicle."""
    return MzBoundary(
        tm=sched.tm,
        tf=sched.tf,
        vm=sched.vm,
        vf=sched.vf,
        p_start=g.cz_length,
        p_end=g.cz_length + g.path_length(sched.movement.turn),
        u_start=u_start,
        u_end=u_end,
    )


def _remainder(x, k: int):
    """cosh x (even k) or sinh x (odd k), less its Taylor terms below x^k,
    over x^k; where |x| <= _SERIES_SPLIT that difference cancels
    catastrophically, so the series sum of x^(2j) / (k+2j)! is taken."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    odd = k % 2
    numerator = np.sinh(x) if odd else np.cosh(x)
    even = 1.0  # x^(j - odd) at the Taylor term x^j
    for j in range(odd, k, 2):
        numerator = numerator - (even * x if odd else even) / math.factorial(j)
        even = even * x2
    power = even * x if odd else even
    series = 0.0
    for j in reversed(range(_SERIES_TERMS)):
        series = series * x2 + 1.0 / math.factorial(k + 2 * j)
    small = np.abs(x) <= _SERIES_SPLIT
    return np.where(small, series, numerator / np.where(small, 1.0, power))


def _basis_pair(regime: str, rate: float, width: float, tau, deriv: int):
    """The deriv-th derivatives of the two non-polynomial basis functions."""
    tau = np.asarray(tau, dtype=float)
    if regime == "layer":
        head = np.exp(-rate * (width - tau))
        tail = np.exp(-rate * tau)
        scale = rate**deriv
        return scale * head, scale * tail * ((-1.0) ** deriv)
    x = rate * tau
    return (tau ** (4 - deriv) * _remainder(x, 4 - deriv),
            tau ** (5 - deriv) * _remainder(x, 5 - deriv))


def _cubic(poly, tau, order: int):
    """The order-th derivative of p0 + p1*tau + p2*tau^2 + p3*tau^3 at tau,
    by Horner on the k!/(k-order)! multiples; a scalar at order 3."""
    factors = _FALLING[order]
    value = factors[3] * poly[3]
    for k in range(2, order - 1, -1):
        value = value * tau + factors[k] * poly[k]
    return value


@dataclass(frozen=True)
class MzTrajectory:
    """One weighted merging-zone trajectory over the window [t0, t1].

    ``coefficients`` holds the canonical constants (a..f) of the
    exponential closed form, with rate_pos the exponential rate A1 (the
    other mode decays at -A1).  Near the degenerate weights the canonical
    amplitudes grow without bound; they are reported for inspection only,
    while evaluation always goes through the conditioned internal basis.
    """

    t0: float
    t1: float
    coefficients: Tuple[float, ...]
    rate_pos: float
    w: float
    q1: float
    q2: float
    _regime: str
    _poly: Tuple[float, float, float, float]
    _beta: Tuple[float, float]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def derivative(self, t, order: int):
        """The order-th derivative of position at t, a scalar or an array."""
        tau = np.asarray(t, dtype=float) - self.t0
        b1, b2 = self._beta
        head, tail = _basis_pair(self._regime, self.rate_pos, self.duration, tau, order)
        return _cubic(self._poly, tau, order) + b1 * head + b2 * tail

    def position(self, t):
        return self.derivative(t, 0)

    def speed(self, t):
        return self.derivative(t, 1)

    def control(self, t):
        return self.derivative(t, 2)

    def jerk(self, t):
        return self.derivative(t, 3)

    def half_square_integral(self, order: int) -> float:
        """Half the integral of the order-th derivative of position squared
        over the window, by panelled Gauss-Legendre quadrature sized to
        resolve the boundary layers, all panels' nodes in one evaluation."""
        width = self.duration
        panels = int(min(600, max(3, math.ceil(self.rate_pos * width / _GL_WIDTH))))
        edges = np.linspace(0.0, width, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        values = self.derivative(self.t0 + (mid[:, None] + half[:, None] * _GL_POINTS), order)
        return 0.5 * float(half @ (values * values @ _GL_WEIGHTS))


def solve_mz_fuel(b: MzBoundary) -> PolyTrajectory:
    """Acceleration-effort minimum: cubic position, no endpoint-u conditions.

    This objective constrains only position and speed at the window ends,
    so its four-condition boundary set is a strict subset of the other two
    solvers' six; cost comparisons across variants are only meaningful on
    that shared subset.
    """
    return hermite(b.tm, b.tf, (b.p_start, b.vm), (b.p_end, b.vf))


def solve_mz_jerk(b: MzBoundary) -> PolyTrajectory:
    """Jerk minimum: quintic position pinned by p, v, u at both ends."""
    return hermite(b.tm, b.tf, (b.p_start, b.vm, b.u_start), (b.p_end, b.vf, b.u_end))


def _weighted_system(regime: str, rate: float, width: float) -> np.ndarray:
    """Boundary matrix over (p0, p1, p2, p3, beta1, beta2): the cubic
    evaluator applied to the unit coefficient vectors, beside the basis
    pair, for position, speed and control at both window ends."""
    return np.array([
        [*(_cubic(unit, tau, deriv) for unit in _UNIT),
         *map(float, _basis_pair(regime, rate, width, tau, deriv))]
        for tau in (0.0, width) for deriv in (0, 1, 2)
    ])


def _canonical_weighted_coefficients(
    regime: str, rate: float, poly, beta, w: float, q1: float, q2: float, width: float
):
    """Map the internal basis back to the canonical exponential form.

    Returns (a, b, c, d, e, f) with u = (a*tau + b)/(w*q1) + e*A1^2*exp(A1*tau)
    + f*A2^2*exp(A2*tau).  In the series basis the remainder functions carry
    polynomial heads, so the cubic part must be re-separated first.
    """
    p0, p1, p2, p3 = poly
    b1, b2 = beta
    if regime == "layer":
        v_const, v_lin, v_quad = p1, 2.0 * p2, 3.0 * p3
        d = p0
        e = b1 * math.exp(-rate * width)
        f = b2
    else:
        r2 = rate * rate
        r4 = r2 * r2
        r5 = r4 * rate
        v_const = p1 - b2 / r4
        v_lin = 2.0 * p2 - b1 / r2
        v_quad = 3.0 * p3 - b2 / (2.0 * r2)
        d = p0 - b1 / r4
        e = (b1 * rate + b2) / (2.0 * r5)
        f = (b1 * rate - b2) / (2.0 * r5)
    wq1 = w * q1
    a = 2.0 * wq1 * v_quad
    b_coeff = wq1 * v_lin
    c = wq1 * v_const - 2.0 * (1.0 - w) * q2 * v_quad
    return a, b_coeff, c, d, e, f


def weighted_rate(w: Optional[float], q1: float, q2: float, width: float) -> float:
    """The exponential rate A1 of the weighted optimum at weight w, for a
    window of this width.  Refuses a weight outside (0, 1), where the
    closed form degenerates, and a rate whose A1 * width passes the
    exponent cap, where no basis holds the solution in floating point."""
    if w is None or not 0.0 < w < 1.0:
        raise ValueError(
            f"weight {w} outside (0, 1): the closed form degenerates at the "
            "endpoints; use solve_mz_jerk for w=0 and solve_mz_fuel for w=1"
        )
    if q1 <= 0.0 or q2 <= 0.0:
        raise ValueError("q1 and q2 must be positive")
    rate = math.sqrt(w * q1 / ((1.0 - w) * q2))
    if rate * width > _EXPONENT_CAP:
        raise ValueError(
            f"weight {w} gives exponential rate {rate:.6g}, which over the "
            f"{width:.6g} s window exceeds the exponent cap {_EXPONENT_CAP:.6g}"
        )
    return rate


def solve_mz_weighted(b: MzBoundary, w: float, q1: float, q2: float) -> MzTrajectory:
    """Optimal trade between acceleration effort and jerk at weight w.

    The stationarity condition forces the speed profile to satisfy
    (1-w)*q2*v'' - w*q1*v + (a/2)*tau^2 + b*tau + c = 0 for some constants
    a, b, c, giving the cubic-plus-exponential closed form described in
    the module docstring.  The six boundary conditions then pin all six
    constants through one linear solve in whichever basis is conditioned
    for this rate.
    """
    width = b.duration
    rate = weighted_rate(w, q1, q2, width)
    regime = "series" if rate * width <= _REGIME_SPLIT else "layer"
    rhs = np.array([b.p_start, b.vm, b.u_start, b.p_end, b.vf, b.u_end])
    solution = np.linalg.solve(_weighted_system(regime, rate, width), rhs)
    poly = tuple(map(float, solution[:4]))
    beta = tuple(map(float, solution[4:]))
    coeffs = _canonical_weighted_coefficients(regime, rate, poly, beta, w, q1, q2, width)
    return MzTrajectory(
        t0=b.tm, t1=b.tf, coefficients=tuple(map(float, coeffs)), rate_pos=rate,
        w=w, q1=q1, q2=q2, _regime=regime, _poly=poly, _beta=beta,
    )


class MzCosts(NamedTuple):
    fuel: float
    discomfort: float
    weighted: Optional[float]


def mz_costs(
    traj: Union[PolyTrajectory, MzTrajectory],
    q1: Optional[float] = None,
    q2: Optional[float] = None,
    w: Optional[float] = None,
) -> MzCosts:
    """Cost functionals of a solved trajectory.

    fuel is half the integral of u^2, discomfort half the integral of
    jerk^2, and weighted the combination w*q1*fuel + (1-w)*q2*discomfort.
    Weight parameters default to the weighted trajectory's own; passing
    them explicitly evaluates another weight's combination on this
    trajectory (cross-evaluation).  Polynomials are integrated exactly;
    the exponential form uses panelled high-order quadrature.
    """
    fuel = traj.half_square_integral(2)
    discomfort = traj.half_square_integral(3)
    if isinstance(traj, MzTrajectory):
        w = traj.w if w is None else w
        q1 = traj.q1 if q1 is None else q1
        q2 = traj.q2 if q2 is None else q2
    weighted = None
    if w is not None:
        if q1 is None or q2 is None:
            raise ValueError("q1 and q2 are required alongside an explicit weight")
        weighted = w * q1 * fuel + (1.0 - w) * q2 * discomfort
    return MzCosts(fuel=float(fuel), discomfort=float(discomfort), weighted=weighted)


def solve_mz(
    b: MzBoundary,
    objective: MzVariant,
    weight: Optional[float] = None,
    u_max: float = 3.0,
    jerk_scale: float = DEFAULT_JERK_SCALE,
) -> Union[PolyTrajectory, MzTrajectory]:
    """The merge-zone optimum for one objective; the weighted objective is
    normalized by u_max and jerk_scale."""
    # the solvers are looked up as module globals at call time, so a
    # wrapper installed on this module's names sees every solve
    if objective is MzVariant.FUEL_ONLY:
        return solve_mz_fuel(b)
    if objective is MzVariant.JERK_ONLY:
        return solve_mz_jerk(b)
    q1, q2 = normalization_weights(u_max, jerk_scale)
    return solve_mz_weighted(b, weight, q1, q2)
