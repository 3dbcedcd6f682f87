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

* series basis (A1*duration small): exponentials with their cubic Taylor
  head removed, scaled to limit to tau^4/24 and tau^5/120.  This is the
  quintic completion, so the weighted solve degrades gracefully into the
  jerk solve as w -> 0.
* boundary-layer basis (A1*duration large): exp(-A1*(duration-tau)) and
  exp(-A1*tau), each bounded by 1, carrying the two endpoint layers that
  the stiff solution develops as w -> 1.

Both parametrizations represent {cubic} + span{exp(+-A1 tau)} exactly;
only the conditioning of the 6x6 boundary system differs.  MzTrajectory
carries this weighted form only.
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

# |x| below which the exponential remainder functions switch to series
_SERIES_SPLIT = 0.5

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


# Remainder functions: exponentials with their leading Taylor terms removed
# and normalized so every one of them limits to a clean power of tau.  Each
# switches to its series for small arguments, where the direct formula
# cancels catastrophically.

def _poly_in_x2(coeffs, x2):
    total = np.zeros_like(x2)
    for coeff in reversed(coeffs):
        total = total * x2 + coeff
    return total


_C2N = tuple(1.0 / math.factorial(2 * k) for k in range(1, 9))
_S3N = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 9))
_C4N = tuple(1.0 / math.factorial(2 * k) for k in range(2, 10))
_S5N = tuple(1.0 / math.factorial(2 * k + 1) for k in range(2, 10))


def _c2n(x):
    """(cosh x - 1) / x^2"""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    small = np.abs(x) <= _SERIES_SPLIT
    safe = np.where(small, 1.0, x2)
    return np.where(small, _poly_in_x2(_C2N, x2), (np.cosh(x) - 1.0) / safe)


def _s3n(x):
    """(sinh x - x) / x^3"""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    small = np.abs(x) <= _SERIES_SPLIT
    safe = np.where(small, 1.0, x2 * x)
    return np.where(small, _poly_in_x2(_S3N, x2), (np.sinh(x) - x) / safe)


def _c4n(x):
    """(cosh x - 1 - x^2/2) / x^4"""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    small = np.abs(x) <= _SERIES_SPLIT
    safe = np.where(small, 1.0, x2 * x2)
    return np.where(small, _poly_in_x2(_C4N, x2), (np.cosh(x) - 1.0 - 0.5 * x2) / safe)


def _s5n(x):
    """(sinh x - x - x^3/6) / x^5"""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    small = np.abs(x) <= _SERIES_SPLIT
    safe = np.where(small, 1.0, x2 * x2 * x)
    return np.where(small, _poly_in_x2(_S5N, x2), (np.sinh(x) - x - x2 * x / 6.0) / safe)


def _sinhn(x):
    """sinh x / x"""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SERIES_SPLIT
    safe = np.where(small, 1.0, x)
    series = 1.0 + _poly_in_x2(_S3N, x * x) * x * x
    return np.where(small, series, np.sinh(x) / safe)


def _basis_pair(regime: str, rate: float, width: float, tau, deriv: int):
    """The two non-polynomial basis functions (or a derivative of them)."""
    tau = np.asarray(tau, dtype=float)
    if regime == "layer":
        head = np.exp(-rate * (width - tau))
        tail = np.exp(-rate * tau)
        scale = rate**deriv
        return scale * head, scale * tail * ((-1.0) ** deriv)
    x = rate * tau
    if deriv == 0:
        return tau**4 * _c4n(x), tau**5 * _s5n(x)
    if deriv == 1:
        return tau**3 * _s3n(x), tau**4 * _c4n(x)
    if deriv == 2:
        return tau**2 * _c2n(x), tau**3 * _s3n(x)
    if deriv == 3:
        return tau * _sinhn(x), tau**2 * _c2n(x)
    raise ValueError(f"unsupported derivative order {deriv}")


@dataclass(frozen=True)
class MzTrajectory:
    """One weighted merging-zone trajectory over the window [t0, t1].

    ``coefficients`` holds the canonical constants (a..f) of the
    exponential closed form, with rate_pos/rate_neg the exponential
    rates.  Near the degenerate weights the canonical amplitudes grow
    without bound; they are reported for inspection only, while
    evaluation always goes through the conditioned internal basis.
    """

    t0: float
    t1: float
    coefficients: Tuple[float, ...]
    rate_pos: float
    rate_neg: float
    w: float
    q1: float
    q2: float
    _regime: str
    _poly: Tuple[float, float, float, float]
    _beta: Tuple[float, float]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def _tau(self, t):
        return np.asarray(t, dtype=float) - self.t0

    def position(self, t):
        tau = self._tau(t)
        p0, p1, p2, p3 = self._poly
        b1, b2 = self._beta
        head, tail = _basis_pair(self._regime, self.rate_pos, self.duration, tau, 0)
        return ((p3 * tau + p2) * tau + p1) * tau + p0 + b1 * head + b2 * tail

    def speed(self, t):
        tau = self._tau(t)
        _, p1, p2, p3 = self._poly
        b1, b2 = self._beta
        head, tail = _basis_pair(self._regime, self.rate_pos, self.duration, tau, 1)
        return (3.0 * p3 * tau + 2.0 * p2) * tau + p1 + b1 * head + b2 * tail

    def control(self, t):
        tau = self._tau(t)
        _, _, p2, p3 = self._poly
        b1, b2 = self._beta
        head, tail = _basis_pair(self._regime, self.rate_pos, self.duration, tau, 2)
        return 6.0 * p3 * tau + 2.0 * p2 + b1 * head + b2 * tail

    def jerk(self, t):
        tau = self._tau(t)
        _, _, _, p3 = self._poly
        b1, b2 = self._beta
        head, tail = _basis_pair(self._regime, self.rate_pos, self.duration, tau, 3)
        return 6.0 * p3 + np.zeros_like(tau) + b1 * head + b2 * tail

    def half_square_integral(self, order: int) -> float:
        """Half the integral of the order-th derivative of position squared
        over the window, by panelled Gauss-Legendre quadrature sized to
        resolve the boundary layers."""
        fn = (self.position, self.speed, self.control, self.jerk)[order]
        width = self.duration
        panels = int(min(600, max(3, math.ceil(self.rate_pos * width / _GL_WIDTH))))
        total = 0.0
        edges = np.linspace(0.0, width, panels + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (left + right)
            half = 0.5 * (right - left)
            values = fn(self.t0 + (mid + half * _GL_POINTS))
            total += half * float(np.dot(_GL_WEIGHTS, values * values))
        return 0.5 * total


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
    """Boundary matrix over (p0, p1, p2, p3, beta1, beta2)."""
    rows = []
    for tau, deriv in ((0.0, 0), (0.0, 1), (0.0, 2), (width, 0), (width, 1), (width, 2)):
        head, tail = _basis_pair(regime, rate, width, tau, deriv)
        if deriv == 0:
            poly = [1.0, tau, tau * tau, tau**3]
        elif deriv == 1:
            poly = [0.0, 1.0, 2.0 * tau, 3.0 * tau * tau]
        else:
            poly = [0.0, 0.0, 2.0, 6.0 * tau]
        rows.append(poly + [float(head), float(tail)])
    return np.array(rows)


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


def solve_mz_weighted(
    b: MzBoundary,
    w: float,
    q1: float,
    q2: float,
    exponent_cap: float = 700.0,
) -> MzTrajectory:
    """Optimal trade between acceleration effort and jerk at weight w.

    The stationarity condition forces the speed profile to satisfy
    (1-w)*q2*v'' - w*q1*v + (a/2)*tau^2 + b*tau + c = 0 for some constants
    a, b, c, giving the cubic-plus-exponential closed form described in
    the module docstring.  The six boundary conditions then pin all six
    constants through one linear solve in whichever basis is conditioned
    for this rate.
    """
    if not 0.0 < w < 1.0:
        raise ValueError(
            f"weight {w} outside (0, 1): the closed form degenerates at the "
            "endpoints; use solve_mz_jerk for w=0 and solve_mz_fuel for w=1"
        )
    if q1 <= 0.0 or q2 <= 0.0:
        raise ValueError("q1 and q2 must be positive")
    rate = math.sqrt(w * q1 / ((1.0 - w) * q2))
    width = b.duration
    if rate * width > exponent_cap:
        raise ValueError(
            f"exponential rate {rate:.6g} over window {width:.6g} s exceeds "
            f"the exponent cap {exponent_cap:.6g}"
        )
    regime = "series" if rate * width <= _REGIME_SPLIT else "layer"
    system = _weighted_system(regime, rate, width)
    rhs = np.array([b.p_start, b.vm, b.u_start, b.p_end, b.vf, b.u_end])
    solution = np.linalg.solve(system, rhs)
    poly = tuple(map(float, solution[:4]))
    beta = tuple(map(float, solution[4:]))
    coeffs = _canonical_weighted_coefficients(regime, rate, poly, beta, w, q1, q2, width)
    return MzTrajectory(
        t0=b.tm,
        t1=b.tf,
        coefficients=tuple(map(float, coeffs)),
        rate_pos=rate,
        rate_neg=-rate,
        w=w,
        q1=q1,
        q2=q2,
        _regime=regime,
        _poly=poly,
        _beta=beta,
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
