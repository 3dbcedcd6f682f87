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

A whole weight grid is solved and costed in one batched pass, and one
weight is the grid of one.  solve_mz_weighted_grid splits the weights by
basis and solves each basis's 6x6 systems as one stack, sharing the
cubic's rows.  half_square_integrals lays the panels of all trajectories
with the same window and basis out in one ragged node array, whatever
their panel counts, and evaluates it in one _evaluate call; each
trajectory's panel sums are reduced on their own, one stacked matrix
product over the trajectories with the same panel count, and a lone
trajectory is the group of one.  MzTrajectory.derivative, the quadrature
and the batched solve share one rule for the rate's powers, and every
result keeps the bits of the weight-by-weight solve and quadrature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from crossflow.cz_planner import PolyTrajectory, Trajectory, hermite
from crossflow.geometry import require_finite

# objective normalization: q1 = 1/u_max^2 keeps q1*u^2 in [0,1] at the
# acceleration bound; q2 mirrors it for jerk against a configured scale
DEFAULT_JERK_SCALE = 10.0

# A1 * duration above which the boundary-layer basis takes over
_REGIME_SPLIT = 2.0

# largest A1 * duration the weighted solve accepts; exp(710) overflows
_EXPONENT_CAP = 700.0

# |x| at or below which _remainders sums its series, and the terms it sums
_SERIES_SPLIT = 0.5
_SERIES_TERMS = 8

# k!/(k-d)!, the factor the d-th derivative puts on tau^k; 0 for k < d
_FALLING = tuple(tuple(math.perm(k, d) for k in range(4)) for d in range(4))

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
    for name, scale in (("u_max", u_max), ("jerk_scale", jerk_scale)):
        square = scale * scale
        if not (square > 0.0 and 0.0 < 1.0 / square < math.inf):
            raise ValueError(f"{name} {scale} has a square of {square}, whose inverse, "
                             "a weighted objective's scale factor, is not a positive float")
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
    p_end adds the in-zone path length.  sim.merge_boundary builds every
    boundary the program plans or sweeps: in at the movement's curve
    speed, out at the through speed, over the geometry's transit_time,
    the constant-acceleration time 2 (p_end - p_start) / (vm + vf); the
    solvers accept any consistent window.
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


def _remainders(x, ks):
    """R(x, k) for each k >= 1 of ks, by k: cosh x (even k) or sinh x (odd
    k), less its Taylor terms below x^k, over x^k.  Where |x| <=
    _SERIES_SPLIT that difference cancels catastrophically, so the series
    sum of x^(2j) / (k+2j)! is taken.  The ks of one parity share its
    hyperbolic function and its chain of Taylor terms."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    small = np.abs(x) <= _SERIES_SPLIT
    remainders = {}
    for odd, hyperbolic in ((0, np.cosh), (1, np.sinh)):
        wanted = sorted({k for k in ks if k % 2 == odd})
        if not wanted:
            continue
        numerator = hyperbolic(x)
        even = 1.0  # x^(j - odd) at the Taylor term x^j
        for j in range(odd, wanted[-1] + 1, 2):
            # here numerator lacks the Taylor terms below x^j
            power = even * x if odd else even
            if j in wanted:
                series = 0.0
                for term in reversed(range(_SERIES_TERMS)):
                    series = series * x2 + 1.0 / math.factorial(j + 2 * term)
                remainders[j] = np.where(small, series, numerator / np.where(small, 1.0, power))
                if j == wanted[-1]:
                    break
            numerator = numerator - power / math.factorial(j)
            even = even * x2
    return remainders


def _scales(rate, orders):
    """rate**d and (-1)**d * rate**d for each order d, elementwise over a
    rate or an array of rates.  Each power is Python's float power, as
    numpy's array power can differ from it in the last bit."""
    rate = np.asarray(rate, dtype=float)
    rates = rate.ravel().tolist()
    table = np.array([sign * r**d for d in orders for sign in (1.0, (-1.0) ** d) for r in rates])
    return table.reshape((len(orders), 2) + rate.shape)


def _basis_pairs(regime: str, rate, width: float, tau, orders, repeats=None):
    """For each order, the order-th derivatives of the two non-polynomial
    basis functions at tau, for a rate or rates that broadcast against
    tau.  Given repeats, rate is a column of one rate per trajectory and
    tau's rows hold trajectory i's repeats[i] rows in turn: each rate's
    powers are taken once, then repeated onto its rows.  The orders share
    the boundary-layer exponentials and the series remainders."""
    tau = np.asarray(tau, dtype=float)
    per_row = rate if repeats is None else rate.repeat(repeats, axis=0)
    if regime == "layer":
        scales = _scales(rate, orders)
        if repeats is not None:
            scales = scales.repeat(repeats, axis=2)
        neg = -per_row
        head = np.exp(neg * (width - tau))
        tail = np.exp(neg * tau)
        return [(scale * head, signed * tail) for scale, signed in scales]
    x = per_row * tau
    remainder = _remainders(x, [k for d in orders for k in (4 - d, 5 - d)])
    return [(tau ** (4 - d) * remainder[4 - d], tau ** (5 - d) * remainder[5 - d])
            for d in orders]


def _cubic(poly, tau, order: int):
    """The order-th derivative of p0 + p1*tau + p2*tau^2 + p3*tau^3 at tau,
    by Horner on the k!/(k-order)! multiples; a scalar at order 3."""
    factors = _FALLING[order]
    value = factors[3] * poly[3]
    for k in range(2, order - 1, -1):
        value = value * tau + factors[k] * poly[k]
    return value


def _evaluate(regime: str, rate, width: float, poly, beta, tau, orders, repeats=None):
    """For each order, the order-th derivative of position at tau: the
    cubic plus the basis pair.  Each entry of poly and beta is a float or
    an array that broadcasts against tau, and so is the rate, or, given
    repeats, it holds one rate per trajectory as _basis_pairs takes it."""
    pairs = _basis_pairs(regime, rate, width, tau, orders, repeats)
    return [_cubic(poly, tau, d) + beta[0] * head + beta[1] * tail
            for d, (head, tail) in zip(orders, pairs)]


@dataclass(frozen=True)
class MzTrajectory(Trajectory):
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

    def derivatives(self, t, orders: Sequence[int]):
        """For each of orders, that derivative of position at t, a scalar or
        an array: one evaluation of the basis for them all."""
        tau = np.asarray(t, dtype=float) - self.t0
        return _evaluate(self._regime, self.rate_pos, self.duration, self._poly, self._beta,
                         tau, orders)

    def derivative(self, t, order: int):
        """The order-th derivative of position at t, a scalar or an array."""
        return self.derivatives(t, (order,))[0]


def half_square_integrals(
    trajectories: Sequence[MzTrajectory], orders: Sequence[int]
) -> List[Tuple[float, ...]]:
    """Half the integral of the square of each listed derivative order of
    position over each trajectory's window, one tuple per trajectory.

    The quadrature is panelled Gauss-Legendre sized to resolve the boundary
    layers: ceil(A1 * width / _GL_WIDTH) panels of _GL_NODES nodes, at
    least 3.  weighted_rate refuses an A1 * width above _EXPONENT_CAP, so
    no trajectory has more than ceil(_EXPONENT_CAP / _GL_WIDTH) = 70.

    Trajectories with the same window and basis share one ragged node
    layout, whatever their panel counts: each one's panels in turn, edged
    as np.linspace(0, width, panels + 1) edges them, all evaluated by one
    _evaluate call.  Each trajectory's panel sums are then reduced on
    their own, by one stacked matrix product over the trajectories with
    its panel count, so its integrals keep the bits of its quadrature
    alone and do not depend on what it is batched with.
    """
    groups = {}
    for i, traj in enumerate(trajectories):
        groups.setdefault((traj.t0, traj.t1, traj._regime), []).append(i)
    integrals = [None] * len(trajectories)
    for (t0, t1, regime), members in groups.items():
        width = t1 - t0
        # (panel count, index) by panel count, so that the members with
        # one count, whose panels are the same, lie together
        group = sorted(
            (max(3, math.ceil(trajectories[i].rate_pos * width / _GL_WIDTH)), i) for i in members
        )
        counts = np.array([panels for panels, _ in group])
        ends = counts.cumsum()
        # each panel's index within its trajectory, that trajectory's
        # edge step, and the rows of the trajectories' last panels
        index = np.arange(ends[-1]) - (ends - counts).repeat(counts)
        step = (width / counts).repeat(counts)
        last = ends - 1
        # each member's rate, then its p0..p3, beta1 and beta2 on each of its rows
        params = np.array([
            (trajectories[i].rate_pos, *trajectories[i]._poly, *trajectories[i]._beta)
            for _, i in group
        ])
        rows = params[:, 1:].repeat(counts, axis=0).T[..., None]
        left = index * step
        right = (index + 1) * step
        right[last] = width
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        tau = (t0 + (mid[:, None] + half[:, None] * _GL_POINTS)) - t0
        squares = np.array(_evaluate(regime, params[:, :1], width, rows[:4], rows[4:], tau,
                                     orders, counts))
        squares *= squares
        start = 0
        for panels, same in groupby(group, key=itemgetter(0)):
            same = list(same)
            stop = start + panels * len(same)
            block = squares[:, start:stop].reshape(len(orders), len(same), panels, _GL_NODES)
            sums = 0.5 * ((block @ _GL_WEIGHTS)[..., None, :] @ half[start:start + panels])[..., 0]
            for (_, i), values in zip(same, sums.T.tolist()):
                integrals[i] = tuple(values)
            start = stop
    return integrals


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


def solve_mz_weighted_grid(
    b: MzBoundary, weights: Sequence[float], q1: float, q2: float
) -> Tuple[MzTrajectory, ...]:
    """Optimal trades between acceleration effort and jerk, one per weight.

    The stationarity condition forces the speed profile to satisfy
    (1-w)*q2*v'' - w*q1*v + (a/2)*tau^2 + b*tau + c = 0 for some constants
    a, b, c, giving the cubic-plus-exponential closed form described in
    the module docstring.  The six boundary conditions then pin all six
    constants through one linear solve in whichever basis is conditioned
    for the weight's rate.

    Every weight's rate comes from weighted_rate, in order, so the first
    weight it refuses raises ValueError.  The weights are then split by
    basis.  Each basis's 6x6 systems over (p0, p1, p2, p3, beta1, beta2)
    share the cubic's rows, take their basis columns from one _basis_pairs
    call over the basis's rates, both window ends and the orders 0-2, and
    are solved as one stack.
    """
    width = b.duration
    rates = [weighted_rate(w, q1, q2, width) for w in weights]
    regimes = ["series" if rate * width <= _REGIME_SPLIT else "layer" for rate in rates]
    ends = np.array([0.0, width])
    # the cubic's position, speed and control at tau = 0 and tau = width
    cubic = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
        [1.0, width, width * width, width * width * width],
        [0.0, 1.0, 2.0 * width, 3.0 * width * width],
        [0.0, 0.0, 2.0, 6.0 * width],
    ])
    rhs = np.array([b.p_start, b.vm, b.u_start, b.p_end, b.vf, b.u_end]).reshape(1, 6, 1)
    solutions = [None] * len(rates)
    for regime in ("series", "layer"):
        members = [i for i, name in enumerate(regimes) if name == regime]
        if not members:
            continue
        rate = np.array([rates[i] for i in members])[:, None]
        # pairs[d][c][i, e]: column c of member i's row for order d at end e
        pairs = np.array(_basis_pairs(regime, rate, width, ends, (0, 1, 2)))
        systems = np.empty((len(members), 6, 6))
        systems[..., :4] = cubic
        systems[..., 4:] = pairs.transpose(2, 3, 0, 1).reshape(len(members), 6, 2)
        for i, solution in zip(members, np.linalg.solve(systems, rhs)[..., 0].tolist()):
            solutions[i] = solution
    trajectories = []
    for w, rate, regime, solution in zip(weights, rates, regimes, solutions):
        poly, beta = tuple(solution[:4]), tuple(solution[4:])
        coeffs = _canonical_weighted_coefficients(regime, rate, poly, beta, w, q1, q2, width)
        trajectories.append(MzTrajectory(
            t0=b.tm, t1=b.tf, coefficients=tuple(map(float, coeffs)), rate_pos=rate,
            w=w, q1=q1, q2=q2, _regime=regime, _poly=poly, _beta=beta,
        ))
    return tuple(trajectories)


def solve_mz_weighted(b: MzBoundary, w: float, q1: float, q2: float) -> MzTrajectory:
    """The optimal trade between acceleration effort and jerk at weight w:
    solve_mz_weighted_grid over the grid of one."""
    return solve_mz_weighted_grid(b, (w,), q1, q2)[0]


class MzCosts(NamedTuple):
    fuel: float
    discomfort: float
    weighted: Optional[float]


def mz_costs(traj: Union[PolyTrajectory, MzTrajectory]) -> MzCosts:
    """Cost functionals of a solved trajectory.

    fuel is half the integral of u^2 and discomfort half the integral of
    jerk^2.  weighted is a weighted trajectory's own combination
    w*q1*fuel + (1-w)*q2*discomfort, and None for the polynomial optima,
    which carry no weight.  Polynomials are integrated exactly; the
    exponential form uses panelled high-order quadrature.
    """
    if isinstance(traj, MzTrajectory):
        ((fuel, discomfort),) = half_square_integrals((traj,), (2, 3))
        weighted = traj.w * traj.q1 * fuel + (1.0 - traj.w) * traj.q2 * discomfort
    else:
        fuel = traj.half_square_integral(2)
        discomfort = traj.half_square_integral(3)
        weighted = None
    return MzCosts(fuel=float(fuel), discomfort=float(discomfort), weighted=weighted)


def refuse_ignored_weight(objective: MzVariant, weight: Optional[float]) -> None:
    """Refuse a weight given with an objective other than the weighted one,
    which would ignore it."""
    if objective is not MzVariant.WEIGHTED and weight is not None:
        raise ValueError(f"weight {weight} given, but the {objective.value} objective ignores it")


def solve_mz(
    b: MzBoundary,
    objective: MzVariant,
    weight: Optional[float] = None,
    u_max: float = 3.0,
    jerk_scale: float = DEFAULT_JERK_SCALE,
) -> Union[PolyTrajectory, MzTrajectory]:
    """The merge-zone optimum for one objective; the weighted objective is
    normalized by u_max and jerk_scale.  A weight given with another
    objective, which would ignore it, is refused."""
    refuse_ignored_weight(objective, weight)
    # the solvers are looked up as module globals at call time, so a
    # wrapper installed on this module's names sees every solve
    if objective is MzVariant.FUEL_ONLY:
        return solve_mz_fuel(b)
    if objective is MzVariant.JERK_ONLY:
        return solve_mz_jerk(b)
    q1, q2 = normalization_weights(u_max, jerk_scale)
    return solve_mz_weighted(b, weight, q1, q2)
