"""Independent reference computations that pin expected test values.

Everything here reaches its answer by a different route than the package
does: dense geometric sampling instead of the two turn rules,
numerical forward integration instead of closed-form arrival times,
discretized trajectory optimization (KKT systems of small quadratic
programs) instead of polynomial boundary-value solves, hand-written cubic
and quintic boundary systems and evaluators, and the Hermite boundary
system solved in exact rational arithmetic, instead of the closed-form
Hermite coefficients and Horner loop, the lane-leader gap decided in
exact arithmetic instead of by gap_to's floats and root rule, a full
reschedule per entry-gate probe, a full gate search of every arm head at
every admission, one scalar evaluation per sampled row, a
forward queue scan, all-pairs audits and a csv.writer per output line
instead of the simulator's and the command line's shortcuts, and one
weighted solve and quadrature per weight and a pairwise frontier loop
instead of the batched weight sweep and its dominance matrix.  Tests
compare the two routes; neither side is derived from the other.
"""

import csv
import io
import math
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import quad, solve_ivp
from scipy.spatial import cKDTree

from crossflow.audit import AuditFinding, AuditReport, gap_to, too_close
from crossflow.cz_planner import solve_cz
from crossflow.geometry import Arm, ConflictClass, classify
from crossflow.mz_planner import (
    _REGIME_SPLIT,
    MzTrajectory,
    _canonical_weighted_coefficients,
    weighted_rate,
)
from crossflow.scheduler import ConflictPredecessors, schedule
from crossflow.sim import (
    _GATE_RESOLUTION,
    _GATE_SCAN_STEP,
    ZONE_CZ,
    ZONE_MZ,
    ZONE_OUT,
    ZONES,
    generate_arrivals,
)

# ---------------------------------------------------------------------------
# Intersection layout in normalized coordinates.
#
# The merge square spans [-2, 2] x [-2, 2]; lanes run one unit from the
# center line (right-hand traffic).  Straight paths are chords, turns are
# quarter circles centered on the corner shared by the entry and exit
# edges.  One unit is a quarter of the merge-square side.

ENTRY_POINT = {"W": (-2.0, -1.0), "N": (-1.0, 2.0), "E": (2.0, 1.0), "S": (1.0, -2.0)}
EXIT_POINT = {"E": (2.0, -1.0), "S": (-1.0, -2.0), "W": (-2.0, 1.0), "N": (1.0, 2.0)}

EXIT_ARM = {
    ("W", "left"): "N", ("W", "straight"): "E", ("W", "right"): "S",
    ("N", "left"): "E", ("N", "straight"): "S", ("N", "right"): "W",
    ("E", "left"): "S", ("E", "straight"): "W", ("E", "right"): "N",
    ("S", "left"): "W", ("S", "straight"): "N", ("S", "right"): "E",
}

# board edge holding each arm's entry/exit lanes: (axis index, coordinate)
_ARM_EDGE = {"W": (0, -2.0), "E": (0, 2.0), "N": (1, 2.0), "S": (1, -2.0)}


def path_points(entry_arm: str, turn: str, n: int = 601) -> np.ndarray:
    """Sample one movement's merge-zone path at n points."""
    exit_arm = EXIT_ARM[(entry_arm, turn)]
    start = np.array(ENTRY_POINT[entry_arm])
    end = np.array(EXIT_POINT[exit_arm])
    s = np.linspace(0.0, 1.0, n)
    if turn == "straight":
        return start + (end - start) * s[:, None]
    entry_axis, entry_coord = _ARM_EDGE[entry_arm]
    exit_axis, exit_coord = _ARM_EDGE[exit_arm]
    center = np.empty(2)
    center[entry_axis] = entry_coord
    center[exit_axis] = exit_coord
    radius = float(np.linalg.norm(start - center))
    angle0 = np.arctan2(*(start - center)[::-1])
    angle1 = np.arctan2(*(end - center)[::-1])
    sweep = (angle1 - angle0 + np.pi) % (2.0 * np.pi) - np.pi
    angles = angle0 + sweep * s
    return center + radius * np.column_stack([np.cos(angles), np.sin(angles)])


def min_path_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between a point of a and a point of b."""
    return float(cKDTree(b).query(a)[0].min())


def classify_by_sampling(
    entry_a: str, turn_a: str, entry_b: str, turn_b: str,
    n: int = 601, tol: float = 0.05,
) -> str:
    """Conflict class from dense path sampling, as a lowercase tag."""
    if entry_a == entry_b:
        return "same_entry"
    if EXIT_ARM[(entry_a, turn_a)] == EXIT_ARM[(entry_b, turn_b)]:
        return "same_exit"
    gap = min_path_distance(path_points(entry_a, turn_a, n), path_points(entry_b, turn_b, n))
    return "lateral" if gap < tol else "no_conflict"


# ---------------------------------------------------------------------------
# Earliest merge-zone arrival by forward integration: full throttle until
# the speed cap, then cruise.


def bang_cruise_arrival(t0: float, v0: float, cz_length: float,
                        v_max: float, u_max: float) -> float:
    if v0 >= v_max:
        return t0 + cz_length / v_max

    def rhs(_t, y):
        return [y[1], u_max]

    def reach_end(_t, y):
        return y[0] - cz_length

    def reach_cap(_t, y):
        return y[1] - v_max

    reach_end.terminal = True
    reach_end.direction = 1
    reach_cap.terminal = True
    reach_cap.direction = 1
    sol = solve_ivp(
        rhs, (0.0, 10.0 * (cz_length / v0 + v_max / u_max)), [0.0, v0],
        events=[reach_end, reach_cap], rtol=1e-12, atol=1e-12,
    )
    if sol.t_events[0].size:
        return t0 + float(sol.t_events[0][0])
    t_cap = float(sol.t_events[1][0])
    p_cap = float(sol.y_events[1][0][0])
    return t0 + t_cap + (cz_length - p_cap) / v_max


# ---------------------------------------------------------------------------
# Direct transcription of the approach problem: piecewise-constant control
# on n segments, minimizing (h/2) u.u subject to the two terminal equality
# constraints.  The KKT solution is closed form via the 2x2 Gram system.


def transcription_min_effort(duration: float, v0: float, dv: float,
                             distance: float, n: int = 2000):
    """Returns (cost, segment midtimes, u values) for the discretized
    minimum-effort transfer covering `distance` in `duration` with speed
    change `dv`."""
    h = duration / n
    tk = np.arange(n) * h
    rows = np.vstack([np.full(n, h), h * (duration - tk - h / 2.0)])
    target = np.array([dv, distance - v0 * duration])
    gram = rows @ rows.T / h
    u = rows.T @ np.linalg.solve(gram, target) / h
    cost = 0.5 * h * float(u @ u)
    return cost, tk + h / 2.0, u


def _difference_stiffness(n: int, h: float) -> scipy.sparse.csr_matrix:
    main = np.full(n + 1, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n, -1.0 / h)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr")


def _linear_mass(n: int, h: float) -> scipy.sparse.csr_matrix:
    main = np.full(n + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n, h / 6.0)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr")


def _boundary_rows(duration: float, n: int, dv: float, dp_extra: float,
                   u_start: float, u_end: float):
    """Constraint rows for a piecewise-linear control profile: endpoint
    pins plus the exact speed-change and extra-displacement integrals."""
    h = duration / n
    trap = np.full(n + 1, h)
    trap[0] = trap[-1] = h / 2.0
    tk = np.arange(n) * h
    lever = np.zeros(n + 1)
    lever[:-1] += h * ((duration - tk) / 2.0 - h / 6.0)
    lever[1:] += h * ((duration - tk) / 2.0 - h / 3.0)
    pin0 = np.zeros(n + 1)
    pin0[0] = 1.0
    pin1 = np.zeros(n + 1)
    pin1[-1] = 1.0
    rows = np.vstack([pin0, pin1, trap, lever])
    rhs = np.array([u_start, u_end, dv, dp_extra])
    return rows, rhs


def _solve_control_qp(hessian, rows: np.ndarray, rhs: np.ndarray):
    m = rows.shape[0]
    kkt = scipy.sparse.bmat(
        [[hessian, rows.T], [rows, None]], format="csc"
    )
    full_rhs = np.concatenate([np.zeros(hessian.shape[0]), rhs])
    solution = scipy.sparse.linalg.spsolve(kkt, full_rhs)
    u = solution[: hessian.shape[0]]
    cost = 0.5 * float(u @ (hessian @ u))
    return cost, u


def min_jerk_qp(duration: float, dv: float, dp_extra: float,
                u_start: float, u_end: float, n: int = 800):
    """Discretized minimum-jerk transfer: piecewise-linear u on n panels,
    objective (1/2) integral of (u')^2.  Returns (cost, node times, u)."""
    h = duration / n
    stiffness = _difference_stiffness(n, h)
    rows, rhs = _boundary_rows(duration, n, dv, dp_extra, u_start, u_end)
    cost, u = _solve_control_qp(stiffness, rows, rhs)
    return cost, np.arange(n + 1) * h, u


def min_fuel_qp(duration: float, dv: float, dp_extra: float,
                u_start: float, u_end: float, n: int = 2000):
    """Minimum (1/2) integral of u^2 under all six boundary conditions
    (the w -> 1 limit of the weighted merge problem)."""
    h = duration / n
    mass = _linear_mass(n, h)
    rows, rhs = _boundary_rows(duration, n, dv, dp_extra, u_start, u_end)
    cost, u = _solve_control_qp(mass, rows, rhs)
    return cost, np.arange(n + 1) * h, u


def weighted_qp(duration: float, dv: float, dp_extra: float,
                u_start: float, u_end: float,
                w: float, q1: float, q2: float, n: int = 2000):
    """Discretized weighted merge problem: objective
    (1/2) integral of (w q1 u^2 + (1-w) q2 (u')^2)."""
    h = duration / n
    hessian = w * q1 * _linear_mass(n, h) + (1.0 - w) * q2 * _difference_stiffness(n, h)
    rows, rhs = _boundary_rows(duration, n, dv, dp_extra, u_start, u_end)
    cost, u = _solve_control_qp(hessian, rows, rhs)
    return cost, np.arange(n + 1) * h, u


def quad_half_square(fn, lo: float, hi: float) -> float:
    """Adaptive quadrature of (1/2) integral of fn(t)^2 over [lo, hi]."""
    value, _err = quad(lambda t: 0.5 * fn(t) ** 2, lo, hi,
                       limit=200, epsabs=1e-13, epsrel=1e-13)
    return value


# the 20-node Gauss-Legendre rule on [-1, 1] of the weighted trajectory's
# panels, taken once here rather than from mz_planner
_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(20)


def panelled_half_square(fn, lo: float, hi: float, rate: float) -> float:
    """(1/2) integral of fn(t)^2 over [lo, hi] by the weighted trajectory's
    panelled quadrature, one panel at a time: 20 Gauss-Legendre nodes on
    each of ceil(rate * width / 10) panels, at least 3 and at most 600."""
    nodes, weights = _LEGENDRE_NODES, _LEGENDRE_WEIGHTS
    width = hi - lo
    panels = int(min(600, max(3, math.ceil(rate * width / 10.0))))
    edges = np.linspace(0.0, width, panels + 1)
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        values = fn(lo + (mid + half * nodes))
        total += half * float(np.dot(weights, values * values))
    return 0.5 * total


# ---------------------------------------------------------------------------
# The approach cubic, the merge-zone fuel cubic and the jerk quintic in
# their hand-written form: one boundary system per degree, one evaluator
# per derivative, and one cost formula per variant.  PolyTrajectory must
# reproduce the states bit for bit from its own coefficients, and both
# its coefficients and these float solves must lie close to the exact
# rational solve of the same boundary problem.


def hermite_exact(t0, t1, start, end):
    """Coefficients, highest order first, of the polynomial of degree
    2m-1 whose position and first m-1 derivatives take the m values
    start at t0 and end at t1, as Fractions.  The conditions at t0 fix
    the m low-order coefficients to the start values, so only the m x m
    block of the conditions at t1 is solved, by Gauss-Jordan elimination
    in exact rational arithmetic."""
    m = len(start)
    width = Fraction(t1) - Fraction(t0)
    low = [Fraction(x) for x in start]

    def term(k, r):
        # the order-k coefficient's share of the order-r derivative at t1
        return width ** (k - r) / math.factorial(k - r)

    rows = [[term(k, r) for k in range(2 * m - 1, m - 1, -1)] for r in range(m)]
    rhs = [Fraction(x) - sum(term(k, r) * low[k] for k in range(r, m))
           for r, x in enumerate(end)]
    for col in range(m):
        pivot = next(i for i in range(col, m) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
                rhs[i] -= factor * rhs[col]
    return (*(rhs[i] / rows[i][i] for i in range(m)), *reversed(low))


def poly_derivative_exact(coeffs, tau, order):
    """The order-th derivative of sum c_i tau^k / k! (highest order
    first) at the shifted time tau, exactly: with tau = p / q and every
    c_i / k! an integer A_k over one common denominator, Horner sums the
    integers A_k p^k q^(degree - k), and one Fraction divides them out."""
    kept = [c.as_integer_ratio() for c in coeffs[: len(coeffs) - order]]
    if not kept:
        return Fraction(0)
    degree = len(kept) - 1
    p, q = tau.as_integer_ratio()
    scales = [den * math.factorial(degree - i) for i, (_, den) in enumerate(kept)]
    common = math.lcm(*scales)
    value = 0
    for i, ((num, _), scale) in enumerate(zip(kept, scales)):
        value = value * p + num * (common // scale) * q**i
    return Fraction(value, common * q**degree)


def cubic_coefficients(t0, t1, p0, v0, p1, v1):
    """(a, b, c, d) with p = a*tau^3/6 + b*tau^2/2 + c*tau + d, tau = t - t0."""
    horizon = t1 - t0
    system = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [horizon**3 / 6.0, horizon**2 / 2.0, horizon, 1.0],
            [horizon**2 / 2.0, horizon, 1.0, 0.0],
        ]
    )
    return tuple(map(float, np.linalg.solve(system, np.array([p0, v0, p1, v1]))))


def quintic_coefficients(t0, t1, p0, v0, u0, p1, v1, u1):
    """(a..f) with p = a*tau^5/120 + b*tau^4/24 + ... + e*tau + f."""
    width = t1 - t0
    system = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [width**5 / 120.0, width**4 / 24.0, width**3 / 6.0, width**2 / 2.0, width, 1.0],
            [width**4 / 24.0, width**3 / 6.0, width**2 / 2.0, width, 1.0, 0.0],
            [width**3 / 6.0, width**2 / 2.0, width, 1.0, 0.0, 0.0],
        ]
    )
    rhs = np.array([p0, v0, u0, p1, v1, u1])
    return tuple(map(float, np.linalg.solve(system, rhs)))


def cubic_states(coeffs, t0, t):
    """(position, speed, control, jerk) of the cubic at t."""
    a, b, c, d = coeffs
    tau = np.asarray(t, dtype=float) - t0
    return (
        ((a * tau / 6.0 + 0.5 * b) * tau + c) * tau + d,
        (0.5 * a * tau + b) * tau + c,
        a * tau + b,
        np.full_like(np.asarray(t, dtype=float), a),
    )


def quintic_states(coeffs, t0, t):
    """(position, speed, control, jerk) of the quintic at t."""
    a, b, c, d, e, f = coeffs
    tau = np.asarray(t, dtype=float) - t0
    return (
        ((((a * tau / 120.0 + b / 24.0) * tau + c / 6.0) * tau + 0.5 * d) * tau + e) * tau + f,
        (((a * tau / 24.0 + b / 6.0) * tau + 0.5 * c) * tau + d) * tau + e,
        ((a * tau / 6.0 + 0.5 * b) * tau + c) * tau + d,
        (0.5 * a * tau + b) * tau + c,
    )


def cubic_costs(coeffs, width):
    """(half integral of u^2, half integral of jerk^2) by the cubic formulas."""
    a, b, _, _ = coeffs
    fuel = 0.5 * (a * a * width**3 / 3.0 + a * b * width**2 + b * b * width)
    return fuel, 0.5 * a * a * width


def _poly_square_integral(low_first, width):
    poly = np.polynomial.Polynomial(low_first)
    return float((poly * poly).integ()(width))


def quintic_costs(coeffs, width):
    """(half integral of u^2, half integral of jerk^2) through numpy polynomials."""
    a, b, c, d, _, _ = coeffs
    fuel = 0.5 * _poly_square_integral([d, c, 0.5 * b, a / 6.0], width)
    return fuel, 0.5 * _poly_square_integral([c, b, 0.5 * a], width)


# ---------------------------------------------------------------------------
# The simulator's entry gate and state sampler in their plain per-probe and
# per-row form: every gate probe re-runs the full scheduler and rear-end
# check, every admission searches every arm head to the end, and every
# sample row evaluates its trajectory at one scalar time.
# The simulator's own versions must agree with these bit for bit.


def gated_entry_by_full_schedule(spec, preds, leader, g, stats=None):
    """Gate-clear entry time by the same galloping scan and guarded
    Illinois narrowing, each probe rescheduled in full behind preds.  A
    generator with the gate's contract: it yields each probed time found
    not clear and returns the answer.  stats is accepted and ignored."""

    def probe(t0):
        sched = schedule(replace(spec, t0=t0), preds, g)
        traj = solve_cz(t0, spec.v0, sched.tm, sched.vm, g.cz_length)
        found = gap_to(leader)(traj.coefficients, traj.t0, traj.t1)
        if found is None:
            return True, math.inf
        gap = found[0]
        return not too_close(gap, g.min_safe_distance), gap - g.min_safe_distance

    if leader is None:
        return spec.t0
    clear, f_low = probe(spec.t0)
    if clear:
        return spec.t0
    yield spec.t0
    # gallop: steps of 1, 2, 4, ... scan steps, up to just past the
    # leader's exit, where every entry is clear
    low = spec.t0
    step = _GATE_SCAN_STEP
    high = min(low + step, leader.t1 + _GATE_SCAN_STEP)
    clear, f_high = probe(high)
    while not clear:
        low, f_low = high, f_high
        yield low
        step *= 2.0
        high = min(low + step, leader.t1 + _GATE_SCAN_STEP)
        clear, f_high = probe(high)
    # narrow [low, high]: regula falsi on the gap, halving the value kept at
    # an end that stayed put twice in a row; the j-th estimate lies within
    # 2^(3 - j) first widths, less half the current width, of the midpoint
    width0 = high - low
    last = None
    j = 0
    while high - low > _GATE_RESOLUTION:
        mid = 0.5 * (low + high)
        if f_low < f_high < math.inf:
            radius = width0 * 0.5 ** (j - 3) - 0.5 * (high - low)
            t = low + (high - low) * (f_low / (f_low - f_high))
            t = max(t, mid - radius, low + _GATE_RESOLUTION / 2)
            t = min(t, mid + radius, high - _GATE_RESOLUTION / 2)
        else:
            t = mid
        clear, f = probe(t)
        if clear:
            if last == "high":
                f_low /= 2
            high, f_high, last = t, f, "high"
        else:
            if last == "low":
                f_high /= 2
            low, f_low, last = t, f, "low"
            yield low
        j += 1
    return high


# ---------------------------------------------------------------------------
# The lane-leader gap rule decided in exact arithmetic: every float of both
# pieces becomes a Fraction, the gap less the bound is expanded into a
# polynomial in t, and its interior minima are isolated between rational
# points by the sign of its slope.  It shares no root formula and no
# rounding with gap_to.


def _in_t_exact(coefficients, t0):
    """Coefficients, lowest order first, in t of sum c_i (t - t0)^k / k!
    (coefficients highest order first), as Fractions."""
    t0 = Fraction(t0)
    degree = len(coefficients) - 1
    terms = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(coefficients):
        k = degree - i
        scale = Fraction(c) / math.factorial(k)
        for j in range(k + 1):
            terms[j] += scale * math.comb(k, j) * (-t0) ** (k - j)
    return terms


def _at(poly, t):
    """poly, lowest order first, at the rational t."""
    value = Fraction(0)
    for c in reversed(poly):
        value = value * t + c
    return value


def _rational_sqrt(square):
    """The rational square root of a Fraction, or None if it has none."""
    if square < 0:
        return None
    num, den = math.isqrt(square.numerator), math.isqrt(square.denominator)
    return Fraction(num, den) if Fraction(num * num, den * den) == square else None


def gap_below_exact(leader, coefficients, t0, t1, bound):
    """Whether the gap of a cubic follower, coefficients on [t0, t1], behind
    a cubic leader falls below bound somewhere on the window both share,
    decided exactly: None when they share none.

    The least gap over a closed window sits at an end or at an interior
    minimum, where the gap's slope, of degree 2 at most, rises through
    zero.  The slope is monotone on each side of its vertex, so each side
    isolates at most one such root between rational ends.  A rational
    root is evaluated as it is.  An irrational one is no root of the gap,
    since a cubic with rational coefficients has no irrational double
    root, so bisection on the slope's sign ends: once the gap is below the
    bound at a point, or gap(a) + (b - a) slope(a), the least it can be
    on [a, b], is not.
    """
    lo, hi = Fraction(max(leader.t0, t0)), Fraction(min(leader.t1, t1))
    if lo > hi:
        return None
    excess = [a - b for a, b in zip(_in_t_exact(leader.coefficients, leader.t0),
                                    _in_t_exact(coefficients, t0))]
    excess[0] -= Fraction(bound)
    slope = [k * c for k, c in enumerate(excess)][1:]
    const, lin, quad = slope
    if _at(excess, lo) < 0 or _at(excess, hi) < 0:
        return True
    if quad == 0:
        rational = [-const / lin] if lin != 0 else []
    else:
        root = _rational_sqrt(lin * lin - 4 * quad * const)
        rational = [] if root is None else [(-lin + side * root) / (2 * quad) for side in (1, -1)]
    cuts = [lo, hi]
    if quad != 0 and lo < -lin / (2 * quad) < hi:
        cuts.insert(1, -lin / (2 * quad))
    for a, b in zip(cuts, cuts[1:]):
        if not _at(slope, a) < 0 < _at(slope, b):
            continue
        exact = [r for r in rational if a < r < b]
        if exact:
            if _at(excess, exact[0]) < 0:
                return True
            continue
        while _at(excess, a) + (b - a) * _at(slope, a) < 0:
            mid = (a + b) / 2
            if _at(excess, mid) < 0:
                return True
            a, b = (mid, b) if _at(slope, mid) < 0 else (a, mid)
    return False


def finish_search(search):
    """Drive a gate search to its end: its yields, in order, and its answer."""
    yields = []
    while True:
        try:
            yields.append(next(search))
        except StopIteration as done:
            return yields, done.value


def admissions_by_full_search(cfg):
    """(arrival time, gated entry) of each admission, in order, with every
    arm head searched in full at every commit, behind the predecessors a
    forward queue scan finds, and the least (entry, arrival time, arrival
    id) admitted."""
    g = cfg.geometry
    arrivals = generate_arrivals(cfg)
    pending = {arm: [s for s in arrivals if s.movement.entry_arm is arm] for arm in Arm}
    queue, leaders, admitted = [], {}, []
    clock = 0.0
    while any(pending.values()):
        keys = []
        for arm, line in pending.items():
            if line:
                head = line[0]
                candidate = replace(head, t0=max(head.t0, clock))
                preds = conflict_predecessors_forward(head, queue)
                _, entry = finish_search(
                    gated_entry_by_full_schedule(candidate, preds, leaders.get(arm), g)
                )
                keys.append((entry, head.t0, head.vehicle_id, arm))
        clock, arrival_time, _, arm = min(keys)
        spec = replace(pending[arm].pop(0), vehicle_id=len(queue) + 1, t0=clock)
        sched = schedule(spec, conflict_predecessors_forward(spec, queue), g)
        queue.append(sched)
        leaders[arm] = solve_cz(spec.t0, spec.v0, sched.tm, sched.vm, g.cz_length)
        admitted.append((arrival_time, clock))
    return admitted


class SampleRow(NamedTuple):
    """One sampled state as a row of Python values: the reference row type."""

    t: float
    vehicle_id: int
    arm: str
    turn: str
    zone: str
    p: float
    v: float
    u: float
    j: float


def sample_rows(run):
    """The rows of run.samples as SampleRows, each read from its columns
    and its record."""
    samples = run.samples
    labels = [(rec.spec.vehicle_id, rec.spec.movement.entry_arm.value,
               rec.spec.movement.turn.value) for rec in run.vehicles]
    return tuple(
        SampleRow(t, *labels[owner], ZONES[slot], *state)
        for t, owner, slot, *state in zip(samples.t.tolist(), samples.owner.tolist(),
                                          samples.slot.tolist(), *samples.values.tolist())
    )


def row_bits(rows):
    """rows with each float as its float.hex text, so that two rows are
    equal only when their floats share a bit pattern: == cannot tell -0.0
    from 0.0."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def _grid_span(rec, cfg):
    """The first and last index k of rec's rows on the grid k * sample_step:
    from its control-zone entry until it has cleared min_safe_distance
    past its merge-zone exit."""
    step = cfg.sample_step
    entry = rec.spec.t0 / step
    sched = rec.schedule
    leave_time = sched.tf + cfg.geometry.min_safe_distance / sched.vf
    return math.ceil(entry - 1e-9 * min(1.0, entry)), math.floor(leave_time / step + 1e-9)


def sample_row_count(records, cfg):
    """How many rows sample_states_by_row gives records, counted from
    their grid spans alone."""
    return sum(last + 1 - first for first, last in (_grid_span(rec, cfg) for rec in records))


def sample_states_by_row(records, cfg):
    """State table on the grid k * sample_step, one scalar evaluation per row."""
    step = cfg.sample_step
    rows = []
    for rec in records:
        sched = rec.schedule
        first, last = _grid_span(rec, cfg)
        for k in range(first, last + 1):
            t = k * step
            if t < sched.tm:
                zone, traj = ZONE_CZ, rec.cz
            elif t < sched.tf:
                zone, traj = ZONE_MZ, rec.mz
            else:
                zone, traj = ZONE_OUT, None
            if traj is None:
                p_end = cfg.geometry.cz_length + cfg.geometry.path_length(sched.movement.turn)
                p = p_end + sched.vf * (t - sched.tf)
                v, u, j = sched.vf, 0.0, 0.0
            else:
                p = float(traj.position(t))
                v = float(traj.speed(t))
                u = float(traj.control(t))
                j = float(traj.jerk(t))
            rows.append(
                SampleRow(
                    t=t, vehicle_id=rec.spec.vehicle_id,
                    arm=rec.spec.movement.entry_arm.value,
                    turn=rec.spec.movement.turn.value,
                    zone=zone, p=p, v=v, u=u, j=j,
                )
            )
    rows.sort(key=lambda row: (row.t, row.vehicle_id))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The scheduler's predecessor scan, the run auditor and the trajectory CSV
# writer in their plain form: a forward scan over the whole queue, every
# vehicle pair classified, and each line through _fmt-style formatting and
# csv.writer.  The package's versions must agree with these exactly.  The
# sampled audit checks the same properties on the shared sample grid only:
# every finding it makes, the exact audit must make too.


def conflict_predecessors_forward(spec, q):
    """Latest queue entry per conflict class, by a full forward scan."""
    latest = {cls: None for cls in ConflictClass}
    for entry in q:
        latest[classify(entry.movement, spec.movement)] = entry
    return ConflictPredecessors(
        same_exit=latest[ConflictClass.SAME_EXIT],
        same_entry=latest[ConflictClass.SAME_ENTRY],
        lateral=latest[ConflictClass.LATERAL],
        fifo=latest[ConflictClass.NO_CONFLICT],
    )


def audit_pairwise(cfg, vehicles, samples, gap_tol=1e-3, time_tol=1e-6,
                   min_safe_distance=None):
    """The run audit with every time slice and every vehicle pair visited."""
    delta = cfg.geometry.min_safe_distance if min_safe_distance is None else min_safe_distance
    findings = []

    by_vehicle = {}
    for row in samples:
        by_vehicle.setdefault(row.vehicle_id, []).append(row)
    movements = {rec.spec.vehicle_id: rec.spec.movement for rec in vehicles}

    lane_pred = {}
    last_on_arm = {}
    for rec in vehicles:
        arm = rec.spec.movement.entry_arm
        if arm in last_on_arm:
            lane_pred[rec.spec.vehicle_id] = last_on_arm[arm]
        last_on_arm[arm] = rec.spec.vehicle_id
    for follower_id, leader_id in lane_pred.items():
        leader_rows = {
            row.t: row for row in by_vehicle.get(leader_id, ()) if row.zone == ZONE_CZ
        }
        for row in by_vehicle.get(follower_id, ()):
            if row.zone != ZONE_CZ:
                continue
            lead = leader_rows.get(row.t)
            if lead is None:
                continue
            gap = lead.p - row.p
            if gap < delta - gap_tol:
                findings.append(AuditFinding("cz_gap", follower_id, leader_id, row.t, gap, delta))
                break

    lateral_seen = set()
    slice_start = 0
    for idx in range(len(samples) + 1):
        if idx < len(samples) and samples[idx].t == samples[slice_start].t:
            continue
        time_slice = [row for row in samples[slice_start:idx] if row.zone == ZONE_MZ]
        for first_idx in range(len(time_slice)):
            for second_idx in range(first_idx + 1, len(time_slice)):
                a, b = time_slice[first_idx], time_slice[second_idx]
                pair = (a.vehicle_id, b.vehicle_id)
                if pair in lateral_seen:
                    continue
                cls = classify(movements[a.vehicle_id], movements[b.vehicle_id])
                if cls is ConflictClass.LATERAL:
                    lateral_seen.add(pair)
                    findings.append(
                        AuditFinding("mz_overlap", b.vehicle_id, a.vehicle_id, a.t, 0.0, 0.0)
                    )
        slice_start = idx

    for later_idx in range(len(vehicles)):
        later = vehicles[later_idx]
        for earlier_idx in range(later_idx):
            earlier = vehicles[earlier_idx]
            cls = classify(earlier.spec.movement, later.spec.movement)
            if cls is not ConflictClass.SAME_EXIT:
                continue
            required = earlier.mz.t1 + delta / earlier.schedule.vf
            actual = later.mz.t1
            if actual < required - time_tol:
                findings.append(
                    AuditFinding(
                        "exit_spacing",
                        later.spec.vehicle_id,
                        earlier.spec.vehicle_id,
                        actual,
                        actual - earlier.mz.t1,
                        delta / earlier.schedule.vf,
                    )
                )

    findings.sort(key=lambda f: (f.time, f.kind, f.vehicle_id, f.other_id))
    return AuditReport(findings=tuple(findings))


def audit_exact_pairwise(cfg, vehicles, time_tol=1e-6, min_safe_distance=None):
    """The exact run audit with every vehicle pair classified and each lane
    leader found by a full scan over the records."""
    delta = cfg.geometry.min_safe_distance if min_safe_distance is None else min_safe_distance
    findings = []

    for rec in vehicles:
        ahead = [
            other for other in vehicles
            if other.spec.movement.entry_arm is rec.spec.movement.entry_arm
            and other.spec.vehicle_id < rec.spec.vehicle_id
        ]
        if not ahead:
            continue
        leader = max(ahead, key=lambda other: other.spec.vehicle_id)
        found = gap_to(leader.cz)(rec.cz.coefficients, rec.cz.t0, rec.cz.t1)
        if found is not None and too_close(found[0], delta):
            gap, time = found
            findings.append(AuditFinding("cz_gap", rec.spec.vehicle_id,
                                         leader.spec.vehicle_id, time, gap, delta))

    for first in vehicles:
        for second in vehicles:
            if first.spec.vehicle_id >= second.spec.vehicle_id:
                continue
            cls = classify(first.spec.movement, second.spec.movement)
            if cls is ConflictClass.LATERAL:
                start = max(first.mz.t0, second.mz.t0)
                overlap = min(first.mz.t1, second.mz.t1) - start
                if overlap > time_tol:
                    findings.append(AuditFinding("mz_overlap", second.spec.vehicle_id,
                                                 first.spec.vehicle_id, start, overlap, 0.0))
            elif cls is ConflictClass.SAME_EXIT:
                required = first.mz.t1 + delta / first.schedule.vf
                actual = second.mz.t1
                if actual < required - time_tol:
                    findings.append(
                        AuditFinding("exit_spacing", second.spec.vehicle_id,
                                     first.spec.vehicle_id, actual, actual - first.mz.t1,
                                     delta / first.schedule.vf)
                    )

    findings.sort(key=lambda f: (f.time, f.kind, f.vehicle_id, f.other_id))
    return AuditReport(findings=tuple(findings))


def _fmt(value):
    return format(float(value), ".9g")


def trajectory_csv_by_writer(samples):
    """trajectories.csv text: every number through format(.9g), csv.writer lines."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "id", "arm", "turn", "zone", "p", "v", "u", "j"])
    writer.writerows(
        [_fmt(row.t), str(row.vehicle_id), row.arm, row.turn, row.zone,
         _fmt(row.p), _fmt(row.v), _fmt(row.u), _fmt(row.j)]
        for row in samples
    )
    return out.getvalue()


def plan_csv_by_writer(cz, mz, t0, tm, tf, step):
    """plan.csv text: csv.writer lines of the header and plan_rows_by_scalar."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "zone", "p", "v", "u", "j"])
    writer.writerows(plan_rows_by_scalar(cz, mz, t0, tm, tf, step))
    return out.getvalue()


def plan_rows_by_scalar(cz, mz, t0, tm, tf, step):
    """plan.csv rows, one scalar evaluation per clipped sample time."""
    rows = []
    for k in range(math.ceil((tf - t0) / step - 1e-9) + 1):
        t = min(t0 + k * step, tf)
        zone, traj = ("cz", cz) if t < tm else ("mz", mz)
        rows.append([_fmt(t), zone] + [
            _fmt(float(evaluate(t)))
            for evaluate in (traj.position, traj.speed, traj.control, traj.jerk)
        ])
    return rows


# ---------------------------------------------------------------------------
# The weighted merge solve and its costs one weight at a time, as the
# package did before it solved and costed a whole weight grid in one
# batched pass: six scalar basis evaluations and 24 scalar cubic rows per
# 6x6 system, one linear solve per weight, and one node evaluation and
# panel reduction per trajectory and cost.  The batched sweep must agree
# with it bit for bit.


def _remainder_scalar(x, k):
    x = np.asarray(x, dtype=float)
    x2 = x * x
    odd = k % 2
    numerator = np.sinh(x) if odd else np.cosh(x)
    even = 1.0
    for j in range(odd, k, 2):
        numerator = numerator - (even * x if odd else even) / math.factorial(j)
        even = even * x2
    power = even * x if odd else even
    series = 0.0
    for j in reversed(range(8)):
        series = series * x2 + 1.0 / math.factorial(k + 2 * j)
    small = np.abs(x) <= 0.5
    return np.where(small, series, numerator / np.where(small, 1.0, power))


def _basis_pair_scalar(regime, rate, width, tau, deriv):
    tau = np.asarray(tau, dtype=float)
    if regime == "layer":
        scale = rate**deriv
        return (scale * np.exp(-rate * (width - tau)),
                scale * np.exp(-rate * tau) * ((-1.0) ** deriv))
    x = rate * tau
    return (tau ** (4 - deriv) * _remainder_scalar(x, 4 - deriv),
            tau ** (5 - deriv) * _remainder_scalar(x, 5 - deriv))


def _cubic_scalar(poly, tau, order):
    factors = [math.perm(k, order) for k in range(4)]
    value = factors[3] * poly[3]
    for k in range(2, order - 1, -1):
        value = value * tau + factors[k] * poly[k]
    return value


def solve_weighted_by_weight(b, w, q1, q2):
    """One weighted merge trajectory: its own rate, regime, 6x6 system
    and linear solve."""
    width = b.duration
    rate = weighted_rate(w, q1, q2, width)
    regime = "series" if rate * width <= _REGIME_SPLIT else "layer"
    units = [[float(i == k) for i in range(4)] for k in range(4)]
    system = np.array([
        [*(_cubic_scalar(unit, tau, deriv) for unit in units),
         *map(float, _basis_pair_scalar(regime, rate, width, tau, deriv))]
        for tau in (0.0, width) for deriv in (0, 1, 2)
    ])
    rhs = np.array([b.p_start, b.vm, b.u_start, b.p_end, b.vf, b.u_end])
    solution = np.linalg.solve(system, rhs)
    poly = tuple(map(float, solution[:4]))
    beta = tuple(map(float, solution[4:]))
    coeffs = _canonical_weighted_coefficients(regime, rate, poly, beta, w, q1, q2, width)
    return MzTrajectory(
        t0=b.tm, t1=b.tf, coefficients=tuple(map(float, coeffs)), rate_pos=rate,
        w=w, q1=q1, q2=q2, _regime=regime, _poly=poly, _beta=beta,
    )


def derivative_by_scalar(traj, t, order):
    """The order-th derivative of a weighted trajectory's position at t:
    the scalar cubic plus the scalar basis pair."""
    tau = np.asarray(t, dtype=float) - traj.t0
    return _value_scalar(traj, tau, order)


def _value_scalar(traj, tau, order):
    b1, b2 = traj._beta
    head, tail = _basis_pair_scalar(traj._regime, traj.rate_pos, traj.duration, tau, order)
    return _cubic_scalar(traj._poly, tau, order) + b1 * head + b2 * tail


def half_square_by_trajectory(traj, order):
    """Half the integral of the order-th derivative squared over one
    weighted trajectory's window: its own panels and node evaluation."""
    nodes, weights = _LEGENDRE_NODES, _LEGENDRE_WEIGHTS
    width = traj.duration
    panels = int(min(600, max(3, math.ceil(traj.rate_pos * width / 10.0))))
    edges = np.linspace(0.0, width, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    tau = (traj.t0 + (mid[:, None] + half[:, None] * nodes)) - traj.t0
    values = _value_scalar(traj, tau, order)
    return 0.5 * float(half @ (values * values @ weights))


def sweep_by_weight(b, grid, q1, q2):
    """(w, trajectory, fuel, discomfort) for each weight of the grid, one
    solve and two quadratures per weight."""
    out = []
    for w in grid:
        traj = solve_weighted_by_weight(b, w, q1, q2)
        out.append((w, traj, half_square_by_trajectory(traj, 2),
                    half_square_by_trajectory(traj, 3)))
    return out


def frontier_by_pairs(points, tie_eps=1e-12):
    """Non-dominated subset under (fuel, discomfort) minimization, by
    comparing every pair in Python: cost ties within tie_eps keep only the
    lowest-w point; output ordered by w."""
    pts = list(points)
    kept = []
    for candidate in pts:
        dominated = False
        for other in pts:
            if other is candidate:
                continue
            if other.fuel <= candidate.fuel + tie_eps and (
                other.discomfort <= candidate.discomfort + tie_eps
            ):
                strictly_better = (
                    other.fuel < candidate.fuel - tie_eps
                    or other.discomfort < candidate.discomfort - tie_eps
                )
                tie_loser = (
                    abs(other.fuel - candidate.fuel) <= tie_eps
                    and abs(other.discomfort - candidate.discomfort) <= tie_eps
                    and other.w < candidate.w
                )
                if strictly_better or tie_loser:
                    dominated = True
                    break
        if not dominated:
            kept.append(candidate)
    kept.sort(key=lambda point: point.w)
    return tuple(kept)
