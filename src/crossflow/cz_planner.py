"""Polynomial trajectories, and closed-form fuel-minimal approach plans.

Every unconstrained optimum in this package that is a polynomial is a
Hermite interpolant: the polynomial of degree 2m-1 that matches position
and its first m-1 derivatives at both ends of a time window.  Minimizing
the squared-acceleration integral makes the control linear in time, so
the approach plan is the cubic (m = 2); the merge-zone planners take the
same closed-form coefficients, with no linear solve, for their fuel-only
cubic and jerk-only quintic (m = 3).  One PolyTrajectory type carries
all of them; its accessors are those of Trajectory, which the weighted
merge piece shares.  The checks of a plan, its bounds and its gap to a
lane leader, live in crossflow.audit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# kept until ROADMAP item 10: the benchmark traces check_feasibility by this module
from crossflow.audit import check_feasibility  # noqa: F401

_FACTORIAL = tuple(float(math.factorial(k)) for k in range(8))

# Gauss-Legendre rules on [-1, 1] by node count; n nodes integrate every
# polynomial of degree up to 2n - 1 exactly
_GAUSS = tuple(np.polynomial.legendre.leggauss(n) for n in range(1, 7))


def _horner(coeffs: Sequence[float], tau):
    """sum of coeffs[i] * tau^k / k!, k = len(coeffs) - 1 - i, by Horner:
    zero for no coefficients."""
    degree = len(coeffs) - 1
    if degree < 0:
        return np.zeros_like(tau)
    if degree == 0:
        return np.full_like(tau, coeffs[0])
    top = _FACTORIAL[degree]
    # dividing by 1 or 2 is exact, so the leading coefficient can be scaled
    # before it meets tau; by 6 or more it must be scaled after
    value = coeffs[0] / top * tau if top <= 2.0 else coeffs[0] * tau / top
    value = value + coeffs[1] / _FACTORIAL[degree - 1]
    for i in range(2, degree + 1):
        value = value * tau + coeffs[i] / _FACTORIAL[degree - i]
    return value


class Trajectory:
    """A position profile over the window [t0, t1]: its duration, and its
    position, speed, control and jerk at t, a scalar or an array, each
    the subclass's derivative(t, order) of that order."""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def position(self, t):
        return self.derivative(t, 0)

    def speed(self, t):
        return self.derivative(t, 1)

    def control(self, t):
        return self.derivative(t, 2)

    def jerk(self, t):
        return self.derivative(t, 3)


@dataclass(frozen=True)
class PolyTrajectory(Trajectory):
    """Polynomial position profile over the window [t0, t1].

    ``coefficients`` are the derivatives of position at t0, highest order
    first: (a, b, c, d) of a cubic are its jerk, control, speed and
    position at t0, so p = a*tau^3/6 + b*tau^2/2 + c*tau + d in shifted
    time tau = t - t0.  Shifting keeps large absolute times out of the
    coefficients and their rounding.  Positions are arc length
    from the control-zone entrance.
    """

    t0: float
    t1: float
    coefficients: Tuple[float, ...]

    def derivative(self, t, order: int):
        """The order-th derivative of position at t, a scalar or an array:
        zero for an order above the degree."""
        tau = np.asarray(t, dtype=float) - self.t0
        return _horner(self.coefficients[: max(len(self.coefficients) - order, 0)], tau)

    def half_square_integral(self, order: int) -> float:
        """Half the integral of the order-th derivative squared over the
        window, exact: a derivative of degree k is squared to degree 2k,
        which the (k+1)-node Gauss-Legendre rule integrates exactly.  Zero
        for an order above the degree."""
        coeffs = self.coefficients[: max(len(self.coefficients) - order, 0)]
        if not coeffs:
            return 0.0
        nodes, weights = _GAUSS[len(coeffs) - 1]
        half = 0.5 * self.duration
        values = _horner(coeffs, half * (1.0 + nodes))
        return 0.5 * half * float(np.dot(weights, values * values))


def _width(t0: float, t1: float, m: int) -> float:
    """The width of a Hermite window with m boundary values at each end:
    refused when the window is empty or m is not 2 or 3, and warned about
    when it is extremely short."""
    if not t1 > t0:
        raise ValueError(
            f"window end {t1} does not exceed its start {t0}: boundary system is singular"
        )
    if m not in (2, 3):
        raise ValueError(f"Hermite interpolation takes 2 or 3 boundary values, got {m}")
    w = t1 - t0
    if w < 1e-3:
        warnings.warn(
            f"window of {w:.3g} s is extremely short; the leading coefficient "
            f"grows as width^-{2 * m - 1}",
            RuntimeWarning,
            stacklevel=4,
        )
    return w


def _cubic(w: float, p0: float, v0: float, p1: float, v1: float) -> Tuple[float, ...]:
    """The cubic Hermite coefficients over a window of width w."""
    p0, v0, p1, v1 = float(p0), float(v0), float(p1), float(v1)
    r0, r1 = p1 - p0 - v0 * w, (v1 - v0) * w
    return ((6.0 * r1 - 12.0 * r0) / w**3, (6.0 * r0 - 2.0 * r1) / w**2, v0, p0)


def hermite(t0: float, t1: float, start: Sequence[float], end: Sequence[float]) -> PolyTrajectory:
    """The polynomial of degree 2m-1 whose position and first m-1
    derivatives take the m values ``start`` at t0 and ``end`` at t1, for
    m = 2 (cubic) or m = 3 (quintic), in closed form.  The start values
    are the low-order coefficients.  With W = t1 - t0, r_k is W^k times
    the gap between the k-th end value and the Taylor extrapolation of
    the start values, and the leading coefficients are fixed
    combinations of the r_k over powers of W."""
    w = _width(t0, t1, len(start))
    if len(start) == 2:
        return PolyTrajectory(t0, t1, _cubic(w, *start, *end))
    (p0, v0, u0), (p1, v1, u1) = map(float, start), map(float, end)
    r0 = p1 - (p0 + v0 * w + 0.5 * u0 * w * w)
    r1 = (v1 - (v0 + u0 * w)) * w
    r2 = (u1 - u0) * w * w
    coeffs = (
        60.0 * (12.0 * r0 - 6.0 * r1 + r2) / w**5,
        12.0 * (14.0 * r1 - 30.0 * r0 - 2.0 * r2) / w**4,
        3.0 * (20.0 * r0 - 8.0 * r1 + r2) / w**3,
    )
    return PolyTrajectory(t0, t1, (*coeffs, u0, v0, p0))


def approach_coefficients(
    t0: float, v0: float, tm: float, vm: float, length: float
) -> Tuple[float, ...]:
    """The coefficients of solve_cz's cubic, without the trajectory: all
    that a caller measuring candidate approaches needs of each."""
    return _cubic(_width(t0, tm, 2), 0.0, v0, length, vm)


def solve_cz(t0: float, v0: float, tm: float, vm: float, length: float) -> PolyTrajectory:
    """The fuel-minimal approach trajectory: the cubic with
    p(t0) = 0, v(t0) = v0, p(tm) = length, v(tm) = vm."""
    return PolyTrajectory(t0, tm, approach_coefficients(t0, v0, tm, vm, length))
