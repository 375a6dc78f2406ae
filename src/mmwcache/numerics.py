"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math

# Floating-point guard used when clamping arccos/arcsin arguments at
# geometric boundaries.
CLAMP_EPS = 1e-12

# The evaluations past which `adaptive_simpson` bisects no interval.
MAX_EVALS = 2 ** 20


def clamp_unit(x: float, eps: float = CLAMP_EPS) -> float:
    """Clamp x into [-1, 1], tolerating overshoot up to eps.

    Raises ValueError when x is outside [-1-eps, 1+eps]; values inside the
    tolerance band are snapped to the boundary.
    """
    if x > 1.0:
        if x > 1.0 + eps:
            raise ValueError(f"value {x!r} outside [-1, 1] beyond tolerance")
        return 1.0
    if x < -1.0:
        if x < -1.0 - eps:
            raise ValueError(f"value {x!r} outside [-1, 1] beyond tolerance")
        return -1.0
    return x


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""

    def __init__(self, message: str, value: float, achieved: float):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-9,
                     max_depth: int = 60) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    Bisects intervals until the local Simpson error estimate falls below the
    (distributed) absolute tolerance. Intended for smooth integrands; raises
    QuadratureError with the achieved error estimate when max_depth or
    MAX_EVALS is hit.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)

    worst, evals = [0.0], [3]

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        evals[0] += 2
        left = _simpson(a, fa, m, fm, flm)
        right = _simpson(m, fm, b, fb, frm)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol or depth >= max_depth or evals[0] >= MAX_EVALS:
            if abs(err) > tol:
                worst[0] = max(worst[0], abs(err))
            return left + right + err
        return (recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth + 1)
                + recurse(m, fm, b, fb, rm, frm, right, tol / 2.0, depth + 1))

    value = recurse(a, fa, b, fb, m, fm, whole, tol, 0)
    if worst[0] > 0.0:
        raise QuadratureError(
            f"quadrature tolerance {tol:g} not met (achieved {worst[0]:g})",
            value=value, achieved=worst[0])
    return value


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    a = math.fmod(angle, 2.0 * math.pi)
    if a < 0.0:
        a += 2.0 * math.pi
    # a negative angle within half an ulp of 0 rounds up to 2*pi, which is
    # 0 on the circle
    return 0.0 if a == 2.0 * math.pi else a
