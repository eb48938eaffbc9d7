"""The monotone log nonlinearity and its Yosida/Moreau regularizations.

Everything here is a scalar map applied elementwise; array inputs are
accepted and broadcast.  The base graph is

    signed_log(x) = sign(x) * ln(1 + |x|),        signed_log(0) = 0,

with convex potential

    potential(x) = (|x| + 1) * ln(|x| + 1) - |x|,  0 <= potential(x) <= x^2.

For eps > 0 the resolvent J_eps solves y + eps*signed_log(y) = x; the
Yosida approximation is yosida(eps, x) = (x - J_eps(x)) / eps, which
coincides with signed_log(J_eps(x)).  The solver uses the shifted
variants yosida_shifted = yosida + eps*x and the matching potential
potential_shifted = moreau_envelope + eps*x^2/2, whose derivative is
exactly yosida_shifted.

The resolvent is found by Newton's method on |J| alone: with a = |x|,
g(y) = y + eps*ln(1 + y) - a is increasing and concave on y >= 0, and
the start y_0 = a/(1 + eps) has g(y_0) <= 0 since ln(1 + y) <= y.  A
Newton step from a point left of the root of a concave increasing g
moves right and, by concavity, lands again left of the root, so the
iterates rise monotonically to it.  The iteration stops once an iterate
no longer rises, which in rounding arithmetic happens within a few ulps
of the root, after 2-5 steps for eps <= 1; J takes the sign of x.  Below
the normal range that iteration cannot move by less than a subnormal
step, so a root there is rounded in exact rational arithmetic from
q = |x|/(1 + eps): the root exceeds q by a relative O(q), far less than
the gap from q to any rounding midpoint it is not on, so it rounds as q
does, except that a q on a midpoint rounds up (resolvent(1, 5e-324) is
5e-324, not 0).
yosida and yosida_shifted are then evaluated as signed_log(J) (+ eps*x),
which avoids the cancellation in (x - J)/eps.  The solver's implicit step
needs no resolvent, because it takes u = J_eps(x) as its unknown and
evaluates the flux as signed_log(u) + eps*x with x = u + eps*signed_log(u).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _check_eps(eps) -> None:
    e = np.asarray(eps, dtype=float)
    if not (np.all(np.isfinite(e)) and np.all(e > 0)):
        raise ValueError(f"eps must be positive and finite, got {eps}")


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input values must be finite")
    return arr, arr.ndim == 0


def _output(out, scalar: bool):
    return float(out) if scalar else np.asarray(out)


def _signed_log(v: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.log1p(np.abs(v))


def signed_log(x):
    """sign(x) * ln(1 + |x|)."""
    arr, scalar = _prepare(x)
    return _output(_signed_log(arr), scalar)


def potential(x):
    """Convex antiderivative of signed_log, normalized to vanish at 0."""
    arr, scalar = _prepare(x)
    a = np.abs(arr)
    return _output((a + 1.0) * np.log1p(a) - a, scalar)


_SMALLEST_NORMAL = 2.0**-1022


def _resolvent(eps, arr: np.ndarray) -> np.ndarray:
    """J_eps by Newton on |J| from |x|/(1 + eps), rising to a fixed point (module docstring)."""
    a = np.abs(arr)
    y = a / (1.0 + eps)
    while True:
        step = (a - y - eps * np.log1p(y)) / (1.0 + eps / (1.0 + y))
        y_next = y + step
        rising = y_next > y
        if not rising.any():
            break
        y = np.where(rising, y_next, y)
    tiny = (y < _SMALLEST_NORMAL) & (a > 0)
    if tiny.any():
        y = np.array(y)
        eps_tiny, a_tiny = (np.broadcast_to(v, y.shape)[tiny].tolist() for v in (eps, a))
        y[tiny] = [_subnormal_root(e, v) for e, v in zip(eps_tiny, a_tiny)]
    return np.copysign(y, arr)


def _subnormal_root(eps: float, a: float) -> float:
    """J_eps(a) for a > 0 whose root lies below the normal range, rounded correctly.

    Rounds q = a/(1 + eps) to a multiple of 2^-1074, a midpoint upwards (module docstring).
    """
    units = Fraction(a) / (1 + Fraction(eps)) * 2**1074
    whole = math.floor(units)
    return math.ldexp(whole + (units - whole >= Fraction(1, 2)), -1074)


def _via_resolvent(eps, x, formula):
    """Validate eps and x, then return formula(eps, x, J_eps(x)) broadcast over both:
    a float when eps and x are both scalars, else an array."""
    _check_eps(eps)
    e = np.asarray(eps, dtype=float)
    arr, scalar = _prepare(x)
    return _output(formula(e, arr, _resolvent(e, arr)), scalar and e.ndim == 0)


def _envelope(e, x, j):
    return (x - j) ** 2 / (2.0 * e) + potential(j)


def resolvent(eps, x):
    """Solve y + eps*signed_log(y) = x for y (elementwise).

    The root has the sign of x and |y| <= |x|; it is found by a
    monotone Newton iteration (module docstring).
    """
    return _via_resolvent(eps, x, lambda e, x, j: j)


def yosida(eps, x):
    """(x - resolvent(eps, x)) / eps, evaluated as signed_log at the resolvent."""
    return _via_resolvent(eps, x, lambda e, x, j: _signed_log(j))


def moreau_envelope(eps, x):
    """(x - J)^2/(2 eps) + potential(J) with J = resolvent(eps, x).

    This closed form (via the resolvent) is the primary definition; the
    underlying minimization over y is kept as a test oracle only.
    """
    return _via_resolvent(eps, x, _envelope)


def yosida_shifted(eps, x):
    """yosida(eps, x) + eps*x, strictly monotone with slope >= eps."""
    return _via_resolvent(eps, x, lambda e, x, j: _signed_log(j) + e * x)


def potential_shifted(eps, x):
    """moreau_envelope(eps, x) + eps*x^2/2; derivative is yosida_shifted."""
    return _via_resolvent(eps, x, lambda e, x, j: _envelope(e, x, j) + 0.5 * e * x**2)


def yosida_derivative(eps, x):
    """d/dx yosida(eps, x) = s/(1 + eps*s) with s = 1/(1 + |J|).

    Values lie in (0, 1/(1+eps)] subset of (0, 1/eps]; at x = 0 the
    value is 1/(1+eps).
    """

    def formula(e, x, j):
        slope = 1.0 / (1.0 + np.abs(j))
        return slope / (1.0 + e * slope)

    return _via_resolvent(eps, x, formula)
