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

The resolvent has a closed form in the Wright omega function w, the
solution of w + ln(w) = z: with 1 + |J| = eps*w,

    J_eps(x) = sign(x) * (eps * w((1 + |x|)/eps - ln(eps)) - 1),

and J_eps(x) = x/(1 + eps) to first order, used for |x| < 1e-8, where
eps*w - 1 loses J to cancellation.  It serves the public maps here and
the verifier; the solver's implicit step needs no resolvent, because it
takes u = J_eps(x) as its unknown and evaluates the flux as
signed_log(u) + eps*x with x = u + eps*signed_log(u).
"""

from __future__ import annotations

import numpy as np
from scipy.special import wrightomega

_LINEAR_BELOW = 1e-8


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


def signed_log(x):
    """sign(x) * ln(1 + |x|)."""
    arr, scalar = _prepare(x)
    return _output(np.sign(arr) * np.log1p(np.abs(arr)), scalar)


def potential(x):
    """Convex antiderivative of signed_log, normalized to vanish at 0."""
    arr, scalar = _prepare(x)
    a = np.abs(arr)
    return _output((a + 1.0) * np.log1p(a) - a, scalar)


def _resolvent(eps, arr: np.ndarray) -> np.ndarray:
    """Closed-form J_eps through Wright omega, linear near 0."""
    a = np.abs(arr)
    j = np.sign(arr) * (eps * wrightomega((1.0 + a) / eps - np.log(eps)) - 1.0)
    return np.where(a < _LINEAR_BELOW, arr / (1.0 + eps), j)


def _via_resolvent(eps, x, formula):
    """Validate eps and x, then return formula(eps, x, J_eps(x)) shaped like x."""
    _check_eps(eps)
    e = np.asarray(eps, dtype=float)
    arr, scalar = _prepare(x)
    return _output(formula(e, arr, _resolvent(e, arr)), scalar)


def _envelope(e, x, j):
    return (x - j) ** 2 / (2.0 * e) + potential(j)


def resolvent(eps, x):
    """Solve y + eps*signed_log(y) = x for y (elementwise).

    The root has the sign of x and |y| <= |x|; it is evaluated in
    closed form through the Wright omega function (module docstring).
    """
    return _via_resolvent(eps, x, lambda e, x, j: j)


def yosida(eps, x):
    """(x - resolvent(eps, x)) / eps; equals signed_log at the resolvent."""
    return _via_resolvent(eps, x, lambda e, x, j: (x - j) / e)


def moreau_envelope(eps, x):
    """(x - J)^2/(2 eps) + potential(J) with J = resolvent(eps, x).

    This closed form (via the resolvent) is the primary definition; the
    underlying minimization over y is kept as a test oracle only.
    """
    return _via_resolvent(eps, x, _envelope)


def yosida_shifted(eps, x):
    """yosida(eps, x) + eps*x, strictly monotone with slope >= eps."""
    return _via_resolvent(eps, x, lambda e, x, j: (x - j) / e + e * x)


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
