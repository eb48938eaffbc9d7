"""Scalar nonlinearity: signed log, convex potential, and smoothed maps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from logdiff.nonlinearity import (
    moreau_envelope,
    potential,
    potential_shifted,
    resolvent,
    signed_log,
    yosida,
    yosida_derivative,
    yosida_shifted,
)

finite_x = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
eps_range = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


def bisect_resolvent(eps: float, x: float, tol: float = 1e-14) -> float:
    """Independent oracle: plain bisection on y + eps*psi(y) - x."""
    lo, hi = (0.0, x) if x >= 0 else (x, 0.0)
    f = lambda y: y + eps * np.sign(y) * np.log(abs(y) + 1.0) - x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestSignedLog:
    def test_known_values(self):
        assert signed_log(0.0) == 0.0
        assert abs(signed_log(np.e - 1.0) - 1.0) < 1e-14
        assert abs(signed_log(-(np.e**2 - 1.0)) + 2.0) < 1e-14

    @given(finite_x)
    def test_odd(self, x):
        assert signed_log(-x) == -signed_log(x)

    @given(finite_x, finite_x)
    def test_increasing(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        assert signed_log(lo) <= signed_log(hi)
        # strict once the gap is resolvable in floating point
        if hi - lo > 1e-9 * (1.0 + abs(lo) + abs(hi)):
            assert signed_log(lo) < signed_log(hi)

    def test_vectorized(self):
        x = np.array([0.0, np.e - 1.0, -(np.e - 1.0)])
        out = signed_log(x)
        assert out.shape == (3,)
        assert np.allclose(out, [0.0, 1.0, -1.0])


class TestPotential:
    def test_known_values(self):
        assert potential(0.0) == 0.0
        assert abs(potential(np.e - 1.0) - 1.0) < 1e-14

    @given(finite_x)
    def test_even_nonnegative_quadratic_bound(self, x):
        g = potential(x)
        assert g == potential(-x)
        assert 0.0 <= g <= x * x + 1e-15

    def test_superlinear_growth(self):
        ratios = [potential(v) / v for v in (1e2, 1e4, 1e6)]
        assert ratios[0] < ratios[1] < ratios[2]

    @given(finite_x, finite_x)
    def test_convexity_midpoint(self, a, b):
        mid = potential(0.5 * (a + b))
        assert mid <= 0.5 * (potential(a) + potential(b)) + 1e-12


def longdouble_maps(eps: float, x: np.ndarray):
    """Oracle: resolvent, yosida and yosida_shifted by Newton in np.longdouble."""
    e, xl = np.longdouble(eps), np.asarray(x, dtype=np.longdouble)
    a = np.abs(xl)
    y = a / (1 + e)
    for _ in range(60):  # quadratic convergence from the left; extra steps change nothing
        y = y + (a - y - e * np.log1p(y)) / (1 + e / (1 + y))
    s = np.sign(xl) * np.log1p(y)
    return np.sign(xl) * y, s, s + e * xl


class TestResolvent:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0])
    def test_maps_within_a_few_ulps_of_a_longdouble_oracle(self, eps):
        mags = np.logspace(-12, 12, 481)
        x = np.concatenate([mags, -mags])
        oracle = longdouble_maps(eps, x)
        for got, want in zip((resolvent(eps, x), yosida(eps, x), yosida_shifted(eps, x)), oracle):
            rel = np.abs((got.astype(np.longdouble) - want) / want)
            assert np.max(rel) <= 4 * np.finfo(float).eps

    def test_known_values(self):
        assert resolvent(1.0, 0.0) == 0.0
        assert abs(resolvent(1.0, np.e) - (np.e - 1.0)) < 1e-12

    def test_against_bisection_oracle(self):
        for eps, x in [(0.5, 10.0), (1e-3, 42.0), (1.0, -7.5), (0.25, 0.3)]:
            y = resolvent(eps, x)
            oracle = bisect_resolvent(eps, x)
            assert abs(y - oracle) < 1e-12 * max(1.0, abs(x))

    @given(eps_range, finite_x)
    @example(eps=1.0, x=5e-324)
    @example(eps=1.0, x=-5e-324)
    def test_residual_sign_and_contraction(self, eps, x):
        y = resolvent(eps, x)
        assert abs(y + eps * signed_log(y) - x) <= 1e-12 * max(1.0, abs(x))
        assert np.sign(y) == np.sign(x)
        assert abs(y) <= abs(x) + 1e-15

    @given(eps_range, finite_x, finite_x)
    def test_nonexpansive(self, eps, a, b):
        assert abs(resolvent(eps, a) - resolvent(eps, b)) <= abs(a - b) + 1e-12

    def test_subnormal_roots_are_rounded_correctly(self):
        # the root exceeds q = x/(1 + eps) by a relative O(q): it rounds as q does, and
        # a q halfway between two subnormals rounds up (ties to even would give 0 and 2)
        tiny = 2.0**-1074
        cases = [(1.0, 1, 1), (1.0, 5, 3), (1.0, 7, 4), (0.5, 1, 1), (3.0, 1, 0), (3.0, 2, 1),
                 (1e-3, 2**40 + 1, 1098413214562)]  # the last q is 1098413214562.44 units
        for eps, units, want in cases:
            assert resolvent(eps, units * tiny) == want * tiny
            assert resolvent(eps, -units * tiny) == -want * tiny
            assert np.signbit(resolvent(eps, -units * tiny))
        x = np.array([5.0, -7.0, 2.0**60, 1.0]) * tiny  # 2^60 units: a normal root, Newton's
        assert np.array_equal(resolvent(1.0, x), np.array([3.0, -4.0, 2.0**59, 1.0]) * tiny)

    def test_rejects_bad_eps_and_nonfinite(self):
        with pytest.raises(ValueError):
            resolvent(0.0, 1.0)
        with pytest.raises(ValueError):
            resolvent(-1.0, 1.0)
        with pytest.raises(ValueError):
            resolvent(1.0, np.nan)

    def test_array_input(self):
        x = np.linspace(-50, 50, 101)
        y = resolvent(0.1, x)
        assert y.shape == x.shape
        assert np.max(np.abs(y + 0.1 * signed_log(y) - x)) < 1e-12 * 50

    @pytest.mark.parametrize("f", [resolvent, yosida, yosida_shifted, moreau_envelope,
                                   potential_shifted, yosida_derivative])
    @pytest.mark.parametrize("eps, x", [
        (np.array([1.0, 0.5, 1e-3]), 2.0),
        (np.array([[1.0], [0.1]]), np.array([-3.0, 0.0, 5e-324])),
        (0.25, np.array([-1.5, 40.0])),
    ], ids=["array-eps", "broadcast", "array-x"])
    def test_array_eps_broadcasts_like_the_scalar_calls(self, f, eps, x):
        e, a = np.broadcast_arrays(eps, x)
        out = f(eps, x)
        assert isinstance(out, np.ndarray) and out.shape == e.shape
        expected = np.array([f(float(ei), float(ai)) for ei, ai in zip(e.flat, a.flat)])
        assert np.array_equal(out.ravel().view(np.int64), expected.view(np.int64))
        assert isinstance(f(0.5, 2.0), float)


class TestYosida:
    def test_known_values(self):
        assert yosida(1.0, 0.0) == 0.0
        assert abs(yosida(1.0, np.e) - 1.0) < 1e-12

    @given(eps_range, finite_x)
    def test_two_formulas_agree(self, eps, x):
        # psi(J), as evaluated, vs (x - J)/eps
        assert abs(yosida(eps, x) - (x - resolvent(eps, x)) / eps) < 1e-10

    @given(eps_range, finite_x)
    def test_standard_bounds(self, eps, x):
        v = yosida(eps, x)
        assert abs(v) <= abs(signed_log(x)) + 1e-12
        assert abs(v) <= abs(x) / eps + 1e-12

    @given(eps_range, finite_x, finite_x)
    def test_monotone(self, eps, a, b):
        assert (yosida(eps, a) - yosida(eps, b)) * (a - b) >= -1e-12

    def test_pointwise_convergence_monotone(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-100, 100, 100)
        gaps = np.stack(
            [np.abs(yosida(e, x) - signed_log(x)) for e in (1.0, 0.1, 0.01, 0.001)]
        )
        assert np.all(np.diff(gaps, axis=0) <= 1e-12)


class TestShifted:
    def test_known_values(self):
        assert yosida_shifted(1.0, 0.0) == 0.0
        assert potential_shifted(1.0, 0.0) == 0.0
        assert abs(yosida_shifted(1.0, np.e) - (1.0 + np.e)) < 1e-12

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(23)
        step = 1e-5
        for _ in range(200):
            eps = rng.uniform(1e-2, 1.0)
            x = rng.uniform(-50, 50)
            if abs(x) < 0.1:
                continue
            approx = (
                potential_shifted(eps, x + step) - potential_shifted(eps, x - step)
            ) / (2 * step)
            exact = yosida_shifted(eps, x)
            assert abs(approx - exact) < 1e-6 * max(1.0, abs(exact))

    @given(eps_range, finite_x, finite_x)
    def test_strong_monotonicity(self, eps, a, b):
        lhs = (yosida_shifted(eps, a) - yosida_shifted(eps, b)) * (a - b)
        assert lhs >= eps * (a - b) ** 2 - 1e-10

    @given(eps_range, finite_x, finite_x)
    def test_subdifferential_inequality(self, eps, x, y):
        lhs = yosida_shifted(eps, x) * (x - y)
        rhs = potential_shifted(eps, x) - potential_shifted(eps, y)
        assert lhs >= rhs - 1e-10


class TestMoreauEnvelope:
    def test_known_values(self):
        assert moreau_envelope(1.0, 0.0) == 0.0
        assert abs(moreau_envelope(1.0, np.e) - 1.5) < 1e-12

    def test_against_minimization_oracle(self):
        for eps, x in [(0.5, 3.0), (0.1, -8.0), (1.0, 20.0), (0.01, 0.5)]:
            res = minimize_scalar(
                lambda y: (x - y) ** 2 / (2 * eps) + potential(y),
                bracket=(0.0, x) if x != 0 else None,
                method="brent",
                options={"xtol": 1e-12},
            )
            assert abs(moreau_envelope(eps, x) - res.fun) < 1e-9 * max(1.0, abs(res.fun))

    @given(eps_range, finite_x)
    def test_sandwich(self, eps, x):
        j = resolvent(eps, x)
        env = moreau_envelope(eps, x)
        assert potential(j) <= env + 1e-12
        assert env <= potential(x) + 1e-12


class TestYosidaDerivative:
    def test_known_values(self):
        for eps in (0.1, 0.5, 1.0):
            assert abs(yosida_derivative(eps, 0.0) - 1.0 / (1.0 + eps)) < 1e-14
        assert abs(yosida_derivative(1.0, np.e) - 1.0 / (np.e + 1.0)) < 1e-12

    def test_vanishes_at_infinity(self):
        assert yosida_derivative(0.5, 1e8) < 1e-6
        assert yosida_derivative(0.5, -1e8) < 1e-6

    @given(eps_range, finite_x)
    def test_positive_bounded(self, eps, x):
        d = yosida_derivative(eps, x)
        assert 0.0 < d <= 1.0 / eps

    def test_matches_central_difference_of_yosida(self):
        rng = np.random.default_rng(29)
        step = 1e-5
        for _ in range(100):
            eps = rng.uniform(1e-2, 1.0)
            x = rng.uniform(-50, 50)
            approx = (yosida(eps, x + step) - yosida(eps, x - step)) / (2 * step)
            assert abs(approx - yosida_derivative(eps, x)) < 1e-5
