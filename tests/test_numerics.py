"""The flow build's numerical routines against scipy's, bit for bit.

scipy stays installed as the oracle: the package's build no longer calls it.
The RK45 solve is compared on the build's own drifts in test_flow.py.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq

from pdmpval import _numerics
from pdmpval.errors import ModelError


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _outcome(solve, *args, **kwargs):
    """The root as ``float.hex``, or the type and message of the error raised."""
    try:
        return float(solve(*args, **kwargs)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _families(rng):
    """A random root-finding problem: f and a bracket around its root."""
    c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
    kind = rng.integers(6)
    f = [
        lambda x: math.tanh(s * (x - c)),
        lambda x: (x - c) ** 3 + 1e-3 * (x - c),
        lambda x: math.expm1(x - c),
        lambda x: 1e-200 * (x - c),  # products of f values underflow
        lambda x: math.atan(s * (x - c)) + 0.3 * math.sin(7.0 * x),
        lambda x: -math.copysign(abs(x - c) ** 0.25, x - c),
    ][kind]
    return f, c - rng.uniform(1e-3, 4.0), c + rng.uniform(1e-3, 4.0)


class TestBrentq:
    def test_random_brackets(self):
        rng = np.random.default_rng(11)
        for _ in range(5_000):
            f, a, b = _families(rng)
            xtol = float(rng.choice([2e-12, 1e-14, 1e-6, 4 * np.finfo(float).eps]))
            want = _outcome(brentq, f, a, b, xtol=xtol)
            assert _outcome(_numerics.brentq, f, a, b, xtol=xtol) == want

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0), (1.0, 1.0)])
    def test_root_at_an_endpoint(self, a, b):
        f = lambda x: x - 1.0
        assert _outcome(_numerics.brentq, f, a, b) == _outcome(brentq, f, a, b)
        assert _numerics.brentq(f, a, b) == 1.0

    def test_same_sign_rejected(self):
        f = lambda x: x * x + 1.0
        assert _outcome(_numerics.brentq, f, -1.0, 2.0) == _outcome(brentq, f, -1.0, 2.0)
        with pytest.raises(ValueError, match="different signs"):
            _numerics.brentq(f, -1.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            _numerics.brentq(lambda x: math.nan, 0.0, 1.0)

    def test_no_convergence_raises(self):
        f = lambda x: math.tanh(50.0 * (x - 0.3))
        assert (_outcome(_numerics.brentq, f, 0.0, 1.0, maxiter=3)
                == _outcome(brentq, f, 0.0, 1.0, maxiter=3))
        with pytest.raises(RuntimeError, match="converge after 3 iterations"):
            _numerics.brentq(f, 0.0, 1.0, maxiter=3)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10, 11, 100, 1001])
    def test_random_unequal_grids(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = np.cumsum(rng.uniform(1e-3, 2.0, n)) - 1.0
            y = rng.normal(size=n) * rng.choice([0.0, 1.0], n)  # zero runs
            assert _same_bits(_numerics.cumulative_simpson(y, x),
                              cumulative_simpson(y, x=x, initial=0.0))

    def test_x_must_increase(self):
        with pytest.raises(ModelError, match="increasing"):
            _numerics.cumulative_simpson(np.ones(3), np.array([0.0, 1.0, 1.0]))


def _spline_data(rng, n):
    """Knots with unequal gaps and values with flat runs and sign changes."""
    x = np.cumsum(rng.uniform(1e-3, 2.0, n))
    y = np.round(rng.normal(size=n)) * rng.choice([0.0, 1.0, 1.0], n)
    return x, y, rng.normal(size=n)


class TestSplineCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 200])
    def test_hermite_and_pchip(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(40):
            x, y, dydx = _spline_data(rng, n)
            assert _same_bits(_numerics.hermite_coeffs(x, y, dydx),
                              CubicHermiteSpline(x, y, dydx).c)
            assert _same_bits(_numerics.pchip_coeffs(x, y), PchipInterpolator(x, y).c)

    def test_monotone_data(self):
        # the flow table's case: a nondecreasing integral with a zero stretch
        x = np.linspace(0.0, 5.0, 41)
        y = np.concatenate([np.zeros(20), np.cumsum(np.linspace(0.1, 1.0, 21))])
        assert _same_bits(_numerics.pchip_coeffs(x, y), PchipInterpolator(x, y).c)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
        ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0]),
        ([0.0], [1.0]),
    ], ids=["repeated-knot", "unsorted", "nan-knot", "inf-value", "one-point"])
    def test_bad_data_rejected(self, x, y):
        with pytest.raises(ModelError):
            _numerics.pchip_coeffs(x, y)
        with pytest.raises(ModelError):
            _numerics.hermite_coeffs(x, y, np.ones(len(x)))

    def test_non_finite_slope_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            _numerics.hermite_coeffs([0.0, 1.0], [0.0, 1.0], [1.0, np.inf])


def _scipy_rk45(fun, t_bound, y0, rtol, atol, y_stop):
    """scipy's solve of the problem ``_numerics.rk45`` gets: ``fun`` maps
    floats to a float, scipy's takes and returns shape-(1,) states."""
    hit = lambda t, y: y[0] - y_stop
    hit.terminal, hit.direction = True, 1.0
    return solve_ivp(lambda t, y: [fun(t, y[0])], (0.0, t_bound), [y0], method="RK45",
                     rtol=rtol, atol=atol, dense_output=True, events=hit)


class TestRk45Event:
    def test_random_event_stops_bit_identical(self):
        # the event time is a brentq root on the last step's dense output, so
        # a solve that stops at the event pins both
        rng = np.random.default_rng(21)
        for _ in range(40):
            a, b, c = rng.uniform(0.6, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.3)
            fun = lambda t, y, a=a, b=b, c=c: a + b * math.sin(y) + c * y ** 2
            y_stop, rtol = rng.uniform(0.5, 5.0), float(rng.choice([1e-10, 1e-6, 1e-3]))
            sol = _scipy_rk45(fun, 100.0, 0.0, rtol, rtol * 1e-2, y_stop)
            ts, segs = _numerics.rk45(fun, 100.0, 0.0, rtol, rtol * 1e-2, y_stop)
            assert sol.status == 1
            assert _same_bits(ts, sol.sol.ts) and _same_bits(ts[-1], sol.t_events[0][0])
            assert _same_bits(segs, [(sp.t_old, sp.h, sp.y_old[0], *sp.Q[0])
                                     for sp in sol.sol.interpolants])


class TestRk45Failures:
    def test_too_small_step_is_a_model_error(self):
        # a drift that turns NaN at y = 0.5: every step past it is rejected
        # until the step is below the spacing of floats
        fun = lambda t, y: 1.0 if y <= 0.5 else math.nan
        sol = _scipy_rk45(fun, 10.0, 0.0, 1e-10, 1e-12, 2.0)
        assert sol.status == -1
        with pytest.raises(ModelError, match="flow integration failed") as err:
            _numerics.rk45(fun, 10.0, 0.0, 1e-10, 1e-12, 2.0)
        assert sol.message in str(err.value)

    def test_non_finite_start_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            _numerics.rk45(lambda t, y: 1.0, 10.0, math.nan, 1e-10, 1e-12, 2.0)

    def test_stops_at_the_bound_without_the_event(self):
        fun = lambda t, y: 1.0 + 0.1 * y
        sol = _scipy_rk45(fun, 3.0, 0.5, 1e-10, 1e-12, 100.0)
        ts, segs = _numerics.rk45(fun, 3.0, 0.5, 1e-10, 1e-12, 100.0)
        assert sol.status == 0 and ts[-1] == 3.0
        assert _same_bits(ts, sol.sol.ts)
        assert _same_bits([s[3:] for s in segs], [sp.Q[0] for sp in sol.sol.interpolants])
