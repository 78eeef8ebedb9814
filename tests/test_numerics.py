"""The flow build's numerical routines against scipy's: bit for bit, but for
the RK45 event end and the root finder, which is the package's own rule.

scipy stays installed as the oracle: the package's build no longer calls it.
The RK45 solve is compared on the build's own drifts in test_flow.py.
"""

import ast
import math
from pathlib import Path

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


def _families(rng, n):
    """n random root-finding problems of one kind: f on arrays, nondecreasing
    but for the sine kind, and brackets (a, b) around its root."""
    c, s = rng.uniform(-3.0, 3.0, n), rng.uniform(0.1, 5.0, n)
    kind = rng.integers(6)
    f = [
        lambda x: np.tanh(s * (x - c)),
        lambda x: (x - c) ** 3 + 1e-3 * (x - c),
        lambda x: np.expm1(x - c),
        lambda x: 1e-200 * (x - c),  # values near the underflow
        lambda x: np.arctan(s * (x - c)) + 0.3 * np.sin(7.0 * x),
        lambda x: np.copysign(np.abs(x - c) ** 0.25, x - c),
    ][kind]
    return kind, f, c - rng.uniform(1e-3, 4.0, n), c + rng.uniform(1e-3, 4.0, n)


class TestFirstRoot:
    def test_random_brackets(self):
        # any f with f(a) < 0 <= f(b) gets a root r with f(r) >= 0 and f < 0
        # at the float below it; a nondecreasing f gets scipy's root to brentq's
        # tolerance
        rng = np.random.default_rng(11)
        for _ in range(200):
            kind, f, a, b = _families(rng, 25)
            r = _numerics.first_root(f, a, b)
            ok = (f(a) < 0.0) & (f(b) >= 0.0)
            assert ok.any()
            assert np.all((a < r) & (r <= b))
            assert np.all(f(r)[ok] >= 0.0) and np.all(f(np.nextafter(r, -np.inf))[ok] < 0.0)
            if kind != 4:
                for i in np.flatnonzero(ok):
                    root = brentq(lambda x: float(f(np.full(25, x))[i]), a[i], b[i], xtol=1e-14)
                    assert abs(r[i] - root) <= 1e-14 + 8.0 * np.finfo(float).eps * abs(root)

    def test_root_at_an_end_and_no_root(self):
        f = lambda x: x - 1.0
        lo = np.array([0.0, 1.0, -2.0, 3.0, 1.0])
        hi = np.array([1.0, 3.0, 0.5, 4.0, np.nextafter(1.0, 2.0)])
        # root at hi; root at lo, so lo's neighbour; no root, so hi; f >= 0
        # everywhere, so lo's neighbour; adjacent lo and hi, so hi
        want = [1.0, np.nextafter(1.0, 2.0), 0.5, np.nextafter(3.0, 4.0),
                np.nextafter(1.0, 2.0)]
        assert _same_bits(_numerics.first_root(f, lo, hi), want)

    def test_scalar_bracket(self):
        r = _numerics.first_root(lambda x: x - 1.0 / 3.0, 0.0, 1.0)
        assert r.shape == () and r == 1.0 / 3.0


class TestBrentq:
    """first_root on the brackets that scipy's brentq answers at an end or
    refuses: the package's root finder is held to the oracle's edge cases."""

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0), (1.0, 1.0)])
    def test_root_at_an_endpoint(self, a, b):
        f = lambda x: x - 1.0
        root = brentq(f, a, b)
        assert root == 1.0
        # first_root searches (a, b], so a root at a < b moves to a's neighbour
        want = np.nextafter(root, np.inf) if root == a < b else root
        r = _numerics.first_root(f, a, b)
        assert _same_bits(r, want) and f(r) >= 0.0

    def test_same_sign_rejected(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(ValueError, match="different signs"):
            brentq(f, -1.0, 2.0)
        # no sign change shows in first_root's answer: lo's neighbour where
        # f >= 0 on the whole bracket, hi where f < 0 on it
        assert _same_bits(_numerics.first_root(f, -1.0, 2.0), np.nextafter(-1.0, 2.0))
        assert _same_bits(_numerics.first_root(lambda x: -f(x), -1.0, 2.0), 2.0)


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
        # every segment and every bound but the event end are scipy's bit for
        # bit; the end is the first float of the last step at which the
        # dense output reaches y_stop, within 3 ulps of scipy's brentq root
        rng = np.random.default_rng(21)
        for _ in range(40):
            a, b, c = rng.uniform(0.6, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.3)
            fun = lambda t, y, a=a, b=b, c=c: a + b * math.sin(y) + c * y ** 2
            y_stop, rtol = rng.uniform(0.5, 5.0), float(rng.choice([1e-10, 1e-6, 1e-3]))
            sol = _scipy_rk45(fun, 100.0, 0.0, rtol, rtol * 1e-2, y_stop)
            ts, segs = _numerics.rk45(fun, 100.0, 0.0, rtol, rtol * 1e-2, y_stop)
            assert sol.status == 1
            assert _same_bits(ts[:-1], sol.sol.ts[:-1])
            assert _same_bits(segs, [(sp.t_old, sp.h, sp.y_old[0], *sp.Q[0])
                                     for sp in sol.sol.interpolants])
            end, want = ts[-1], sol.t_events[0][0]
            assert abs(end - want) <= 3.0 * np.spacing(want)
            y = _numerics.array_dense_output((ts, segs))
            assert y(np.array([end])) >= y_stop > y(np.array([np.nextafter(end, 0.0)]))


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


def test_every_export_has_a_caller():
    # a routine whose last caller in the package goes must go too
    imported = set()
    for path in Path(_numerics.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "_numerics":
                imported.update(alias.name for alias in node.names)
    assert set(_numerics.__all__) <= imported
