"""The numerical routines of the flow-table build, on numpy alone.

Twins of the scipy routines the build used: ``solve_ivp``'s RK45 with
dense output and one terminal event, ``cumulative_simpson``, and the
coefficients of ``CubicHermiteSpline`` and ``PchipInterpolator``.  Each
computes what scipy computes in the same order (scipy 1.17): the array
routines make scipy's numpy calls on arrays of the same shapes, and RK45
steps its scalar state on Python floats but keeps scipy's numpy dot
products, which BLAS may evaluate with fused multiply-adds.  So the RK45
segments and the spline and quadrature arrays are scipy's bit for bit, and
building a table loads no scipy.  Only the parts the build uses are kept: a
scalar state, a forward solve from t = 0, one terminal upward crossing, 1-D
data.  The tests compare each routine with scipy's.

Two routines are the package's own.  The solve's dense output is one
formula, :func:`_dense`, evaluated on Python floats by
:func:`float_dense_output` and on arrays by :func:`array_dense_output`, bit
for bit alike; the event reads it too.  And :func:`first_root` is the one root
finder: the first float at which a nondecreasing function reaches zero,
for the event and for the flow table's time-solve stragglers.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .errors import ModelError

__all__ = ["rk45", "float_dense_output", "array_dense_output", "first_root",
           "cumulative_simpson", "hermite_coeffs", "pchip_coeffs"]


# --- bisection --------------------------------------------------------------


def first_root(f, lo, hi):
    """The first float r in (lo, hi] with f(r) >= 0, for f nondecreasing,
    elementwise over arrays lo < hi; hi where f < 0 on all of (lo, hi].

    f maps an array of points to an array of values.  Each pass halves the
    brackets at the float nearest their midpoints, keeping f < 0 at a moved
    lo and f >= 0 at a moved hi, until lo and hi are adjacent floats.  So
    for any f, f(r) >= 0 unless r is hi unmoved, and f < 0 at the float
    below r unless that is lo unmoved.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        mid = 0.5 * lo + 0.5 * hi  # the halves are exact, so mid rounds once
        wide = (lo < mid) & (mid < hi)  # else lo and hi are adjacent
        if not wide.any():
            return hi
        up = f(mid) >= 0.0
        hi = np.where(wide & up, mid, hi)
        lo = np.where(wide & ~up, mid, lo)


# --- RK45 ---------------------------------------------------------------------

# Dormand-Prince 5(4): scipy's RK45 tableau, error weights and dense-output matrix
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


# each stage's row of the tableau and node, as scipy's loop slices them
_STAGES = [(a[:s], float(c)) for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1)]


def _norm(x):
    """scipy's RMS ``common.norm`` of one element: ``np.linalg.norm`` is the
    square root of ``x.dot(x)``, so it under- and overflows as x * x does."""
    return math.sqrt(x * x)


def rk45(fun, t_bound, y0, rtol, atol, y_stop):
    """``solve_ivp(fun, (0, t_bound), [y0], method="RK45", rtol=rtol, atol=atol,
    dense_output=True, events=hit)`` for a scalar state, where ``hit`` is the
    terminal event ``y - y_stop`` crossed upward, as a segment table.

    ``fun(t, y)`` takes and returns floats (scipy's ``fun`` is
    ``lambda t, y: [fun(t, y[0])]``).  The state steps on Python floats, which
    round each elementwise operation as numpy does on shape-(1,) arrays; the
    stages stay a (7, 1) array, and their weighted sums stay numpy ``dot``
    calls on scipy's shapes, because BLAS may fuse their multiply-adds and
    plain floats cannot.  The solve runs forward, so t_bound must be
    positive; atol must be positive, since a zero error scale is a
    ZeroDivisionError on floats; and rtol must be at least 100 eps, where
    scipy would raise it.
    Returns the segment table
    ``(ts, segs)``: the solution's segment bounds and, per segment, the
    floats ``(t_old, h, y_old, q1, q2, q3, q4)`` of scipy's
    ``RkDenseOutput``, which :func:`_dense` evaluates.  All are scipy's bit
    for bit but an event end: the last bound is t_bound or, where the event
    stopped the solve, the first float of the last step at which
    :func:`_dense` reaches y_stop (:func:`first_root`), a few ulps from scipy's
    ``brentq`` root.
    ModelError if y0 is not finite or the step size falls below the spacing
    of floats (scipy's failure status).
    """
    t0, tf = 0.0, float(t_bound)
    y = float(y0)
    if not math.isfinite(y):
        raise ModelError("flow integration failed: the initial state must be finite")
    atol = float(atol)
    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, tf, f, rtol, atol)
    K = np.empty((7, 1))
    k = K[:, 0]  # K's column, for the stage stores
    KT = [K[:s].T for s in range(8)]  # K[:s].T, the left operand of scipy's dot products
    t = t0
    g = y - y_stop
    ts, segs = [t0], []
    while True:
        t_old, y_old = t, y
        t, y, f, h_abs = _step(fun, t, y, f, h_abs, tf, rtol, atol, k, KT)
        finished = t - tf >= 0
        Q = KT[7].dot(_P)
        seg = (t_old, t - t_old, y_old, *Q[0].tolist())
        end = t
        g_new = y - y_stop
        if g <= 0 and g_new >= 0:  # the terminal event, on the step's dense output
            end = float(first_root(lambda u: _dense(seg, u) - y_stop, t_old, t))
            finished = True
        g = g_new
        # like scipy, drop a segment whose end repeats the last bound
        if len(ts) == 1 or ts[-1] != end:
            ts.append(end)
            segs.append(seg)
        if finished:
            return ts, segs


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """scipy's ``select_initial_step`` for RK45 (error estimator order 4, no max step)."""
    interval_length = abs(t_bound - t0)
    scale = atol + abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _step(fun, t, y, f, h_abs, t_bound, rtol, atol, k, KT):
    """One accepted step of scipy's ``RungeKutta._step_impl``; fills the stages
    through k, the column of K, and takes their sums as ``KT[s] = K[:s].T``.

    Returns (t_new, y_new, f_new, next h_abs).  ModelError on scipy's
    failure, a step below ten times the spacing of floats at t.
    """
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            raise ModelError(f"flow integration failed: {_TOO_SMALL_STEP}")
        t_new = t + h_abs
        if t_new - t_bound > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)
        # rk_step
        k[0] = f
        for s, (a, c) in enumerate(_STAGES, start=1):
            dy = KT[s].dot(a).item() * h
            k[s] = fun(t + c * h, y + dy)
        y_new = y + h * KT[6].dot(_B).item()
        f_new = fun(t + h, y_new)
        k[6] = f_new
        # np.maximum's order: a NaN y_new (y is always finite) reaches the scale
        scale = atol + max(abs(y_new), abs(y)) * rtol
        error_norm = _norm(KT[7].dot(_E).item() * h / scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        rejected = True


def _dense(seg, t):
    """One segment's dense output at t, on floats or elementwise on arrays.

    scipy's ``RkDenseOutput`` value y_old + h * (Q . [x, x^2, x^3, x^4]),
    x = (t - t_old) / h, summed left to right instead of by its cumprod and
    dot, so the float and the array evaluation round alike; values can
    differ from scipy's in the last ulp.
    """
    t_old, h, y_old, q1, q2, q3, q4 = seg
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return h * (q1 * x + q2 * x2 + q3 * x3 + q4 * (x3 * x)) + y_old


def float_dense_output(table):
    """y(t) of the :func:`rk45` segment table on Python floats.

    Like scipy (side="left"), a time on a segment bound belongs to the
    segment that ends there; times outside the table read its end segments.
    """
    ts, segs = table
    last = len(segs) - 1
    return lambda t: _dense(segs[min(bisect_left(ts, t, 1) - 1, last)], t)


def array_dense_output(table):
    """The numpy twin of :func:`float_dense_output`: y at an array of times,
    in any order, by the same segment rule and formula, so bit for bit alike."""
    ts, segs = table
    ends = np.asarray(ts[1:])
    cols = np.asarray(segs).T
    last = len(segs) - 1

    def ys_at(t):
        k = np.minimum(np.searchsorted(ends, t, side="left"), last)
        return _dense([c[k] for c in cols], t)

    return ys_at


# --- cumulative Simpson -----------------------------------------------------------


def cumulative_simpson(y, x):
    """``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` for 1-D y
    and x of the same length >= 3.  ModelError unless x strictly increases."""
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ModelError("Input x must be strictly increasing.")
    h1 = _simpson_pieces(y, dx)
    h2 = np.flip(_simpson_pieces(np.flip(y), np.flip(dx)))
    pieces = np.empty(len(h1) + 1)
    pieces[:-1:2] = h1[::2]
    pieces[1::2] = h2[::2]
    pieces[-1] = h2[-1]  # the last interval only has the reversed formula
    res = np.cumsum(pieces)
    initial = np.zeros(1)
    res += initial
    return np.concatenate((initial, res))


def _simpson_pieces(y, dx):
    """Simpson integral over the first interval of each three-point window,
    unequal widths (scipy's ``_cumulative_simpson_unequal_intervals``)."""
    x21 = dx[:-1]
    x32 = dx[1:]
    f1 = y[:-2]
    f2 = y[1:-1]
    f3 = y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


# --- cubic Hermite and PCHIP coefficients ------------------------------------------


def hermite_coeffs(x, y, dydx):
    """The coefficients ``c`` (4, n-1), highest power first, of scipy's
    ``CubicHermiteSpline(x, y, dydx)``.  ModelError on data scipy refuses:
    fewer than two knots, knots not strictly increasing, a value not finite."""
    x, dx, y, dydx = _spline_data(x, y, dydx)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


def pchip_coeffs(x, y):
    """The coefficients of scipy's ``PchipInterpolator(x, y)``: Hermite
    coefficients with Fritsch-Butland slopes and Moler's one-sided end slopes."""
    x, hk, y = _spline_data(x, y)
    mk = (y[1:] - y[:-1]) / hk
    if y.shape[0] == 2:  # linear
        return hermite_coeffs(x, y, np.concatenate((mk, mk)))
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~condition] = 1.0 / whmean[~condition]
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    return hermite_coeffs(x, y, dk)


def _spline_data(x, *values):
    """(x, diff(x), *values) as float arrays after scipy's ``prepare_input`` checks."""
    x = np.asarray(x, dtype=float)
    values = [np.asarray(v, dtype=float) for v in values]
    if x.ndim != 1 or x.shape[0] < 2 or any(v.shape != x.shape for v in values):
        raise ModelError("spline data must be 1-D arrays of one length >= 2")
    if not all(np.all(np.isfinite(a)) for a in (x, *values)):
        raise ModelError("spline data must contain only finite values")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ModelError("spline knots must be strictly increasing")
    return (x, dx, *values)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (scipy's ``_edge_case``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d
