"""Master-trajectory flow table for autonomous scalar drifts.

The drift of the smoothed loan model is autonomous, scalar and nonnegative,
so every trajectory is a time shift of one master curve.  We solve the ODE
once (adaptive RK45), sample its dense output on a curvature-adapted grid,
and answer every flow / reward query through two lookups:

    flow(y, t)  =  P(T(y) + t)

with P a shape-preserving monotone cubic in time and T(y) the inverse of P:
a cubic Hermite of t(y) with the exact slopes 1/drift(y) (accurate to about
1e-11) polished by one Newton step on P, with a residual check and a
bisection fallback, so the semigroup identity holds to machine precision.

The build runs on numpy alone, on :mod:`pdmpval._numerics`: the RK45
segment table, the reward quadrature and the spline coefficients are
scipy's bit for bit; the grid march and the grid's positions read the
segment table through one dense-output formula, and the straggler fallback
is that module's one bisection.  So a build and an estimate load no scipy.
The lookups evaluate the coefficients with scipy's interval rule and
summation order, so every value is bit-identical to calling scipy's splines.

Every query but ``pos_at(u)`` runs the lookup chain of :class:`FlowTable`,
whose interval lookups are guide tables (:class:`_Guide`), not binary
searches.

The discounted running-reward integral is tabulated on the first knots of
the trajectory grid, up to the tail anchor (the first knot in the 1e-6
barrier band), so the table derives the reward grid and the anchor from the
integral's length.  Past the anchor the reward rate is frozen and the
remaining integral is closed form, which also keeps every exp() argument
bounded.  A reward that is zero up to some time (the loan dividends start
at b - 2 eps) leaves a leading stretch of reward intervals with all-zero
coefficients; a point whose end time lies in it has collected exactly +0.0,
so the reward formulas run only on the other points (about 2% of a 32-jump
estimate's).  The build refuses a reward whose rate varies across that
frozen stretch by more than 1% of its supremum, and a drift that is not
finite on the domain.

The time grid is marched one step at a time on Python floats from a bound on
the trajectory's third derivative, with a step cap and fine steps in windows
around the features, found by bisection over their sorted ends.  Most of the
barrier tail is one run of capped steps: there each capped step predicts the
next times by adding the cap, as the loop would, and one array pass of the
same step rule takes the prefix of them that is certainly capped, so the
grid is the scalar loop's bit for bit at about a quarter of the drift calls.
A batch that takes nothing is not retried until a step falls below the cap.
A march that hits the solver's time cap ends short of the upper end by
``end_gap``, and so does a path that stalls below float resolution: the
grid ends at its first stalled node.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._numerics import (array_dense_output, cumulative_simpson, first_root, float_dense_output,
                        hermite_coeffs, pchip_coeffs, rk45)
from .errors import InputError, ModelError

__all__ = ["FlowTable", "build_flow_table"]

_PROXIMITY = 1e-12       # build stops within this fraction of the span from the top
_TAIL_BAND = 1e-6        # reward rate frozen within this fraction of the span
_TAIL_RATE_TOL = 0.01    # largest spread of the frozen reward rate, as a fraction of its supremum
_START_OFFSET = 1e-8     # start this fraction of the span above the lower end
_POS_TOL = 1e-9          # grid march: target cubic interpolation error in position
_H_CAP = 2.0             # grid march: largest time step
_BATCH_MIN = 64          # grid march: predicted capped steps in a run's first batch
_BATCH_MAX = 8192        # grid march: most predicted capped steps in one batch
_BATCH_MARGIN = 1e-3     # grid march: relative margin by which a batched step clears the cap
_MAX_NODES = 2_000_000   # grid march: most grid nodes before the build gives up
_STENCIL = 1e-3          # grid march: drift difference step, as a fraction of the feature scale
_RESID_TOL = 1e-11       # time_of: largest position residual, as a fraction of the span
_GUIDE_SLOTS = 3         # guide table: most slots per knot
_RK_TOL = 1e-10          # RK45 relative tolerance of the master-trajectory solve
_EPS = float(np.finfo(float).eps)


@dataclass
class FlowTable:
    """Tabulated master trajectory with both parameterisations.

    grid_t / grid_y trace the trajectory from y_start toward the upper domain
    end; reward_cum holds the cumulative discounted reward integral along the
    master clock at the first len(reward_cum) >= 2 knots, reward_t, up to the
    tail anchor (t_tail, y_tail), the last of them, where the reward rate is
    frozen at l_tail.

    Every lookup but :meth:`pos_at` runs one chain: :meth:`locate` (the
    state's grid_y interval), :meth:`start` (the time solve) and
    :meth:`stage` (the reward and the position reached).  :meth:`time_of`
    and :meth:`reward_from_master` compose :meth:`start` and :meth:`stage`;
    they stay because the benchmark's tracer times them.  The table owns
    the rule for dropping a node that can no longer earn, one test before
    the time solve: :meth:`locate` bounds a state's master time from its
    grid_y interval, and :meth:`reward_cut` bounds the master times from
    which the next stages collect +0.0.
    """

    grid_t: np.ndarray
    grid_y: np.ndarray
    grid_dy: np.ndarray
    reward_cum: np.ndarray
    delta: float
    l_tail: float
    lower: float
    upper: float

    reward_t: np.ndarray = field(init=False)
    t_tail: float = field(init=False)
    y_tail: float = field(init=False)
    _pos_c: np.ndarray = field(init=False, repr=False)
    _seed_c: np.ndarray = field(init=False, repr=False)
    _reward_c: np.ndarray = field(init=False, repr=False)
    _t_guide: "_Guide" = field(init=False, repr=False)
    _y_guide: "_Guide" = field(init=False, repr=False)
    _kz: int = field(init=False, repr=False)

    def __post_init__(self):
        # the reward grid is the first nr knots of grid_t; the last is the tail anchor
        nr = len(self.reward_cum)
        self.reward_t = self.grid_t[:nr]
        self.t_tail = float(self.grid_t[nr - 1])
        self.y_tail = float(self.grid_y[nr - 1])
        if self.delta * self.t_tail > 700.0:
            raise ModelError(
                f"discount * tail time = {self.delta * self.t_tail:.3g} overflows exp(); "
                "the model's reward horizon is too long for this parameterisation"
            )
        # Every lookup evaluates these coefficients through the guided
        # interval lookups and _ppoly below.
        # Hermite with the exact node slopes drift(y_i): fourth-order accurate,
        # and monotone because the build enforces the Fritsch-Carlson bound.
        self._pos_c = hermite_coeffs(self.grid_t, self.grid_y, self.grid_dy)
        # dt/dy = 1/drift(y): the exact node slopes of the inverse trajectory
        self._seed_c = hermite_coeffs(self.grid_y, self.grid_t,
                                      1.0 / np.maximum(self.grid_dy, 1e-300))
        self._reward_c = pchip_coeffs(self.reward_t, self.reward_cum)
        # reward intervals [0, _kz) have all-zero coefficients: PCHIP takes
        # slope 0 at the last zero knot, so the stretch ends where reward_cum
        # turns nonzero.  The last grid interval, closed on the right and the
        # one every non-finite time lands in, is never part of it.
        nonzero = np.flatnonzero(np.any(self._reward_c != 0.0, axis=0))
        self._kz = min(int(nonzero[0]) if nonzero.size else nr - 1, len(self.grid_t) - 2)
        self._cut_t, self._cut_step = self._zero_reach()
        lower, y0 = self.lower, self.y_start
        self._t_guide = _Guide(self.grid_t)
        # grid_y is guided on the log-distance above the ruin end, where the
        # drift vanishes linearly and the knots are geometric
        self._y_guide = _Guide(self.grid_y, lambda y: np.log(np.maximum(y, y0) - lower))

    # -- basic geometry ----------------------------------------------------

    @property
    def y_start(self) -> float:
        return float(self.grid_y[0])

    @property
    def y_end(self) -> float:
        return float(self.grid_y[-1])

    @property
    def horizon(self) -> float:
        return float(self.grid_t[-1])

    @property
    def end_gap(self) -> float:
        """Distance upper - y_end by which the table stops short of the upper end."""
        return self.upper - self.y_end

    # -- lookups -----------------------------------------------------------

    def pos_at(self, u):
        """Position on the master curve at master time u, clamped to [0, horizon]
        (NaN reads the table end)."""
        uc, k = self._clamped_time(np.asarray(u, dtype=float))
        out = self._position(uc, k)
        return out if out.ndim else float(out)

    def time_of(self, y):
        """Master time at which the curve passes y: the exact inverse of pos_at.

        Seeded by the cubic Hermite of t(y) with the exact slopes 1/drift(y),
        polished by one Newton step on the position interpolant; any point
        whose residual then exceeds 1e-11 * span is solved by bisection.
        Positions below the start clamp to 0, at or above the table end clamp
        to the horizon.  ``start(y)[0]``.
        """
        out = self.start(y)[0]
        return out if np.ndim(out) else float(out)

    def reward_from_master(self, T0, t):
        """Reward integral over [0, t] for a state at master time T0: ``stage``
        from T0 and its grid_t interval."""
        T0 = np.asarray(T0, dtype=float)
        out = self.stage(T0, self._t_guide.find(T0.ravel()).reshape(T0.shape), t)
        return out if out.ndim else float(out)

    def locate(self, y):
        """The grid_y interval k of each y (clamped to the table) and a bound on its time.

        Returns ``(k, t_up)``, arrays of y's shape, with t_up = grid_t[k + 1].
        grid_y = P(grid_t) at the knots, so a clamped y lies at or below
        grid_y[k + 1] = P(t_up), and the time solve overshoots by at most the
        step e of :meth:`reward_cut` while t_up + e lies below grid_t[_kz]:
        time_of(y) <= t_up + e.  So t_up + r < reward_cut(stages + 1) implies
        time_of(y) + r < reward_cut(stages): the integrand's drop test, made
        before the time solve.  :meth:`start` takes k and skips its own lookup.
        """
        y = np.asarray(y, dtype=float)
        k = self._y_guide.find(np.clip(y, self.y_start, self.y_end).ravel()).reshape(y.shape)
        return k, self.grid_t[1:].take(k)

    def start(self, y, k=None):
        """The time solve of a stage: ``T0 = time_of(y)`` and its grid_t interval k0.

        Arrays of y's shape; a scalar y gives scalars, which :meth:`stage`
        broadcasts against t.  ``k``, the intervals :meth:`locate` found for
        y, saves the solve's first lookup; the solve overwrites it.
        """
        y = np.asarray(y, dtype=float)
        T0, k0 = self._solve_time(np.clip(y, self.y_start, self.y_end).ravel(),
                                  None if k is None else np.ravel(k))
        if not y.ndim:
            return T0[0], k0[0]
        return T0.reshape(y.shape), k0.reshape(y.shape)

    def stage(self, T0, k0, t, position=False):
        """The rest of a stage from the time solve ``(T0, k0) = start(y)``.

        The reward of running the flow from y for time t >= 0, and with
        ``position`` the state reached as well, from two interval lookups per
        point: the grid_y interval of y (in :meth:`start`) and the grid_t
        interval of T0 + t, which serves both the position and the reward
        there.  The last stage of the integrand leaves ``position`` off,
        since nothing reads its end state.  A scalar T0 (one solve for every
        path's shared start) computes exp(delta T0), the reward at T0 and the
        tail's lead term once, and the result takes t's shape.  Every
        operation is elementwise, so the values are those of T0 broadcast to
        t's shape, bit for bit.

        The reward is the table lookup up to the tail anchor plus the
        frozen-rate closed form beyond it; t may be +inf, and a negative or
        NaN t is an InputError (NaN would read the table end).  For a
        nonnegative reward whose features the build's ``refine_y`` names (the
        loan tables), it is nondecreasing in t and in y and bounded by
        sup(reward)/delta.  A feature the grid does not resolve is integrated
        across coarse knots, and the value can then dip below zero (a step
        reward on a four-knot table reads -0.112 where the exact integral
        is 0).
        """
        t = np.asarray(t, dtype=float)
        if np.ndim(T0):
            T0, k0, t = np.broadcast_arrays(T0, k0, t)
            T0, k0 = T0.ravel(), k0.ravel()
        if not np.all(t >= 0.0):
            raise InputError("flow time must be nonnegative, not NaN")
        shape = t.shape
        t = t.ravel()
        te = T0 + t
        uc, ke = self._clamped_time(te)
        reward = self._reward(T0, t, te, k0, ke).reshape(shape)
        if not position:
            return reward
        return reward, self._position(uc, ke).reshape(shape)

    def reward_cut(self, stages):
        """Master time below which the next ``stages`` stages collect exactly +0.0.

        A state at master time T0 (from :meth:`start`) whose next ``stages``
        flows last r in all, with jumps in between that only lower the
        state, ends each of them before grid_t[_kz], and so collects the
        +0.0 of the zero stretch (see :meth:`_reward`), if T0 + r <
        reward_cut(stages) = grid_t[_kz] - stages * e.  Here e bounds how far
        a time solve overshoots: time_of of a state at or below P(u), with
        u + e below grid_t[_kz], returns at most u + e, because the residual
        it accepts (the tolerance plus two positions' rounding) is less than
        P rises over e at the smallest slope of the position interpolant on
        [0, grid_t[_kz]], and the interpolant is monotone (the build's shape
        guard).  e also covers a time sum's rounding.  The integrand never
        tests T0 itself: before the solve, :meth:`locate` gives t_up with
        T0 <= t_up + e, so it drops a node when t_up + r <
        reward_cut(stages + 1) = reward_cut(stages) - e, and the operators
        module docstring chains this over the stages.  The cut is -inf when
        that slope is not positive or the stretch is empty.  It holds only
        for a stage that reads nothing but the reward of a flow ending below
        the band: a start function of the end state, or a reward of the
        state itself, is nonzero there.
        """
        return self._cut_t - stages * self._cut_step

    def _zero_reach(self):
        """(grid_t[_kz], e) of :meth:`reward_cut`; (-inf, 0) when nothing can be cut."""
        kz = self._kz
        c0, c1, c2 = (c[:kz] for c in self._pos_c[:3])
        h = np.diff(self.grid_t[:kz + 1])
        # a piece's slope 3 c0 s^2 + 2 c1 s + c2 is smallest at an end or,
        # when convex, at its vertex s = -c1 / (3 c0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -c1 / (3.0 * c0)
            vertex = np.where((c0 > 0.0) & (s > 0.0) & (s < h), c2 - c1 * c1 / (3.0 * c0), np.inf)
        right = (3.0 * c0 * h + 2.0 * c1) * h + c2
        slope = float(np.min(np.minimum(np.minimum(c2, right), vertex), initial=np.inf))
        if not 0.0 < slope < np.inf:  # also kz == 0: no piece, slope +inf
            return -np.inf, 0.0
        t_cut = float(self.grid_t[kz])
        y_round = 16.0 * _EPS * max(abs(self.y_start), abs(self.y_end))
        # a time sum's rounding, and a straggler's bisection root: the first
        # float at which the position reaches y overshoots by about an ulp, less
        # than the brentq tolerance (xtol 1e-14, rtol 4 eps) this was set for
        t_round = 16.0 * _EPS * t_cut + 1e-13
        return t_cut, (self._resid_tol() + 2.0 * y_round) / slope + t_round

    def _resid_tol(self):
        """Largest position residual time_of accepts from its Newton step."""
        return _RESID_TOL * max(1.0, abs(self.y_end - self.y_start))

    def _clamped_time(self, u):
        """u clamped to [0, horizon] (NaN to the horizon, by fmin), and its grid_t interval."""
        uc = np.maximum(np.fmin(u, self.horizon), 0.0)
        return uc, self._t_guide.find(uc.ravel()).reshape(uc.shape)

    def _position(self, uc, k):
        """Position interpolant at clamped master times uc in grid_t intervals k."""
        return _ppoly(self._pos_c, k, uc - self.grid_t[k])

    def _solve_time(self, yc, k=None):
        """time_of on a flat array of clamped positions, with the grid_t interval of each time.

        grid_y = pos(grid_t), so the grid_y interval k of yc (found here
        unless given, and overwritten) is also the grid_t interval of the
        seed time and of the Newton-polished time, up to a neighbour step
        near a node.  At y_start, the position at grid_t[0] = 0, the seed
        and the Newton step return exactly +0.0 in interval 0.
        """
        if k is None:
            k = self._y_guide.find(yc)
        t = np.clip(_ppoly(self._seed_c, k, yc - self.grid_y[k]), 0.0, self.horizon)
        settle = self._t_guide.settle
        k = settle(k, t)
        # Newton step: position and slope share the coefficient reads; the
        # slope's coefficients are scipy's derivative ones (3 c0, 2 c1, c2),
        # summed in _ppoly's order
        c0, c1, c2, c3 = (c[k] for c in self._pos_c)
        s = t - self.grid_t[k]
        s2 = s * s
        pos = c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        slope = np.maximum(c2 + (2.0 * c1) * s + (3.0 * c0) * s2, 1e-300)
        t = np.clip(t - (pos - yc) / slope, 0.0, self.horizon)
        k = settle(k, t)
        # solve stragglers (flat top of the curve) by bisection: the first
        # float at which the position reaches y
        resid = np.abs(self._position(t, k) - yc)
        bad = np.flatnonzero((resid > self._resid_tol()) & (yc < self.y_end)
                             & (yc > self.y_start))
        if bad.size:
            yb = yc[bad]
            t[bad] = first_root(lambda u: self.pos_at(u) - yb, np.zeros(bad.size), self.horizon)
            k[bad] = self._t_guide.find(t[bad])
        return t, k

    def _reward(self, T0, t, te, k0, ke):
        """reward_from_master given the grid_t intervals k0 of T0 and ke of te = T0 + t.

        A point whose end interval lies in the zero stretch (ke < _kz) has
        collected +0.0: t >= 0 puts k0 <= ke, so both reward values are +-0
        and the core adds +0, and te < t_tail leaves out the tail.  So the
        core and the frozen-rate tail run on the other points only, picked
        by index, and their sum goes into a zero array; T0, t and k0 may be
        scalars, and the formulas are elementwise, so every value is the
        full batch's bit for bit.
        """
        live = np.flatnonzero(ke >= self._kz)
        out = np.zeros(te.shape)
        if not live.size:
            return out
        T0, t, k0 = (a.take(live) if np.ndim(a) else a for a in (T0, t, k0))
        te, ke = te.take(live), ke.take(live)
        # reward_t is a prefix of grid_t ending at t_tail, so the reward
        # intervals of the clipped times are the grid intervals capped
        last = len(self.reward_t) - 2
        k1, k0 = np.minimum(ke, last), np.minimum(k0, last)
        t1 = np.clip(te, 0.0, self.t_tail)
        t0c = np.clip(T0, 0.0, self.t_tail)
        core = np.exp(self.delta * t0c) * (
            _ppoly(self._reward_c, k1, t1 - self.reward_t[k1])
            - _ppoly(self._reward_c, k0, t0c - self.reward_t[k0]))
        lead = np.maximum(self.t_tail - T0, 0.0)
        with np.errstate(invalid="ignore"):
            tail = self.l_tail / self.delta * (np.exp(-self.delta * lead) - np.exp(-self.delta * t))
        out[live] = np.where(T0 < self.t_tail, core, 0.0) + np.where(te > self.t_tail, tail, 0.0)
        return out


def _interval(knots, x):
    """Index i with knots[i] <= x < knots[i+1]; the last interval is closed on
    the right and points outside the knots clip to the end intervals (the
    rule of scipy's PPoly)."""
    return np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)


def _guide_split(coords, budget):
    """Sub-buckets per bucket of a guide, from its knots' sorted bucket coordinates.

    Each bucket gets enough sub-buckets to make them narrower than the
    smallest gap between two of its knots, up to one cap: the largest, by
    halving from ``budget``, at which the splits sum to at most ``budget``
    and bucket * split fits in int32.
    """
    n = coords.size
    bucket = coords.astype(np.intp)
    leaves = bucket[1:] != bucket[:-1]  # the gap after a knot leaves its bucket
    gaps = np.diff(coords, append=np.inf)
    gaps[:-1][leaves] = np.inf
    starts = np.flatnonzero(np.concatenate(([True], leaves)))
    need = np.ones(n)
    with np.errstate(divide="ignore"):  # knots that share a key
        need[bucket[starts]] = np.floor(1.0 / np.minimum.reduceat(gaps, starts)) + 1.0
    cap = min(budget, (2 ** 31 - 1) // n)
    while np.minimum(need, cap).sum() > budget:
        cap //= 2
    return np.minimum(need, cap).astype(np.int32)


class _Guide:
    """O(1) interval lookup on one increasing knot array: a guide table
    (Chen & Asau 1974; Devroye 1986, section III.2.4).

    A monotone key spreads the knots out; uniform buckets, one per knot,
    cover the key range, and each bucket is split again into uniform
    sub-buckets (slots) narrower than the smallest gap between two of its
    knots, so that a slot holds at most one knot.  Each slot stores the
    interval that starts at the last knot of the earlier slots, and
    :meth:`find` adds the one knot its slot may hold.  One cap bounds every
    bucket's split, the largest that keeps the table within
    ``_GUIDE_SLOTS`` slots per knot (and its offsets within int32); a
    bucket whose knots crowd closer than that (on the loan tables, the
    feature windows and the barrier tail) shares slots among them, and a
    guess there falls short by the knots that share its slot.
    :meth:`settle` checks every guess exactly and a binary search takes the
    rest, so :meth:`find` equals :func:`_interval` for every point.  Tables
    are int32, to keep the guide small.
    """

    def __init__(self, knots, key=None):
        self.knots = knots
        self.key = key
        n = len(knots)
        self.last = n - 2
        # the knot that ends each interval, and NaN for the last: no point
        # passes it, so the last interval keeps every point above its start
        self.ends = np.append(knots[1:-1], np.nan)
        keys = knots if key is None else key(knots)
        self.lo = float(keys[0])
        self.scale = n / (float(keys[-1]) - self.lo)
        self.top = float(np.nextafter(n, 0.0))  # largest bucket coordinate
        self.split = _guide_split(self._coord(keys), _GUIDE_SLOTS * n - 1)
        first = np.cumsum(self.split, dtype=np.int32)
        first -= self.split
        # slot = floor(coord * split[b] + base[b]) = first[b] + the sub-bucket
        self.base = first - np.arange(n, dtype=np.int32) * self.split
        # one slot of slack at the top takes a rounded-up last coordinate
        per_slot = np.bincount(self._slot(keys), minlength=int(first[-1] + self.split[-1]) + 1)
        # guess: the interval of the last knot in an earlier slot
        np.cumsum(per_slot, out=per_slot)
        per_slot -= 1
        self.table = np.empty(per_slot.size, dtype=np.int32)
        self.table[0] = 0
        np.clip(per_slot[:-1], 0, self.last, out=self.table[1:])

    def _coord(self, keys):
        """Bucket coordinate in [0, n) of each key; -inf and NaN go to 0, +inf to the top."""
        f = (keys - self.lo) * self.scale
        np.fmax(f, 0.0, out=f)
        np.fmin(f, self.top, out=f)
        return f

    def _slot(self, keys):
        f = self._coord(keys)
        b = f.astype(np.intp)
        return (f * self.split[b] + self.base[b]).astype(np.intp)

    def find(self, x):
        """``_interval(knots, x)`` for a flat float array x."""
        keys = x if self.key is None else self.key(x)
        k = self.table[self._slot(keys)].astype(np.intp)
        k += x >= self.ends[k]  # the one knot the slot may hold
        return self.settle(k, x)

    def settle(self, k, x):
        """``_interval(knots, x)`` for a flat array x from a guess k that is right
        or one interval off for nearly every point.

        The last interval takes every point at or above its first knot, as
        :func:`_interval` does.  Points outside their guessed interval move
        one interval toward x; a point that the move does not settle is
        searched, and so is a NaN or a point below the first knot (the search
        clamps it to interval 0).
        """
        knots, ends = self.knots, self.ends
        off = np.flatnonzero((x >= ends[k]) | ~(x >= knots[k]))
        if off.size:
            ko, xo = k[off], x[off]
            ko = np.maximum(ko + (xo >= ends[ko]) - (xo < knots[ko]), 0)
            k[off] = ko
            still = (xo >= ends[ko]) | ~(xo >= knots[ko])
            if still.any():
                k[off[still]] = _interval(knots, xo[still])
        return k


def _ppoly(c, k, s):
    """Piece k of the PPoly coefficients c (highest power first) at offset s.

    Summed in scipy's order, ascending powers with z = s, s*s, (s*s)*s, so the
    value is bit-identical to calling the PPoly.
    """
    out = c[-1][k]
    z = s
    for i in range(len(c) - 2, -1, -1):
        out = out + c[i][k] * z
        if i:
            z = z * s
    return out


# --- builder ----------------------------------------------------------------


def build_flow_table(
    drift: Callable,
    domain,
    delta: float,
    reward: Callable,
    feature_scale: float | None = None,
    refine_y: Sequence[float] = (),
) -> FlowTable:
    """Solve the autonomous ODE once and tabulate the master trajectory.

    The solver runs from y_start = lower + 1e-8*(upper-lower) with RK45 at
    local tolerance ``_RK_TOL`` until the position is within 1e-12*(upper-lower)
    of the upper end or the time cap 1e3*(upper-lower)/max(drift) is hit
    (then the table ends short of the upper end by its ``end_gap``; all
    queries beyond the horizon pin to the table end).
    The dense solution is sampled on a grid adapted to the local third
    time-derivative of the trajectory, refined around ``refine_y`` features
    of width ``feature_scale``.  The reward integral is tabulated on the first
    nr knots of that grid, the last being the tail anchor: the first knot at
    or above upper - 1e-6*(upper-lower), or the last knot if none is.
    InputError, before the solve, if an end of the domain or ``delta`` is not
    finite, ``delta`` is not positive, ``feature_scale`` is not finite and
    positive or a ``refine_y`` entry is not finite.  ModelError if the drift
    is not finite or is negative on a 10,000-point sample of the domain, or
    if the reward rate varies across the frozen tail band (see
    :func:`_check_frozen_rate`).
    """
    lower, upper = float(domain[0]), float(domain[1])
    if not upper > lower:
        raise InputError(f"empty domain ({lower}, {upper})")
    if not np.isfinite(lower):
        raise InputError("the tabulated domain must have a finite lower end")
    if not np.isfinite(upper):
        raise InputError("the tabulated domain must have a finite upper end")
    if not (math.isfinite(delta) and delta > 0.0):
        raise InputError(f"discount rate must be finite and positive, got {delta}")
    span = upper - lower
    if feature_scale is None:
        fs = 1e-3 * span
    else:
        fs = float(feature_scale)
        if not (math.isfinite(fs) and fs > 0.0):
            raise InputError(f"feature scale must be finite and positive, got {feature_scale}")
    refine = np.asarray(refine_y, dtype=float)
    if not np.all(np.isfinite(refine)):
        raise InputError(f"refinement features must be finite, got {refine_y}")
    y_start = lower + _START_OFFSET * span

    ys = np.linspace(y_start, upper - _PROXIMITY * span, 10_000)
    gs = np.asarray(drift(ys), dtype=float)
    if not np.all(np.isfinite(gs)):
        raise ModelError("drift must be finite on the domain")
    if np.any(gs < -1e-12 * max(1.0, np.max(np.abs(gs)))):
        raise ModelError("drift must be nonnegative on the domain")
    g_max = float(np.max(gs))
    if g_max <= 0.0 or not drift(y_start) > 0.0:
        raise ModelError("drift must be positive at the start offset")
    cap = 1e3 * span / g_max
    y_stop = upper - _PROXIMITY * span

    segments = rk45(lambda t, y: float(drift(min(y, upper))), cap, y_start,
                    _RK_TOL, _RK_TOL * span * 1e-2, y_stop)
    t_end = segments[0][-1]

    grid_t = _march_grid(segments, drift, upper, t_end, fs, refine, g_max)
    # shape guard: refine any interval violating the Fritsch-Carlson monotone
    # bound for Hermite data (exact slopes of a monotone trajectory satisfy it
    # once the interval is short enough)
    ys_at = array_dense_output(segments)
    for _ in range(6):
        grid_y = ys_at(grid_t)
        grid_y = np.minimum.accumulate(np.minimum(grid_y, upper)[::-1])[::-1]  # clip overshoot
        grid_t, grid_y = _strictly_increasing(grid_t, grid_y, span)
        grid_dy = np.maximum(np.asarray(drift(grid_y), dtype=float), 0.0)
        dy = np.diff(grid_y)
        ht = np.diff(grid_t)
        bad = (grid_dy[:-1] * ht > 3.0 * dy) | (grid_dy[1:] * ht > 3.0 * dy)
        if not bad.any():
            break
        mids = 0.5 * (grid_t[:-1][bad] + grid_t[1:][bad])
        grid_t = np.sort(np.concatenate([grid_t, mids]))
    else:
        raise ModelError("could not refine the flow grid to a monotone interpolant")

    # tail anchor: the first node within the frozen band below the upper end,
    # or the table end, where paths pin, if the grid stops short of the band
    y_freeze = upper - _TAIL_BAND * span
    nr = min(int(np.searchsorted(grid_y, y_freeze)), len(grid_t) - 1) + 1
    rt, ry = grid_t[:nr], grid_y[:nr]
    rates = np.asarray(reward(ry), dtype=float)
    if grid_y[-1] >= y_freeze:
        _check_frozen_rate(reward, float(ry[-1]), upper, np.max(np.abs(rates)))
    integrand = np.exp(-delta * rt) * rates
    if rt.size >= 3:
        rc = cumulative_simpson(integrand, rt)
    else:
        rc = np.zeros_like(rt)

    return FlowTable(
        grid_t=grid_t,
        grid_y=grid_y,
        grid_dy=grid_dy,
        reward_cum=rc,
        delta=delta,
        l_tail=float(reward(ry[-1])),
        lower=lower,
        upper=upper,
    )


def _check_frozen_rate(reward, y_tail, upper, sup):
    """ModelError unless the reward rate is flat across the frozen tail band.

    Past the tail anchor (the first node in the band) the table charges the
    rate at y_tail forever, while the path goes on toward the upper end.  So
    the rate must not vary over [y_tail, upper] by more than _TAIL_RATE_TOL
    of its supremum, the largest rate on the tabulated path or in the band;
    a reward feature that narrow would otherwise be valued at the wrong rate.
    """
    band = np.asarray(reward(np.linspace(y_tail, upper, 65)), dtype=float)
    sup = max(sup, float(np.max(np.abs(band))))
    spread = float(np.max(band) - np.min(band))
    if not spread <= _TAIL_RATE_TOL * sup:
        raise ModelError(
            f"the reward rate varies by {spread:.3g} (supremum {sup:.3g}) across the frozen "
            f"tail band [{y_tail!r}, {upper!r}]: the table does not resolve reward features "
            "this close to the upper end"
        )


def _march_grid(segments, drift, upper, t_end, fs, refine, g_max):
    """Curvature-adapted time grid over [0, t_end].

    Step control: h^3 * |d3y/dt3| <= 96 * _POS_TOL (keeps cubic interpolation
    error near _POS_TOL in position), a global cap _H_CAP (keeps the
    discounted reward quadrature accurate), fine stepping inside feature
    windows, and a guard that never jumps over an upcoming feature window in
    one step.  The loop is sequential, so it runs on Python floats: the
    dense output of the solver's segment table through
    :func:`~pdmpval._numerics.float_dense_output` and three scalar drift
    calls per step for the central differences.

    The window and guard terms come from two bisections over the window
    ends, sorted once per build (:func:`_window_step`), instead of a scan of
    every window at every step.  The windows share one width, so sorting
    them by feature sorts both ends.  Then y lies in some window exactly
    when it lies in the first window whose upper end is not below y; and
    the guard term, monotone in a window's lower end, can bind only for the
    lowest window above y.  min is exact, so the step is the scan's bit for
    bit.

    Runs of capped steps (most of the barrier tail) are taken as array steps:
    a step of size _H_CAP from t predicts the next times t + _H_CAP,
    t + 2 _H_CAP, ... by sequential sums (the loop's own roundings), and
    :func:`_capped_prefix` evaluates the step rule at all of them in one
    array pass.  The times whose every term clears the cap by the margin
    _BATCH_MARGIN are certainly capped steps of the loop too, so they are
    appended as they are and the loop resumes at the first time in doubt;
    the grid is the scalar loop's bit for bit.  A batch holds _BATCH_MIN
    times and doubles, up to _BATCH_MAX, while batches are taken whole.  A
    batch that takes nothing (a step in the margin zone) starts no new batch
    until a step falls below the cap.
    """
    y_at = float_dense_output(segments)
    ys_at = array_dense_output(segments)
    hy = max(_STENCIL * fs, 1e-9)
    los, his = _feature_windows(refine, fs)
    pieces = []  # finished stretches of the grid, in order
    ts = [0.0]
    count = 1
    t = 0.0
    batching = True  # off after a batch takes nothing, until a step falls below the cap
    while t < t_end:
        y = min(y_at(t), upper)
        g_lo, g, g_hi = float(drift(y - hy)), float(drift(y)), float(drift(y + hy))
        gp = (g_hi - g_lo) / (2.0 * hy)
        gpp = (g_hi - 2.0 * g + g_lo) / (hy * hy)
        y3 = abs((gpp * g + gp * gp) * g)
        h = (96.0 * _POS_TOL / (y3 + 1e-300)) ** (1.0 / 3.0)
        h = _window_step(min(h, _H_CAP), y, g, los, his, fs, g_max)
        h = max(h, 1e-7, 1e-12 * t_end)
        t = min(t + h, t_end)
        ts.append(t)
        count += 1
        if count > _MAX_NODES:
            raise ModelError("flow grid construction did not terminate")
        if h < _H_CAP:
            batching = True
        if h != _H_CAP or not batching:
            continue
        size = _BATCH_MIN
        while t < t_end:
            steps = np.full(size + 1, _H_CAP)
            steps[0] = t
            times = np.add.accumulate(steps)  # times[i + 1] = times[i] + _H_CAP, as the loop adds
            live = int(np.searchsorted(times[:size], t_end))  # times the loop would step from
            taken = _capped_prefix(times[:live], ys_at, drift, upper, hy, fs, los, his, g_max)
            if not taken:
                batching = False
                break
            nodes = times[1:taken + 1]
            nodes[-1] = min(nodes[-1], t_end)
            pieces += [np.asarray(ts), nodes]
            ts = []
            count += taken
            if count > _MAX_NODES:
                raise ModelError("flow grid construction did not terminate")
            t = float(nodes[-1])
            if taken < size:
                break
            size = min(2 * size, _BATCH_MAX)
    return np.concatenate(pieces + [np.asarray(ts)])


def _feature_windows(refine, fs):
    """The windows [r - 2 fs, r + 2 fs] around the features r as two ascending
    lists of ends, ``los`` closed by +inf.

    The windows share one width, and rounding is monotone, so sorting the
    features sorts both ends.
    """
    rs = sorted(float(r) for r in refine)
    return [r - 2.0 * fs for r in rs] + [math.inf], [r + 2.0 * fs for r in rs]


def _window_step(h, y, g, los, his, fs, g_max):
    """Step h after the window and guard terms of the step rule at state y.

    Equal to scanning every window [lo, hi]: inside, h = min(h, fs / (16 g),
    _H_CAP); below it (and g > 0), the guard h = min(h, max((lo - y) / g_max,
    1e-7)).  With both ends ascending, y lies in some window exactly when it
    lies in the first window not wholly below it, i = bisect_left(his, y),
    that is when los[i] <= y (the +inf end closes ``los`` when there is
    none).  The guard is monotone in lo, so of the windows above y only the
    lowest, los[bisect_right(los, y)], can bind, and min is exact.
    """
    if los[bisect_left(his, y)] <= y:
        h = min(h, fs / (16.0 * max(g, 1e-300)), _H_CAP)
    if g > 0.0:
        h = min(h, max((los[bisect_right(los, y, 0, len(his))] - y) / g_max, 1e-7))
    return h


def _capped_prefix(times, ys_at, drift, upper, hy, fs, los, his, g_max):
    """How many leading ``times`` certainly get the step _H_CAP from the step rule.

    The rule of :func:`_march_grid` on arrays: one drift call on the three
    stencils of every time, the central differences, the curvature step and
    the window and guard terms, looked up as in :func:`_window_step`.  A time
    counts only if every term that can bind clears the cap by the relative
    margin _BATCH_MARGIN, so the ulp by which numpy's power may differ from
    Python's cannot change a step; nor can small differences between a
    drift's array and float paths (the loan drift's two paths agree bit for
    bit).  The guard term is applied whatever the drift's sign, which can
    only turn times away.
    """
    n = len(times)
    y = np.minimum(ys_at(times), upper)
    g3 = np.asarray(drift(np.concatenate([y - hy, y, y + hy])), dtype=float)
    g_lo, g, g_hi = g3[:n], g3[n:2 * n], g3[2 * n:]
    bar = _H_CAP * (1.0 + _BATCH_MARGIN)
    with np.errstate(all="ignore"):  # the float loop warns of nothing either
        gp = (g_hi - g_lo) / (2.0 * hy)
        gpp = (g_hi - 2.0 * g + g_lo) / (hy * hy)
        y3 = np.abs((gpp * g + gp * gp) * g)
        ok = (96.0 * _POS_TOL / (y3 + 1e-300)) ** (1.0 / 3.0) >= bar
        lo = np.asarray(los)
        inside = lo[np.searchsorted(his, y, side="left")] <= y
        ok &= ~inside | (fs / (16.0 * np.maximum(g, 1e-300)) >= bar)
        ok &= (lo[np.searchsorted(lo[:-1], y, side="right")] - y) / g_max >= bar
    return n if ok.all() else int(np.argmin(ok))


def _strictly_increasing(ts, ys, span):
    """The grid up to its first node after which the trajectory stalls below
    float resolution.

    Dropping every stalled node instead would let the shape guard insert
    midpoints between the nodes left, which stall again, until it gives up.
    """
    end = int(np.argmin(np.append(np.diff(ys) > 1e-15 * span, False))) + 1
    return ts[:end], ys[:end]

