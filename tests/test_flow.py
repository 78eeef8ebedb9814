import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq

import pdmpval._numerics
import pdmpval.flow
import pdmpval.loan
from pdmpval.cubature import CubatureSpec, RuleKind
from pdmpval.errors import InputError, ModelError
from pdmpval.flow import build_flow_table
from pdmpval.loan import SmoothedLoanModel
from pdmpval.operators import estimate_value
from pdmpval.smoothing import smoothed_drift_loan

C, RHO, B, EPS, DELTA = 5.0, 0.05, 3.24289, 0.01, 0.02


def _build_const_table():
    drift = lambda y: 2.0 + 0.0 * np.asarray(y, dtype=float)
    reward = lambda y: np.where(np.asarray(y, dtype=float) > 8.0, 1.0, 0.0)
    return build_flow_table(drift, (0.0, 10.0), 0.1, reward)


@pytest.fixture(scope="module")
def const_table():
    return _build_const_table()


class TestConstantDrift:
    def test_linear_motion(self, const_table):
        t = np.linspace(0.0, 4.9, 200)
        expect = const_table.y_start + 2.0 * t
        assert np.max(np.abs(const_table.pos_at(t) - expect)) < 1e-9

    def test_identity_at_zero(self, const_table):
        ys = np.linspace(0.5, 9.0, 20)
        assert np.max(np.abs(_advance(const_table, ys, 0.0)[1] - ys)) < 1e-11

    def test_reaches_top_and_converges(self, const_table):
        assert const_table.end_gap <= 1e-12 * (const_table.upper - const_table.lower)
        assert _advance(const_table, 1.0, 100.0)[1] == pytest.approx(10.0, abs=1e-6)

    def test_reward_tail_frozen_at_rate_one(self, const_table):
        # from the top, reward rate 1 forever: integral 1/delta
        assert const_table.stage(*const_table.start(10.0), np.inf) == pytest.approx(10.0, rel=1e-3)


class TestDriftVanishingAtTheTop:
    """g(y) = 1 - y/10 on (0, 10): the path approaches the top exponentially
    and stalls below float resolution short of it.  The grid ends at its
    first stalled node, so the shape guard does not refine the stall again
    and again until it gives up."""

    @pytest.fixture(scope="class")
    def table(self):
        return build_flow_table(lambda y: 1.0 - np.asarray(y, dtype=float) / 10.0,
                                (0.0, 10.0), 0.1, _flat_reward)

    def test_builds_up_to_a_small_end_gap(self, table):
        assert np.all(np.diff(table.grid_y) > 0.0)
        assert 0.0 < table.end_gap < 1e-7

    def test_follows_the_exact_flow(self, table):
        u = np.linspace(0.0, 300.0, 3001)
        exact = 10.0 - (10.0 - table.y_start) * np.exp(-u / 10.0)
        assert np.max(np.abs(table.pos_at(u) - exact)) <= table.end_gap + 1e-12

    def test_semigroup(self, table, rng):
        y = rng.uniform(0.5, 9.9, 200)
        s, t = rng.uniform(0.0, 20.0, (2, 200))
        once = _advance(table, y, s + t)[1]
        twice = _advance(table, _advance(table, y, s)[1], t)[1]
        assert np.max(np.abs(once - twice)) < 1e-13


class TestLoanFlow:
    def test_linear_drift_closed_form(self, loan_model, rng):
        table = loan_model.table
        y = rng.uniform(-90.0, -1.0, 300)
        t = rng.uniform(0.0, 5.0, 300)
        closed = (y + C / RHO) * np.exp(RHO * t) - C / RHO
        mask = closed < -EPS - 1e-3  # stay inside the c + rho*y branch
        moved = _advance(table, y, t)[1]
        assert np.max(np.abs(moved[mask] - closed[mask])) < 1e-8

    def test_constant_drift_region(self, loan_model, rng):
        table = loan_model.table
        y = rng.uniform(0.1, 2.0, 300)
        t = rng.uniform(0.0, 0.2, 300)
        closed = y + C * t
        mask = closed < B - EPS - 1e-3
        assert np.max(np.abs(_advance(table, y, t)[1][mask] - closed[mask])) < 1e-9

    def test_semigroup(self, loan_model, rng):
        table = loan_model.table
        y = rng.uniform(-80.0, B - 0.05, 100)
        s = rng.uniform(0.0, 40.0, 100)
        t = rng.uniform(0.0, 40.0, 100)
        lhs = _advance(table, _advance(table, y, s)[1], t)[1]
        rhs = _advance(table, y, s + t)[1]
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_monotone_in_both_arguments(self, loan_model, rng):
        table = loan_model.table
        ys = np.sort(rng.uniform(-99.0, B, 100))
        ts = np.sort(rng.uniform(0.0, 200.0, 100))
        grid = np.stack([_advance(table, np.full(100, y), ts)[1] for y in ys])
        assert np.all(np.diff(grid, axis=0) >= -1e-12)
        assert np.all(np.diff(grid, axis=1) >= -1e-12)
        assert np.max(grid) <= B

    def test_inverse_consistency_on_grid(self, loan_model):
        table = loan_model.table
        sub = table.grid_y[:: 37]
        assert np.max(np.abs(table.pos_at(table.time_of(sub)) - sub)) < 1e-9

    def test_end_gap(self, loan_model, wide_table):
        # the taper drift vanishes like (b - y)^3, so the solve stops at its
        # time cap short of the barrier
        assert float(f"{loan_model.table.end_gap:.1e}") == 7.0e-7
        assert float(f"{wide_table.end_gap:.2e}") == 1.59e-5

    def test_long_run_approaches_barrier(self, loan_model):
        assert abs(_advance(loan_model.table, 0.0, 1e3)[1] - B) < 1e-3

    def test_band_crossing_time_bracket_and_quadrature_oracle(self, loan_model):
        table = loan_model.table
        measured = table.time_of(B - EPS) - table.time_of(0.0)
        assert 0.6 < measured < 0.7
        oracle, _ = quad(lambda z: 1.0 / smoothed_drift_loan(z, C, RHO, B, EPS),
                         0.0, B - EPS, points=[EPS, B - 2 * EPS], limit=200)
        assert measured == pytest.approx(oracle, abs=1e-6)

    def test_time_of_clamps_below_start(self, loan_model):
        assert loan_model.table.time_of(-C / RHO - 5.0) == 0.0

    def test_time_of_clamps_at_and_above_end(self, loan_model):
        table = loan_model.table
        assert table.time_of(table.y_end) == table.horizon
        assert table.time_of(B + 1.0) == table.horizon
        assert np.all(table.time_of(np.array([table.y_end, B, B + 5.0])) == table.horizon)

    def test_one_step_inverse_residual_and_monotone(self, loan_model):
        table = loan_model.table
        ys = _inverse_probe_points(loan_model)
        t = table.time_of(ys)
        resid = np.abs(table.pos_at(t) - np.clip(ys, table.y_start, table.y_end))
        assert np.max(resid) <= 1e-11 * (B + C / RHO)
        assert np.all(np.diff(t) >= 0.0)

    def test_one_step_inverse_needs_no_bisection(self, loan_model, monkeypatch):
        calls = []
        real = pdmpval.flow.first_root
        monkeypatch.setattr(pdmpval.flow, "first_root",
                            lambda *a: calls.append(1) or real(*a))
        loan_model.table.time_of(_inverse_probe_points(loan_model))
        assert not calls


def _inverse_probe_points(loan_model):
    """About 20k sorted positions over (ruin level, b), dense at both ends."""
    lo = loan_model.params.ruin_level
    rng = np.random.default_rng(7)
    ys = np.concatenate([
        np.linspace(lo, B, 12_000),
        B - rng.uniform(0.0, 1e-6, 3_000),
        B - rng.uniform(0.0, 1e-2, 2_000),
        lo + rng.uniform(0.0, 1e-6, 1_500),
        lo + rng.uniform(0.0, 0.1, 1_500),
    ])
    return np.sort(ys)


def _march_grid_oracle(sol, drift, upper, t_end, fs, refine, g_max):
    """Reference march: the step rule of pdmpval.flow._march_grid on scipy's
    ``OdeSolution`` calls and one 3-point array drift call per step."""
    hy = max(pdmpval.flow._STENCIL * fs, 1e-9)
    h_cap = pdmpval.flow._H_CAP
    windows = [(r - 2.0 * fs, r + 2.0 * fs) for r in refine]
    ts = [0.0]
    t = 0.0
    while t < t_end:
        y = min(float(sol.sol(t)[0]), upper)
        g3 = np.asarray(drift(np.array([y - hy, y, y + hy])), dtype=float)
        g = float(g3[1])
        gp = (g3[2] - g3[0]) / (2.0 * hy)
        gpp = (g3[2] - 2.0 * g3[1] + g3[0]) / (hy * hy)
        y3 = abs((gpp * g + gp * gp) * g)
        h = min((96.0 * pdmpval.flow._POS_TOL / (y3 + 1e-300)) ** (1.0 / 3.0), h_cap)
        for lo, hi in windows:
            if lo <= y <= hi:
                h = min(h, fs / (16.0 * max(g, 1e-300)), h_cap)
            elif y < lo and g > 0.0:
                h = min(h, max((lo - y) / g_max, 1e-7))
        h = max(h, 1e-7, 1e-12 * t_end)
        t = min(t + h, t_end)
        ts.append(t)
    return np.asarray(ts)


def _scipy_solve(fun, t_bound, y0, rtol, atol, y_stop):
    """scipy's ``solve_ivp`` on the arguments of a ``flow.rk45`` call, whose
    ``fun`` maps floats to a float."""
    hit = lambda t, y: y[0] - y_stop
    hit.terminal = True
    hit.direction = 1.0
    return solve_ivp(lambda t, y: [fun(t, y[0])], (0.0, t_bound), [y0], method="RK45",
                     rtol=rtol, atol=atol, dense_output=True, events=hit)


def _capture(build, *names):
    """The arguments of the first call to each named ``pdmpval.flow`` function
    during ``build()``, and the build's result."""
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            real = getattr(pdmpval.flow, name)
            mp.setattr(pdmpval.flow, name,
                       lambda *a, name=name, real=real: seen.setdefault(name, a) and real(*a))
        built = build()
    return [seen[name] for name in names], built


@pytest.fixture(scope="module", params=["published", "constant"])
def march_args(request):
    """Arguments the builder passes to the grid march, captured from a build,
    and scipy's solution of the build's RK45 solve."""
    build = SmoothedLoanModel.build if request.param == "published" else _build_const_table
    (solve, march), _ = _capture(build, "rk45", "_march_grid")
    return march, _scipy_solve(*solve)


class TestGridMarch:
    def test_matches_array_oracle(self, march_args):
        args, sol = march_args
        got = pdmpval.flow._march_grid(*args)
        want = _march_grid_oracle(sol, *args[1:])
        assert got.size == want.size
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    def test_float_dense_output_matches_scipy(self, march_args):
        args, sol = march_args
        ode = sol.sol
        rng = np.random.default_rng(5)
        ts = np.sort(np.concatenate([ode.ts, rng.uniform(ode.ts[0], ode.ts[-1], 2_000)]))
        y_at = pdmpval._numerics.float_dense_output(args[0])
        got = np.array([y_at(float(t)) for t in ts])
        want = np.array([ode(t)[0] for t in ts])
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * np.abs(want))


def _scalar_march_grid(segments, drift, upper, t_end, fs, refine, g_max):
    """The grid march one scalar step at a time, as it ran before capped runs
    were batched: the oracle the batched march must equal bit for bit."""
    y_at = pdmpval._numerics.float_dense_output(segments)
    hy = max(pdmpval.flow._STENCIL * fs, 1e-9)
    h_cap, pos_tol = pdmpval.flow._H_CAP, pdmpval.flow._POS_TOL
    windows = [(float(r) - 2.0 * fs, float(r) + 2.0 * fs) for r in refine]
    ts = [0.0]
    t = 0.0
    while t < t_end:
        y = min(y_at(t), upper)
        g_lo, g, g_hi = float(drift(y - hy)), float(drift(y)), float(drift(y + hy))
        gp = (g_hi - g_lo) / (2.0 * hy)
        gpp = (g_hi - 2.0 * g + g_lo) / (hy * hy)
        y3 = abs((gpp * g + gp * gp) * g)
        h = (96.0 * pos_tol / (y3 + 1e-300)) ** (1.0 / 3.0)
        h = min(h, h_cap)
        for lo, hi in windows:
            if lo <= y <= hi:
                h = min(h, fs / (16.0 * max(g, 1e-300)), h_cap)
            elif y < lo and g > 0.0:
                h = min(h, max((lo - y) / g_max, 1e-7))
        h = max(h, 1e-7, 1e-12 * t_end)
        t = min(t + h, t_end)
        ts.append(t)
    return np.asarray(ts)


def _slow_drift(y):
    return 0.01 + 0.0 * np.asarray(y, dtype=float)


def _flat_reward(y):
    return 0.0 * np.asarray(y, dtype=float)


_MARCH_BUILDS = {
    # the epsilon study's four widths
    **{f"loan-{eps}": lambda eps=eps: SmoothedLoanModel.build(eps=eps)
       for eps in (0.08, 0.04, 0.02, 0.01)},
    # every step capped, t_end inside the first batch
    "constant": _build_const_table,
    # a 500-step capped run cut by the guard and the window around y = 5
    "window-cut": lambda: build_flow_table(_slow_drift, (0.0, 10.0), 0.1, _flat_reward,
                                           refine_y=(5.0,)),
    # a capped run inside the window around y = 2, cut where the window's
    # step fs / (16 drift) falls below the cap (drift 0.0102, at y = 2)
    "window-binds": lambda: build_flow_table(lambda y: 0.01 + 1e-4 * np.asarray(y, dtype=float),
                                             (0.0, 10.0), 0.1, _flat_reward,
                                             feature_scale=0.3264, refine_y=(2.0,)),
    # t_end just below 1030 falls inside the fourth batch (512 predicted steps)
    "end-in-run": lambda: build_flow_table(_slow_drift, (0.0, 10.3), 0.1, _flat_reward),
    # the curvature bound binds everywhere (third derivative >= 2), so no
    # step reaches the cap
    "no-cap": lambda: build_flow_table(lambda y: 1.0 + np.asarray(y, dtype=float) ** 2,
                                       (0.0, 10.0), 0.1, _flat_reward),
    # windows +-0.02 around features 0.02 and 0.03 apart overlap; the last
    # one, 0.05 on, leaves a gap where the guard binds again
    "windows-overlap": lambda: build_flow_table(_slow_drift, (0.0, 10.0), 0.1, _flat_reward,
                                                refine_y=(5.0, 5.02, 5.05, 5.1)),
    # features out of order and twice over, the march's argument as given
    "windows-unsorted": lambda: build_flow_table(
        lambda y: 0.01 + 1e-3 * np.asarray(y, dtype=float), (0.0, 10.0), 0.1, _flat_reward,
        refine_y=(7.0, 3.0, 7.0, 5.0, 3.0)),
    # a window wholly below the domain, and one around a feature above the
    # upper end that reaches into it
    "windows-outside": lambda: build_flow_table(_slow_drift, (0.0, 10.0), 0.1, _flat_reward,
                                                refine_y=(10.01, -0.5)),
    # the loan drift with no features: curvature steps and the cap alone
    "no-features": lambda: build_flow_table(
        lambda y: smoothed_drift_loan(y, C, RHO, B, EPS), (-C / RHO, B), DELTA, _flat_reward,
        feature_scale=EPS),
}


# march cases with a batch that takes nothing (a capped step in the margin zone)
_EMPTY_BATCHES = {"window-binds": 1, "windows-unsorted": 1, "no-features": 1}


def _capture_march(build):
    return _capture(build, "_march_grid")[0][0]


@pytest.fixture(scope="module", params=sorted(_MARCH_BUILDS))
def march_case(request):
    args = _capture_march(_MARCH_BUILDS[request.param])
    return request.param, args, _scalar_march_grid(*args)


class TestBatchedMarch:
    def test_grid_equals_scalar_march(self, march_case):
        name, args, want = march_case
        got = pdmpval.flow._march_grid(*args)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        capped = np.diff(want) == pdmpval.flow._H_CAP
        assert capped.any() == (name != "no-cap")

    def test_array_dense_output_equals_float(self, march_case):
        _, args, grid = march_case
        segments = args[0]
        ts = np.sort(np.concatenate([grid, segments[0]]))
        y_at = pdmpval._numerics.float_dense_output(segments)
        want = np.array([y_at(float(t)) for t in ts])
        assert _same_bits(pdmpval._numerics.array_dense_output(segments)(ts), want)

    def test_empty_batch_not_retried_before_an_uncapped_step(self, march_case, monkeypatch):
        name, args, grid = march_case
        batches = []  # (first time, times taken) of each batch
        real = pdmpval.flow._capped_prefix

        def capped_prefix(times, *rest):
            batches.append((times[0], real(times, *rest)))
            return batches[-1][1]

        monkeypatch.setattr(pdmpval.flow, "_capped_prefix", capped_prefix)
        pdmpval.flow._march_grid(*args)
        empty = [t for t, taken in batches if not taken]
        uncapped = grid[:-1][np.diff(grid) < pdmpval.flow._H_CAP]  # where such steps start
        for t_a, t_b in zip(empty, empty[1:]):
            assert np.any((uncapped >= t_a) & (uncapped < t_b))
        # the window-binds run hovers in the margin zone: 5 empty batches in a
        # row when every capped step retried
        assert len(empty) == _EMPTY_BATCHES.get(name, 0)

    def test_loan_build_takes_capped_runs_as_batches(self, monkeypatch):
        calls = []
        real = pdmpval.loan.smoothed_drift_loan
        monkeypatch.setattr(pdmpval.loan, "smoothed_drift_loan",
                            lambda *a: calls.append(1) or real(*a))
        table = SmoothedLoanModel.build().table
        assert len(calls) <= 15_000  # 42.7k one step at a time
        assert np.sum(np.diff(table.grid_t) == pdmpval.flow._H_CAP) > 10_000

    def test_node_guard_counts_batched_nodes(self, monkeypatch):
        args = _capture_march(_MARCH_BUILDS["end-in-run"])
        nodes = len(_scalar_march_grid(*args))
        taken = []
        real = pdmpval.flow._capped_prefix
        monkeypatch.setattr(pdmpval.flow, "_capped_prefix",
                            lambda *a: taken.append(real(*a)) or taken[-1])
        monkeypatch.setattr(pdmpval.flow, "_MAX_NODES", nodes)
        assert len(pdmpval.flow._march_grid(*args)) == nodes
        assert sum(taken) > nodes - 10  # nearly every node came from a batch
        for limit in (nodes - 1, 200):
            monkeypatch.setattr(pdmpval.flow, "_MAX_NODES", limit)
            with pytest.raises(ModelError, match="did not terminate"):
                pdmpval.flow._march_grid(*args)


def _scan_window_step(h, y, g, windows, fs, g_max):
    """The window and guard terms of the step rule as a scan of every window,
    as in :func:`_scalar_march_grid`."""
    h_cap = pdmpval.flow._H_CAP
    for lo, hi in windows:
        if lo <= y <= hi:
            h = min(h, fs / (16.0 * max(g, 1e-300)), h_cap)
        elif y < lo and g > 0.0:
            h = min(h, max((lo - y) / g_max, 1e-7))
    return h


class TestWindowLookup:
    """The bisection lookup of the window and guard terms against the scan."""

    @pytest.mark.parametrize("refine, fs", [
        ((-EPS, 0.0, EPS, B - 2.0 * EPS, B - EPS, B), EPS),  # the loan features
        ((5.0, 5.02, 5.05, 5.1), 0.01),                      # overlapping windows
        ((7.0, 3.0, 7.0, 5.0, 3.0), 0.01),                   # unsorted, repeated
        ((1.0, 1.0 + 1e-12, 1.0 + 4e-3), 1e-3),              # nearly equal, touching
        ((-0.5, 10.01), 0.01),                               # around the domain's ends
        ((), 0.01),                                          # no features
    ], ids=["loan", "overlap", "unsorted", "touching", "outside", "none"])
    def test_equals_the_scan(self, refine, fs):
        windows = [(float(r) - 2.0 * fs, float(r) + 2.0 * fs) for r in refine]
        los, his = pdmpval.flow._feature_windows(refine, fs)
        assert los[:-1] == sorted(lo for lo, _ in windows) and los[-1] == math.inf
        assert his == sorted(hi for _, hi in windows)
        edges = [e for w in windows for e in w]
        rng = np.random.default_rng(11)
        ys = [*edges, *(math.nextafter(e, -math.inf) for e in edges),
              *(math.nextafter(e, math.inf) for e in edges),
              *rng.uniform(-1.0, 11.0, 400), *rng.uniform(-0.1, 0.1, 200), -100.0, 0.0, 20.0]
        hs = [pdmpval.flow._H_CAP, 0.3, 1e-3, 1e-7]
        gs = [0.01, 5.0, 1e-310, 0.0, -1e-3]
        g_max = 5.0
        for y in ys:
            y = float(y)
            for h in hs:
                for g in gs:
                    got = pdmpval.flow._window_step(h, y, g, los, his, fs, g_max)
                    want = _scan_window_step(h, y, g, windows, fs, g_max)
                    assert got.hex() == want.hex(), (y, h, g)
        # both terms bind somewhere on the probes
        steps = {pdmpval.flow._window_step(2.0, float(y), 5.0, los, his, fs, g_max)
                 for y in ys}
        inside = fs / (16.0 * 5.0)
        assert (inside in steps) == bool(refine)
        assert any(h not in (2.0, inside) for h in steps) == bool(refine)

    @pytest.mark.parametrize("refine", [(5.0, 5.02, 5.05, 5.1), (7.0, 3.0, 7.0, 5.0), ()],
                             ids=["overlap", "unsorted", "none"])
    def test_batch_terms_equal_the_scan(self, refine):
        # a constant drift leaves only the window and guard terms to bind in
        # the batch's test: fs / (16 g) is below the cap, so a time inside a
        # window is turned away, and so is one within bar * g_max below one
        fs, g_max = 0.01, 0.01
        bar = pdmpval.flow._H_CAP * (1.0 + pdmpval.flow._BATCH_MARGIN)
        windows = [(r - 2.0 * fs, r + 2.0 * fs) for r in refine]
        los, his = pdmpval.flow._feature_windows(refine, fs)
        edges = [e for w in windows for e in w]
        ys = [*edges, *(math.nextafter(e, -math.inf) for e in edges),
              *(math.nextafter(e, math.inf) for e in edges),
              *(lo - bar * g_max for lo, _ in windows),
              *np.random.default_rng(12).uniform(2.9, 7.1, 300)]
        taken = []
        for y in ys:
            got = pdmpval.flow._capped_prefix(np.array([y]), lambda t: t, _slow_drift, 10.0,
                                              1e-5, fs, los, his, g_max)
            want = all((not lo <= y <= hi) and (not y < lo or (lo - y) / g_max >= bar)
                       for lo, hi in windows)
            assert got == int(want), y
            taken.append(got)
        assert 0 < sum(taken) < len(taken) if refine else all(taken)


# the loan drift at six widths and every march table's drift
_SOLVE_BUILDS = {**_MARCH_BUILDS,
                 **{f"loan-{eps}": lambda eps=eps: SmoothedLoanModel.build(eps=eps)
                    for eps in (0.0025, 5e-4)}}


@pytest.fixture(scope="module", params=sorted(_SOLVE_BUILDS))
def solve_case(request):
    """A build's RK45 segment table and table, with scipy's solve of the same problem."""
    (solve,), built = _capture(_SOLVE_BUILDS[request.param], "rk45")
    return pdmpval._numerics.rk45(*solve), _scipy_solve(*solve), getattr(built, "table", built)


class TestSolverMatchesScipy:
    """The in-package RK45 and its dense output against scipy's ``solve_ivp``."""

    def test_segments_bit_identical(self, solve_case):
        # every bound too, but for an event end: the first float of the last
        # step at which the dense output reaches the stop, not brentq's root
        (ts, segs), sol, _ = solve_case
        assert sol.success
        ode = sol.sol
        want = [(sp.t_old, sp.h, sp.y_old[0], *sp.Q[0]) for sp in ode.interpolants]
        assert _same_bits(segs, want)
        assert _same_bits(ts[:-1], ode.ts[:-1])
        if sol.status == 1:
            assert abs(ts[-1] - ode.ts[-1]) <= 3.0 * np.spacing(ode.ts[-1])
        else:
            assert _same_bits(ts[-1], ode.ts[-1])

    def test_dense_output_bit_identical(self, solve_case):
        # the grid's positions are the dense output at its times, bit for bit,
        # and that is scipy's OdeSolution to an ulp or two of the largest state
        (ts, segs), sol, table = solve_case
        grid_y = pdmpval._numerics.array_dense_output((ts, segs))(table.grid_t)
        assert _same_bits(table.grid_y, grid_y)
        want = sol.sol(table.grid_t)[0]
        assert np.max(np.abs(grid_y - want)) <= 2.0 * np.spacing(np.max(np.abs(want)))


class TestRewardIntegral:
    def test_zero_horizon(self, loan_model):
        table = loan_model.table
        assert table.stage(*table.start(0.0), 0.0) == 0.0

    def test_zero_before_reward_band(self, loan_model):
        # from 0 the band starts only after ~0.64 time units
        table = loan_model.table
        assert table.stage(*table.start(0.0), 0.3) == 0.0
        assert table.stage(*table.start(-50.0), 10.0) == 0.0

    def test_perpetuity_from_barrier(self, loan_model):
        table = loan_model.table
        val = table.stage(*table.start(B), np.inf)
        assert 0.999 * C / DELTA <= val <= C / DELTA

    def test_bounded_and_monotone(self, loan_model, rng):
        table = loan_model.table
        ys = np.sort(rng.uniform(-30.0, B, 40))
        ts = np.sort(np.concatenate([rng.uniform(0.0, 100.0, 39), [np.inf]]))
        vals = np.stack([table.stage(*table.start(np.full(ts.shape, y)), ts) for y in ys])
        assert np.max(vals) <= C / DELTA + 1e-9
        assert np.min(vals) >= 0.0
        assert np.all(np.diff(vals, axis=0) >= -1e-10)  # in y
        assert np.all(np.diff(vals, axis=1) >= -1e-10)  # in t

    def test_matches_direct_quadrature(self, loan_model):
        # independent oracle: integrate the discounted reward rate along the
        # flow by adaptive quadrature; agreement up to the documented
        # frozen-tail budget 1e-6 * c/delta = 2.5e-4
        table = loan_model.table
        for y0, t1 in ((0.0, 2.0), (3.0, 1.5), (B - 0.5, 4.0), (-2.0, 3.0)):
            direct, _ = quad(
                lambda s: math.exp(-DELTA * s)
                * float(loan_model.spec.reward(_advance(table, y0, s)[1])),
                0.0, t1, limit=300)
            assert table.stage(*table.start(y0), t1) == pytest.approx(direct, abs=2.5e-4)

    def test_reward_from_master_agrees(self, loan_model, rng):
        table = loan_model.table
        y = rng.uniform(-5.0, B, 50)
        t = rng.uniform(0.0, 20.0, 50)
        t0 = table.time_of(y)
        assert np.allclose(table.reward_from_master(t0, t), table.stage(*table.start(y), t),
                           atol=1e-12)

    def test_negative_horizon_rejected(self, loan_model):
        table = loan_model.table
        with pytest.raises(InputError):
            table.stage(*table.start(0.0), -1.0)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _same_bits_or_nan(a, b):
    """_same_bits, except that any two NaNs match (their sign bits may differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    return _same_bits(np.where(both_nan, 0.0, a), np.where(both_nan, 0.0, b))


def _lookup_probe_states(table, rng):
    """Positions over the whole table: uniform, the near-ruin band, grid nodes
    and their nextafter neighbours, and the ends with points beyond them."""
    gy = table.grid_y
    return np.concatenate([
        rng.uniform(table.lower, table.upper, 3000),
        table.lower + rng.uniform(0.0, 1e-3, 1000),
        gy[::9], np.nextafter(gy[::13], np.inf), np.nextafter(gy[::13], -np.inf),
        [table.y_start, table.y_end, table.y_start - 1.0, table.lower - 5.0,
         table.y_end + 1.0, table.upper],
    ])


def _advance(table, y, t):
    """Reward collected and state reached running the flow from y for time t:
    one pass of the lookup chain."""
    return table.stage(*table.start(y), t, position=True)


def _chain(table, y, t):
    """The same from the public lookups: the reward from the master time of y,
    and the position at that time plus t."""
    t0 = table.time_of(y)
    return table.reward_from_master(t0, t), table.pos_at(t0 + t)


class TestAdvance:
    """stage(*start(y), t, position=True) against reward_from_master(time_of(y), t)
    and pos_at(time_of(y) + t)."""

    def _assert_matches_chain(self, table, y, t):
        y, t = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(t, dtype=float))
        got, want = _advance(table, y, t), _chain(table, y, t)
        assert _same_bits(got[0], want[0])
        assert _same_bits(got[1], want[1])

    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_bit_identical_over_the_table(self, loan_model, const_table, rng, which):
        table = loan_model.table if which == "loan" else const_table
        y = _lookup_probe_states(table, rng)
        t = -np.log(rng.uniform(size=y.size))
        self._assert_matches_chain(table, y, t)

    def test_grid_nodes_and_neighbours(self, loan_model, rng):
        table = loan_model.table
        for y in (table.grid_y, np.nextafter(table.grid_y, np.inf),
                  np.nextafter(table.grid_y, -np.inf)):
            self._assert_matches_chain(table, y, rng.uniform(0.0, 3.0, y.size))

    def test_ends_and_beyond(self, loan_model, rng):
        table = loan_model.table
        y = np.array([table.y_start, table.y_end, table.y_start - 1e-9, table.lower - 1.0,
                      table.y_end + 1e-9, table.upper + 1.0])
        self._assert_matches_chain(table, y, rng.uniform(0.0, 3.0, y.size))

    def test_start_exactly_at_tail_anchor(self, loan_model):
        table = loan_model.table
        assert table.time_of(table.y_tail) == table.t_tail
        y = np.full(5, table.y_tail)
        self._assert_matches_chain(table, y, np.array([0.0, 1e-9, 0.5, 40.0, np.inf]))

    def test_end_time_past_horizon_and_zero_time(self, loan_model, rng):
        table = loan_model.table
        y = _lookup_probe_states(table, rng)[:2000]
        for t in (0.0, table.horizon, 2.0 * table.horizon, 700.0, np.inf):
            self._assert_matches_chain(table, y, t)
        reward, moved = _advance(table, y, 0.0)
        assert np.all(reward == 0.0)
        assert _same_bits(moved, table.pos_at(table.time_of(y)))

    def test_bisection_straggler(self, loan_model, rng, monkeypatch):
        # with no residual accepted every interior point is a straggler, and
        # gets the first float at which the position reaches it
        table = loan_model.table
        calls = []
        real = pdmpval.flow.first_root
        monkeypatch.setattr(pdmpval.flow, "first_root",
                            lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(pdmpval.flow, "_RESID_TOL", 1e-30)
        y = rng.uniform(-90.0, B - 0.1, 12)
        self._assert_matches_chain(table, y, rng.uniform(0.0, 3.0, y.size))
        assert len(calls) == 2  # one vectorised call per time solve
        t = table.time_of(y)
        assert np.all(table.pos_at(t) >= y) and np.all(table.pos_at(np.nextafter(t, 0.0)) < y)

    def test_shapes_broadcast(self, loan_model):
        table = loan_model.table
        y = np.array([[-10.0, 0.0], [1.0, B]])
        reward, moved = _advance(table, y, 2.0)
        assert reward.shape == moved.shape == (2, 2)
        self._assert_matches_chain(table, y, 2.0)

    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_scalar_start_equals_the_full_batch(self, loan_model, const_table, which):
        # a scalar y is solved once and broadcast against t
        table = loan_model.table if which == "loan" else const_table
        tt = table.t_tail
        t = np.array([0.0, 0.5, 3.0, tt, np.nextafter(tt, -np.inf), np.nextafter(tt, np.inf),
                      1e4, np.inf])
        # pos_at(t_tail - 0.5) starts where the loan reward ramps up
        for y in (0.0, table.y_start, -200.0, table.pos_at(tt - 0.5), table.y_end, table.upper,
                  np.nextafter(0.0, 1.0), np.nan):
            want = _advance(table, np.full(t.shape, y), t)
            got = _advance(table, y, t)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
            assert _same_bits(table.stage(*table.start(y), t), want[0])
            got = _advance(table, y, t.reshape(2, 4))
            assert _same_bits(got[0], want[0].reshape(2, 4))
            assert _same_bits(got[1], want[1].reshape(2, 4))
            for i, ti in enumerate(t):
                reward, moved = _advance(table, y, ti)
                assert _same_bits(reward, want[0][i]) and _same_bits(moved, want[1][i])
                assert _same_bits(table.stage(*table.start(y), ti), want[0][i])

    def test_negative_time_rejected(self, loan_model):
        with pytest.raises(InputError):
            _advance(loan_model.table, 0.0, -1.0)
        with pytest.raises(InputError):
            loan_model.table.stage(*loan_model.table.start(0.0), np.array([1.0, -1.0]))
        with pytest.raises(InputError):
            loan_model.table.reward_from_master(0.0, -1.0)
        with pytest.raises(InputError):
            loan_model.table.reward_from_master(np.array([0.0, 400.0]), np.array([1.0, -1e-300]))

    def test_nan_time_rejected(self, loan_model):
        # a NaN flow time would read the table end as the position reached;
        # +inf stays a flow time
        table = loan_model.table
        with pytest.raises(InputError, match="NaN"):
            table.stage(*table.start(0.0), np.nan, position=True)
        with pytest.raises(InputError, match="NaN"):
            table.stage(*table.start(np.array([0.0, 1.0])), np.array([1.0, np.nan]))
        with pytest.raises(InputError, match="NaN"):
            table.reward_from_master(0.0, np.nan)
        assert table.stage(*table.start(0.0), np.inf, position=True)[1] == table.y_end


def _edge_states(table):
    """States at and beyond both ends of the table, the tail anchor and the
    infinities and NaN."""
    return np.array([table.y_start, np.nextafter(table.y_start, -np.inf), table.lower - 5.0,
                     0.5 * (table.y_start + table.y_end), table.y_tail, table.y_end,
                     table.upper + 1.0, -np.inf, np.inf, np.nan])


def _edge_times(table):
    """Master times and flow times at, around and beyond the tail anchor and
    the horizon, negative ones, the infinities and NaN."""
    tt = table.t_tail
    return np.array([0.0, -0.0, 1e-300, -1e-300, -1.0, 0.5, tt, np.nextafter(tt, -np.inf),
                     table.horizon, 2.0 * table.horizon, 700.0, np.inf, -np.inf, np.nan])


class TestLookupsAreTheChain:
    """time_of and reward_from_master are start and stage composed: the same
    bits, types and shapes on the edge inputs."""

    @staticmethod
    def _cases(table):
        y = _edge_states(table)
        Y = np.meshgrid(y, _edge_times(table))[0]
        return [Y, Y.ravel(), y[:8].reshape(2, 4), y[0], y[:4]]

    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_state_lookups(self, loan_model, const_table, which):
        table = loan_model.table if which == "loan" else const_table
        for y in self._cases(table):
            assert _same_bits(table.time_of(y), table.start(y)[0])
        for y in _edge_states(table):
            T0 = table.start(y)[0]
            assert isinstance(table.time_of(y), float) and _same_bits(table.time_of(y), T0)

    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_reward_from_master(self, loan_model, const_table, which):
        table = loan_model.table if which == "loan" else const_table
        _, _, reference = _scipy_lookups(table)
        T0 = _edge_times(table)
        t = np.abs(T0[:-1])  # every edge time but NaN, which stage refuses
        grid_T0, grid_t = np.meshgrid(T0, t)
        with np.errstate(invalid="ignore"):  # -inf + inf
            for a, b in ((grid_T0, grid_t), (T0[:12].reshape(3, 4), t[:4]),
                         (T0[:4], t[:12].reshape(3, 4)), (T0, t[3]), (T0[4], t)):
                got = table.reward_from_master(a, b)
                a_full, b_full = np.broadcast_arrays(np.asarray(a), np.asarray(b))
                assert _same_bits_or_nan(got, reference(a_full, b_full))
                k0 = pdmpval.flow._interval(table.grid_t, np.ravel(a)).reshape(np.shape(a))
                assert _same_bits(got, table.stage(np.asarray(a), k0, b))
            for a, b in zip(grid_T0.ravel(), grid_t.ravel()):
                got = table.reward_from_master(a, b)
                assert isinstance(got, float)
                assert _same_bits_or_nan(got, reference(np.array([a]), np.array([b]))[0])


def _ruin_end_batches(table, rng):
    """Stage-start batches around the ruin end, where positions clamp to y_start."""
    y0 = table.y_start
    never = rng.uniform(y0, table.y_end, 40)
    never[:3] = np.nextafter(y0, np.inf), y0 + 4e-15 * (abs(y0) + 1.0), y0 + 1e-10
    interleaved = never.copy()
    interleaved[::3] = y0
    with_nan = interleaved.copy()
    with_nan[4] = np.nan
    below = np.concatenate([y0 - rng.uniform(0.0, 1e-3, 20), [np.nextafter(y0, -np.inf)],
                            table.lower - rng.uniform(0.0, 10.0, 19)])
    return {"all at y_start": np.full(40, y0), "all below": below, "never at": never,
            "interleaved": interleaved, "with NaN": with_nan}


class TestRuinEndConstant:
    """Positions at y_start (clamped there or parked at the ruin end) take time
    +0.0 in interval 0 from the time_of chain itself."""

    @pytest.mark.parametrize("name", sorted(_MARCH_BUILDS))
    def test_chain_puts_y_start_at_time_zero(self, name):
        built = _MARCH_BUILDS[name]()
        table = getattr(built, "table", built)
        t, k = table._solve_time(np.array([table.y_start]))
        assert _same_bits(t, [0.0]) and k.tolist() == [0]

    @pytest.mark.parametrize("which", ["loan", "const"])
    @pytest.mark.parametrize("name", ["all at y_start", "all below", "never at",
                                      "interleaved", "with NaN"])
    def test_batch_equals_scalar_calls(self, loan_model, const_table, rng, which, name):
        table = loan_model.table if which == "loan" else const_table
        y = _ruin_end_batches(table, rng)[name]
        t = rng.uniform(0.0, 3.0, y.size)
        reward, moved = _advance(table, y, t)
        times = table.time_of(y)
        for i in range(y.size):
            r, m = _advance(table, y[i], t[i])
            assert _same_bits(reward[i], r) and _same_bits(moved[i], m)
            assert _same_bits(times[i], table.time_of(y[i]))


class TestLocate:
    """locate finds the grid_y interval k of a state and bounds its master time
    by t_up = grid_t[k + 1] up to one step e of reward_cut; start reuses k."""

    @pytest.mark.parametrize("which", ["eps=0.01", "eps=0.08", "const"])
    def test_interval_bound_and_start(self, loan_model, wide_table, const_table, rng, which):
        table = {"eps=0.01": loan_model.table, "eps=0.08": wide_table,
                 "const": const_table}[which]
        y = np.concatenate([_lookup_probe_states(table, rng),
                            *_ruin_end_batches(table, rng).values()])
        k, t_up = table.locate(y)
        want = pdmpval.flow._interval(table.grid_y, np.clip(y, table.y_start, table.y_end))
        assert np.array_equal(k, want) and _same_bits(t_up, table.grid_t[want + 1])
        T0, k0 = table.start(y, k)
        T0_want, k0_want = table.start(y)
        assert _same_bits(T0, T0_want) and np.array_equal(k0, k0_want)

    @pytest.mark.parametrize("which", ["eps=0.01", "eps=0.08"])
    def test_time_within_one_step_of_the_bound(self, loan_model, wide_table, which):
        # states at, just under and just over every knot below the band,
        # where the bound is tightest: time_of(y) <= t_up + e
        table = loan_model.table if which == "eps=0.01" else wide_table
        e = table._cut_step
        knots = table.grid_y[:table._kz + 1]
        y = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        k, t_up = table.locate(y)
        below = t_up + e < table.reward_cut(0)
        assert below.mean() > 0.95  # all but the knots within e of the band
        assert np.all(table.time_of(y[below]) <= t_up[below] + e)


@pytest.fixture(scope="module")
def wide_table():
    """The widest width of the epsilon study, the other loan table shape."""
    return SmoothedLoanModel.build(eps=0.08).table


def _guide_probes(knots, origin):
    """Every knot (the ends are y_start and y_end on grid_y), its float
    neighbours, the midpoints, points beyond both ends, the infinities and
    NaN."""
    span = knots[-1] - knots[0]
    return np.concatenate([
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        0.5 * (knots[:-1] + knots[1:]),
        [knots[0] - 1e-9 * span, knots[0] - span, origin, origin - 1.0,
         knots[-1] + 1e-9 * span, knots[-1] + span, np.inf, -np.inf, np.nan],
    ])


class TestGuidedLookup:
    """The guide tables' intervals against the binary search they replace."""

    @pytest.mark.parametrize("which", ["eps=0.01", "eps=0.08", "const"])
    def test_equals_binary_search(self, loan_model, wide_table, const_table, which):
        table = {"eps=0.01": loan_model.table, "eps=0.08": wide_table,
                 "const": const_table}[which]
        for knots, guide in ((table.grid_t, table._t_guide), (table.grid_y, table._y_guide)):
            x = _guide_probes(knots, table.lower)
            got = guide.find(x.copy())
            assert got.dtype == np.intp
            assert np.array_equal(got, pdmpval.flow._interval(knots, x))

    def test_settle_from_any_guess(self, loan_model, rng):
        guide, knots = loan_model.table._y_guide, loan_model.table.grid_y
        x = _guide_probes(knots, loan_model.table.lower)
        want = pdmpval.flow._interval(knots, x)
        for guess in (want, np.maximum(want - 1, 0), np.minimum(want + 1, len(knots) - 2),
                      rng.integers(0, len(knots) - 1, x.size)):
            assert np.array_equal(guide.settle(guess.astype(np.intp), x), want)

    def test_guess_is_one_step_from_most_queries(self, loan_model, rng):
        # queries spread like the integrand's: geometric above the ruin end,
        # uniform over the master times a deep estimate reaches
        table = loan_model.table
        gap0 = table.y_start - table.lower
        reach = np.log((table.y_end - table.lower) / gap0)
        y = table.lower + gap0 * np.exp(rng.uniform(0.0, reach, 20_000))
        t = rng.uniform(0.0, 400.0, 20_000)
        for guide, x in ((table._y_guide, y), (table._t_guide, t)):
            guess = guide.table[guide._slot(x if guide.key is None else guide.key(x))]
            gap = pdmpval.flow._interval(guide.knots, x) - guess
            assert np.mean(np.abs(gap) <= 1) >= 0.99

    def test_guide_is_small(self, loan_model):
        for guide in (loan_model.table._t_guide, loan_model.table._y_guide):
            assert guide.table.dtype == guide.split.dtype == guide.base.dtype == np.int32
            assert guide.table.size <= 3 * guide.knots.size

    def test_large_table_offsets_fit_int32(self):
        # 60,000 knots, two of them 1e-12 apart near the top: uncapped, their
        # bucket would take 1e8 slots, and bucket * split overflows int32
        # from a split of 35,792 up
        knots = np.linspace(0.0, 1.0, 60_000)
        knots[-5] = knots[-6] + 1e-12
        guide = pdmpval.flow._Guide(knots)
        assert guide.table.size <= 3 * knots.size
        assert guide.split.max() * (knots.size - 1) < 2 ** 31
        x = _guide_probes(knots, 0.0)
        assert np.array_equal(guide.find(x.copy()), pdmpval.flow._interval(knots, x))

    @pytest.mark.parametrize("which", ["eps=0.01", "eps=0.08"])
    def test_first_stage_end_times(self, loan_model, wide_table, monkeypatch, rng, which):
        # the integrand's first grid_t lookups, T(x0) - ln v clamped as
        # FlowTable.stage clamps them, from below, inside and at the barrier
        table = {"eps=0.01": loan_model.table, "eps=0.08": wide_table}[which]
        real = pdmpval.flow._interval
        searched = _searched(monkeypatch)
        v = np.concatenate([rng.uniform(size=20_000), [1.0, 0.5, 1e-300]])
        for x0 in (0.0, B, -50.0):
            te = table.time_of(x0) - np.log(v)
            searched.clear()
            uc, k = table._clamped_time(te)
            assert sum(searched) <= 0.005 * te.size
            assert np.array_equal(k, real(table.grid_t, uc))

    def test_deep_estimate_rarely_searches(self, loan_model, monkeypatch):
        # one Sobol' estimate at the benchmark's deep-qmc shape: the points
        # either guide sends to the binary search, against the grid_t lookups
        t_guide, real_find = loan_model.table._t_guide, pdmpval.flow._Guide.find
        looked_up = []
        monkeypatch.setattr(pdmpval.flow._Guide, "find", lambda self, x: (
            self is t_guide and looked_up.append(x.size)) or real_find(self, x))
        searched = _searched(monkeypatch)
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=4096, d=64, seed=777, replicates=4)
        estimate_value(0.0, 32, rule, loan_model)
        assert sum(looked_up) > 4 * 4096
        assert sum(searched) < 0.005 * sum(looked_up)


def _searched(monkeypatch):
    """Record the point count of every binary search the guides fall back to."""
    sizes = []
    real = pdmpval.flow._interval
    monkeypatch.setattr(pdmpval.flow, "_interval",
                        lambda knots, x: sizes.append(np.size(x)) or real(knots, x))
    return sizes


def _scipy_lookups(table):
    """The public lookups evaluated by scipy spline objects built from the
    table's arrays: the interpolants every FlowTable lookup must reproduce."""
    pos = CubicHermiteSpline(table.grid_t, table.grid_y, table.grid_dy, extrapolate=False)
    dpos = pos.derivative()
    seed = CubicHermiteSpline(table.grid_y, table.grid_t,
                              1.0 / np.maximum(table.grid_dy, 1e-300))
    rew = PchipInterpolator(table.reward_t, table.reward_cum, extrapolate=False)
    h = table.horizon

    def pos_at(u):
        u = np.asarray(u, dtype=float)
        return pos(np.where(np.isnan(u), h, np.clip(u, 0.0, h)))

    def time_of(y):
        yc = np.clip(np.asarray(y, dtype=float), table.y_start, table.y_end)
        t = np.clip(seed(yc), 0.0, h)
        t = np.clip(t - (pos(t) - yc) / np.maximum(dpos(t), 1e-300), 0.0, h)
        bad = ((np.abs(pos(t) - yc) > pdmpval.flow._RESID_TOL * max(1.0, table.y_end - table.y_start))
               & (yc < table.y_end) & (yc > table.y_start))
        for i in np.flatnonzero(bad):
            # the table's bisection root: the first float at which pos reaches yc
            f = lambda u: float(pos(u)) - yc[i]
            r = brentq(f, 0.0, h, xtol=1e-14)
            while f(np.nextafter(r, 0.0)) >= 0.0:
                r = np.nextafter(r, 0.0)
            while f(r) < 0.0:
                r = np.nextafter(r, h)
            t[i] = r
        return t

    def reward_from_master(t0, t):
        te = t0 + t
        t1 = np.clip(np.minimum(te, table.t_tail), 0.0, table.t_tail)
        t0c = np.clip(t0, 0.0, table.t_tail)
        out = np.zeros(te.shape)
        out += np.where(t0 < table.t_tail,
                        np.exp(table.delta * t0c) * (rew(t1) - rew(t0c)), 0.0)
        lead = np.maximum(table.t_tail - t0, 0.0)
        with np.errstate(invalid="ignore"):
            tail = table.l_tail / table.delta * (np.exp(-table.delta * lead)
                                                 - np.exp(-table.delta * t))
        return out + np.where(te > table.t_tail, tail, 0.0)

    return time_of, pos_at, reward_from_master


class TestLookupsMatchScipySplines:
    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_bit_identical(self, loan_model, const_table, rng, which):
        table = loan_model.table if which == "loan" else const_table
        time_of, pos_at, reward_from_master = _scipy_lookups(table)
        y = _lookup_probe_states(table, rng)
        t = -np.log(rng.uniform(size=y.size))
        t0 = table.time_of(y)
        assert _same_bits(t0, time_of(y))
        u = np.concatenate([t0 + t, table.grid_t,
                            [-1.0, np.inf, -np.inf, np.nan, 2.0 * table.horizon]])
        assert _same_bits(table.pos_at(u), pos_at(u))
        assert _same_bits(table.reward_from_master(t0, t), reward_from_master(t0, t))
        tr = np.concatenate([table.reward_t, np.nextafter(table.reward_t, np.inf),
                             np.nextafter(table.reward_t, -np.inf), [-1.0, 1e6]])
        assert _same_bits(table.reward_from_master(tr, 0.5), reward_from_master(tr, 0.5))

    def test_zero_stretch_ends_where_reward_turns_nonzero(self, loan_model, wide_table,
                                                          const_table):
        # Simpson's rule can make the first nonzero value negative (-1.5e-22
        # at eps = 0.08, -0.11 on the constant table, where nothing is
        # skipped), so the stretch ends at the first nonzero value
        for table in (loan_model.table, wide_table, const_table):
            kz = table._kz
            assert kz == int(np.argmax(table.reward_cum != 0.0)) - 1
            assert not table._reward_c[:, :kz].any() and table._reward_c[:, kz].any()
        # the eps = 0.01 table reaches b - 2 eps, where dividends start, in interval 3188
        assert loan_model.table._kz == 3188
        assert loan_model.table.reward_cum[3189] > 0.0
        assert const_table._kz == 0 and const_table.reward_cum[1] < 0.0

    def test_zero_stretch_edges(self, loan_model, rng):
        table = loan_model.table
        kz = table._kz
        time_of, _, reward_from_master = _scipy_lookups(table)
        ends = table.reward_t[kz - 2:kz + 2]
        ends = np.concatenate([ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
        # starts in [end / 2, end] make end - start exact, so start + t is the end
        t0 = np.stack([0.5 * ends, rng.uniform(0.5, 1.0, ends.size) * ends,
                       np.nextafter(ends, -np.inf), ends, np.zeros_like(ends)])
        t = ends - t0
        assert np.array_equal(t0 + t, np.broadcast_to(ends, t0.shape))
        got = table.reward_from_master(t0, t)  # 2-D T0
        assert _same_bits(got, reward_from_master(t0, t))
        assert (got == 0.0).any() and (got > 0.0).any()
        # a scalar T0: broadcast by reward_from_master, and kept scalar by
        # stage after start(y), whose start time is solved once
        for start in (table.reward_t[kz - 3], 0.5 * (table.reward_t[kz - 3] + ends.min()),
                      ends.min()):
            assert _same_bits(table.reward_from_master(float(start), ends - start),
                              reward_from_master(np.full(ends.shape, start), ends - start))
            y = table.pos_at(start)
            assert _same_bits(table.stage(*table.start(y), ends - start),
                              reward_from_master(time_of(np.full(ends.shape, y)), ends - start))

    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_tail_only_reward(self, loan_model, const_table, rng, which):
        # a reward collected only past the tail anchor: the core is zero on
        # every interval, so only the frozen-rate tail counts.  The constant
        # table's reward grid is its whole grid, whose last interval, closed
        # on the right, is never skipped
        base = loan_model.table if which == "loan" else const_table
        table = dataclasses.replace(base, reward_cum=np.zeros_like(base.reward_cum))
        nr = len(table.reward_t)
        assert table._kz == min(nr - 1, len(table.grid_t) - 2) and table.l_tail > 0.0
        time_of, _, reward_from_master = _scipy_lookups(table)
        tt = table.t_tail
        t0 = np.concatenate([time_of(_lookup_probe_states(table, rng)), table.reward_t[-3:],
                             [tt, np.nextafter(tt, -np.inf)]])
        for t in (-np.log(rng.uniform(size=t0.size)), tt - t0, np.nextafter(tt - t0, np.inf),
                  0.0, np.inf):
            t = np.maximum(np.broadcast_to(t, t0.shape), 0.0)
            got = table.reward_from_master(t0, t)
            assert _same_bits(got, reward_from_master(t0, t))
        assert table.reward_from_master(0.0, tt) == 0.0
        assert table.reward_from_master(0.0, np.inf) > 0.0

    @pytest.mark.parametrize("which", ["loan", "const"])
    def test_reward_grid_and_anchor_follow_the_integral(self, loan_model, const_table, which):
        base = loan_model.table if which == "loan" else const_table
        for k in (2, len(base.reward_cum) - 1):
            table = dataclasses.replace(base, reward_cum=base.reward_cum[:k])
            assert np.array_equal(table.reward_t, base.grid_t[:k])
            assert table.t_tail == base.grid_t[k - 1] and table.y_tail == base.grid_y[k - 1]

    def test_scalar_lookups_return_floats(self, loan_model):
        table = loan_model.table
        time_of, pos_at, _ = _scipy_lookups(table)
        assert isinstance(table.time_of(1.0), float)
        assert isinstance(table.pos_at(3.0), float)
        assert isinstance(table.reward_from_master(3.0, 1.0), float)
        assert table.time_of(1.0) == time_of(np.array([1.0]))[0]
        assert table.pos_at(3.0) == pos_at(3.0)


class TestBuilderValidation:
    def test_negative_drift_rejected(self):
        with pytest.raises(ModelError):
            build_flow_table(lambda y: -1.0 + 0.0 * np.asarray(y), (0.0, 1.0), 0.1,
                             lambda y: 0.0 * np.asarray(y))

    def test_zero_drift_at_start_rejected(self):
        with pytest.raises(ModelError):
            build_flow_table(lambda y: 0.0 * np.asarray(y), (0.0, 1.0), 0.1,
                             lambda y: 0.0 * np.asarray(y))

    def test_empty_domain_rejected(self):
        with pytest.raises(InputError):
            build_flow_table(lambda y: 1.0 + 0.0 * np.asarray(y), (1.0, 1.0), 0.1,
                             lambda y: 0.0 * np.asarray(y))

    def test_bad_discount_rejected(self):
        with pytest.raises(InputError):
            build_flow_table(lambda y: 1.0 + 0.0 * np.asarray(y), (0.0, 1.0), 0.0,
                             lambda y: 0.0 * np.asarray(y))

    @pytest.mark.parametrize("domain, delta", [
        ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf), ((0.0, 1.0), -0.1),
        ((-math.inf, 1.0), 0.1), ((math.nan, 1.0), 0.1), ((0.0, math.inf), 0.1),
    ], ids=["delta-nan", "delta-inf", "delta-negative", "lower-minus-inf", "lower-nan",
            "upper-inf"])
    def test_bad_discount_or_domain_rejected_before_the_solve(self, domain, delta,
                                                              monkeypatch):
        monkeypatch.setattr(pdmpval.flow, "rk45", lambda *a: pytest.fail("solved"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                build_flow_table(lambda y: 1.0 + 0.0 * np.asarray(y), domain, delta,
                                 _flat_reward)

    @pytest.mark.parametrize("drift", [
        lambda y: np.where(np.asarray(y) > 0.5, np.nan, 1.0),  # NaN on part of the domain
        lambda y: np.full(np.shape(y), np.nan),
        lambda y: np.full(np.shape(y), np.inf),
    ], ids=["nan-part", "nan-all", "inf"])
    def test_non_finite_drift_rejected(self, drift):
        with pytest.raises(ModelError, match="finite"):
            build_flow_table(drift, (0.0, 1.0), 0.1, _flat_reward)

    @pytest.mark.parametrize("kwargs", [
        {"feature_scale": math.nan}, {"feature_scale": 0.0}, {"feature_scale": -1.0},
        {"feature_scale": math.inf}, {"refine_y": (math.nan,)},
        {"refine_y": (0.5, math.inf)}, {"refine_y": (-math.inf,)},
    ], ids=["fs-nan", "fs-zero", "fs-negative", "fs-inf", "refine-nan", "refine-inf",
            "refine-minus-inf"])
    def test_bad_features_rejected_before_the_solve(self, kwargs, monkeypatch):
        monkeypatch.setattr(pdmpval.flow, "rk45", lambda *a: pytest.fail("solved"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="feature"):
                build_flow_table(_slow_drift, (0.0, 1.0), 0.1, _flat_reward, **kwargs)

    def test_reward_feature_inside_frozen_band_rejected(self):
        # the path ends 1e-12 of the span below the top, at the tail anchor:
        # a reward step above it would be charged at the rate below forever
        step = lambda y: np.where(np.asarray(y, dtype=float) > 10.0 - 1e-12, 1.0, 0.0)
        with pytest.raises(ModelError, match="frozen tail band"):
            build_flow_table(lambda y: 2.0 + 0.0 * np.asarray(y), (0.0, 10.0), 0.1, step)
