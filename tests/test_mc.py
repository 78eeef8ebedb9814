import math
from dataclasses import dataclass

import numpy as np
import pytest

from pdmpval import mc
from pdmpval.cubature import keyed_stream
from pdmpval.errors import InputError, ModelError
from pdmpval.loan import LoanParams
from pdmpval.mc import MCResume, mc_reference

C, RHO, B, LAM, DELTA = 5.0, 0.05, 3.24289, 4.0, 0.02


@dataclass(frozen=True)
class PathResult:
    """One simulated path: its discounted dividend stream and how it ended."""

    discounted_dividends: float
    ruin_time: float  # +inf when the path was truncated before ruin
    jumps_used: int
    truncated: bool


def _time_to_zero(y, c, rho):
    """Ascent time of the loan flow from y to 0; 0 for y >= 0."""
    if y >= 0.0:
        return 0.0
    frac = rho * y / c
    return math.inf if frac <= -1.0 else -math.log1p(frac) / rho


def _barrier_time(y, c, rho, b):
    """Time for the deterministic flow to reach the barrier from y."""
    if y >= 0.0:
        return (b - min(y, b)) / c
    return _time_to_zero(y, c, rho) + b / c


def _position_after(y, dt, c, rho, b):
    """Flow position after dt, never above the barrier."""
    t_zero = _time_to_zero(y, c, rho)
    if dt < t_zero:
        pos = (y + c / rho) * math.exp(rho * dt) - c / rho
    else:
        pos = max(y, 0.0) + c * (dt - t_zero)
    return min(pos, b)


def simulate_path(params, x0, rng, max_jumps=512):
    """Scalar event-driven oracle for the vectorised ``mc._simulate_chunk``.

    Dividends accrue at rate c, discounted at delta, exactly while the state
    sits at the barrier; ruin is a jump to or below -c/rho.  A path that
    exhausts ``max_jumps`` before ruin is flagged truncated.
    """
    p = params
    if x0 > p.b:
        raise InputError(f"start value {x0} above the barrier {p.b}")
    if x0 <= p.ruin_level:
        return PathResult(0.0, 0.0, 0, False)
    y = float(x0)
    t = 0.0
    pv = 0.0
    for k in range(1, max_jumps + 1):
        dt = rng.exponential(1.0 / p.lam)
        t_hit = _barrier_time(y, p.c, p.rho, p.b)
        if dt > t_hit:
            pv += p.c / p.delta * (math.exp(-p.delta * (t + t_hit)) - math.exp(-p.delta * (t + dt)))
        y = _position_after(y, dt, p.c, p.rho, p.b) - rng.exponential(1.0 / p.alpha)
        t += dt
        if y <= p.ruin_level:
            return PathResult(pv, t, k, False)
    return PathResult(pv, math.inf, max_jumps, True)


def path_rng(seed):
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))


def _simulate_chunk_oracle(params, x0, n_paths, seed, chunk, max_jumps):
    """Full-width vectorised reference for ``mc._simulate_chunk``.

    Every path is advanced on every step and the ruined ones are masked out
    with ``np.where``; the fused kernel must reproduce it bit for bit.
    """

    def time_to_zero(y, c, rho):
        frac = np.maximum(rho * np.minimum(y, 0.0) / c, -1.0)
        with np.errstate(divide="ignore"):
            return -np.log1p(frac) / rho

    def barrier_time(y, c, rho, b):
        t_up = np.where(y >= 0.0, (b - np.minimum(y, b)) / c, 0.0)
        return np.where(y >= 0.0, t_up, time_to_zero(y, c, rho) + b / c)

    def position_after(y, dt, c, rho, b):
        t_zero = np.where(y < 0.0, time_to_zero(y, c, rho), 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            below = (y + c / rho) * np.exp(rho * np.minimum(dt, t_zero)) - c / rho
        above_start = np.where(y < 0.0, 0.0, y)
        above = above_start + c * np.maximum(dt - t_zero, 0.0)
        pos = np.where(dt < t_zero, below, above)
        return np.minimum(pos, b)

    p = params
    rng = keyed_stream(mc._MC_PATH_TAG, seed, chunk)
    y = np.full(n_paths, float(x0))
    t = np.zeros(n_paths)
    pv = np.zeros(n_paths)
    alive = np.full(n_paths, x0 > p.ruin_level)
    jumps = np.zeros(n_paths, dtype=np.int64)
    for _ in range(max_jumps):
        dt = rng.exponential(1.0 / p.lam, size=n_paths)
        sizes = rng.exponential(1.0 / p.alpha, size=n_paths)
        if not alive.any():
            continue
        t_hit = barrier_time(y, p.c, p.rho, p.b)
        gain = np.where(
            dt > t_hit,
            p.c / p.delta * (np.exp(-p.delta * (t + t_hit)) - np.exp(-p.delta * (t + dt))),
            0.0,
        )
        pv += np.where(alive, gain, 0.0)
        y = np.where(alive, position_after(y, dt, p.c, p.rho, p.b) - sizes, y)
        t = np.where(alive, t + dt, t)
        jumps += alive.astype(np.int64)
        alive &= y > p.ruin_level
    return pv, jumps, alive


def assert_same_chunk(params, x0, n_paths, seed, chunk, max_jumps):
    got = mc._simulate_chunk(params, x0, n_paths, seed, chunk, max_jumps)
    want = _simulate_chunk_oracle(params, x0, n_paths, seed, chunk, max_jumps)
    for name, g, w in zip(("pv", "jumps", "alive"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
    return got


RUIN = -C / RHO
STARTS = [0.0, -0.0, B, -50.0, -99.9, float(np.nextafter(RUIN, math.inf)), RUIN]


class TestSimulateChunk:
    @pytest.mark.parametrize("max_jumps", [1, 16, 512])
    @pytest.mark.parametrize("x0", STARTS, ids=["0", "-0", "b", "-50", "-99.9", "ruin+ulp", "ruin"])
    def test_bits_match_full_width_oracle(self, loan_params, x0, max_jumps):
        for seed, chunk in ((1, 0), (5, 3), (7, 1)):
            assert_same_chunk(loan_params, x0, 1000, seed, chunk, max_jumps)

    @pytest.mark.parametrize("x0", [B, -50.0])
    def test_bits_match_without_jumps(self, x0):
        pv, jumps, alive = assert_same_chunk(LoanParams(lam=1e-12), x0, 300, 2, 0, 16)
        assert alive.all() and (jumps == 16).all() and (pv > 0.0).all()

    def test_bits_match_when_live_set_empties(self, loan_params):
        # from -99.9 every path is ruined within a few jumps of 512
        pv, jumps, alive = assert_same_chunk(loan_params, -99.9, 2000, 3, 2, 512)
        assert not alive.any() and 1 <= jumps.min() and jumps.max() < 16

    def test_paths_ruined_mid_run_keep_their_dividends(self, loan_params):
        pv, jumps, alive = assert_same_chunk(loan_params, 0.0, 4096, 11, 0, 512)
        ruined = ~alive
        assert ruined.any() and alive.any()
        assert (jumps[alive] == 512).all() and jumps[ruined].min() < 512
        assert (pv[ruined] > 0.0).any()

    @pytest.mark.parametrize("x0, max_jumps", [(-99.9, 2), (-90.0, 16)])
    def test_ruin_on_the_last_jump(self, loan_params, x0, max_jumps):
        # a path ruined by jump max_jumps took as many jumps as a survivor:
        # only alive tells them apart, so it cannot be read off jumps
        pv, jumps, alive = assert_same_chunk(loan_params, x0, 1000, 1, 0, max_jumps)
        last = jumps == max_jumps
        assert (last & ~alive).any() and (last & alive).any()
        assert (jumps[alive] == max_jumps).all()

    @pytest.mark.parametrize("x0", [0.0, -99.9])
    def test_ruined_paths_leave_no_nan(self, loan_params, x0):
        pv, jumps, alive = mc._simulate_chunk(loan_params, x0, 8192, 4, 0, 512)
        assert (~alive).any()
        assert np.isfinite(pv).all() and (pv >= 0.0).all()
        est = mc_reference(loan_params, x0, 16_384, seed=4, max_jumps=512)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)

    def test_mc_reference_bits_and_module_attribute(self, loan_params, monkeypatch):
        want = mc_reference(loan_params, 0.0, 16_384, seed=7, max_jumps=64)
        calls = []

        def oracle(*args):
            calls.append(args)
            return _simulate_chunk_oracle(*args)

        monkeypatch.setattr(mc, "_simulate_chunk", oracle)
        got = mc_reference(loan_params, 0.0, 16_384, seed=7, max_jumps=64)
        assert [a[2:] for a in calls] == [(8192, 7, 0, 64), (8192, 7, 1, 64)]
        assert got.value.hex() == want.value.hex()
        assert got.std_error.hex() == want.std_error.hex()


def _counted_chunks(monkeypatch):
    """The (rows, seed, chunk, max_jumps) of every ``mc._simulate_chunk`` call
    made from now on, through the module attribute."""
    calls = []
    real = mc._simulate_chunk

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(mc, "_simulate_chunk", counted)
    return calls


class TestMCResume:
    def test_escalation_reuses_full_chunks_bit_identical(self, loan_params, monkeypatch):
        sizes = (16_384, 65_536, 262_144)
        fresh = [mc_reference(loan_params, 0.0, n, seed=7, max_jumps=2) for n in sizes]
        calls = _counted_chunks(monkeypatch)
        resume = MCResume(loan_params, 0.0, seed=7, max_jumps=2)
        counts = []
        for n, want in zip(sizes, fresh):
            got = mc_reference(loan_params, 0.0, n, seed=7, max_jumps=2, resume=resume)
            assert got.value.hex() == want.value.hex()
            assert got.std_error.hex() == want.std_error.hex()
            assert (got.M, got.d, got.bias_bound) == (want.M, want.d, want.bias_bound)
            counts.append(len(calls))
        assert counts == [2, 2 + 6, 2 + 6 + 24]
        assert [c[2] for c in calls] == [*range(32)]  # each chunk simulated once
        assert len(resume.sums) == 32

    def test_partial_chunk_simulated_again(self, loan_params, monkeypatch):
        fresh = [mc_reference(loan_params, 0.0, n, seed=3, max_jumps=2) for n in (12_288, 49_152)]
        calls = _counted_chunks(monkeypatch)
        resume = MCResume(loan_params, 0.0, seed=3, max_jumps=2)
        for n, want in zip((12_288, 49_152), fresh):
            got = mc_reference(loan_params, 0.0, n, seed=3, max_jumps=2, resume=resume)
            assert got.value.hex() == want.value.hex()
            assert got.std_error.hex() == want.std_error.hex()
        # the 4,096-row chunk 1 draws other numbers than the full one
        assert calls == [(8192, 3, 0, 2), (4096, 3, 1, 2),
                         *[(8192, 3, chunk, 2) for chunk in range(1, 6)]]

    @pytest.mark.parametrize("other", [dict(seed=8), dict(x0=-1.0), dict(max_jumps=3),
                                       dict(params=LoanParams(lam=3.0))],
                             ids=["seed", "x0", "max_jumps", "params"])
    def test_other_inputs_rejected(self, loan_params, monkeypatch, other):
        resume = MCResume(loan_params, 0.0, seed=7, max_jumps=2)
        mc_reference(loan_params, 0.0, 8192, seed=7, max_jumps=2, resume=resume)
        calls = _counted_chunks(monkeypatch)
        args = {**dict(params=loan_params, x0=0.0, seed=7, max_jumps=2), **other}
        with pytest.raises(InputError, match="resume"):
            mc_reference(args["params"], args["x0"], 16_384, seed=args["seed"],
                         max_jumps=args["max_jumps"], resume=resume)
        assert calls == [] and len(resume.sums) == 1


class TestSimulatePath:
    def test_start_at_absorbing_edge(self, loan_params):
        res = simulate_path(loan_params, -C / RHO, path_rng(1))
        assert res.discounted_dividends == 0.0
        assert res.ruin_time == 0.0 and res.jumps_used == 0

    def test_no_jumps_perpetuity(self):
        params = LoanParams(lam=1e-12)  # effectively jump-free
        res = simulate_path(params, B, path_rng(2), max_jumps=4)
        assert res.discounted_dividends == pytest.approx(C / DELTA, rel=1e-6)

    def test_annuity_before_first_jump(self, loan_params):
        # replay the same stream to recover the first inter-jump time
        res = simulate_path(loan_params, B, path_rng(3), max_jumps=1)
        t1 = path_rng(3).exponential(1.0 / LAM)
        expect = C / DELTA * (1.0 - math.exp(-DELTA * t1))
        assert res.discounted_dividends == pytest.approx(expect, rel=1e-12)

    def test_dividends_bounded(self, loan_params):
        rng = path_rng(4)
        for _ in range(200):
            res = simulate_path(loan_params, 0.0, rng, max_jumps=64)
            assert 0.0 <= res.discounted_dividends <= C / DELTA

    def test_truncation_flagged(self, loan_params):
        res = simulate_path(loan_params, B, path_rng(5), max_jumps=3)
        assert res.truncated and res.jumps_used == 3 and res.ruin_time == math.inf

    def test_paths_never_reaching_barrier_pay_zero(self, loan_params):
        # from -99 the climb to b takes ~92 time units; one exp(4) inter-jump
        # time never gets there
        rng = path_rng(6)
        for _ in range(500):
            res = simulate_path(loan_params, -99.0, rng, max_jumps=1)
            assert res.discounted_dividends == 0.0

    def test_start_above_barrier_rejected(self, loan_params):
        with pytest.raises(InputError):
            simulate_path(loan_params, B + 1.0, path_rng(7))


class TestMCReference:
    def test_single_path(self, loan_params):
        est = mc_reference(loan_params, 0.0, 1, seed=8, max_jumps=16)
        assert est.std_error is None and est.M == 1

    def test_no_jump_degenerate_model_zero_variance(self):
        params = LoanParams(lam=1e-12)
        est = mc_reference(params, B, 64, seed=0, max_jumps=8)
        assert est.value == pytest.approx(C / DELTA, rel=1e-6)
        assert est.std_error == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_for_fixed_seed(self, loan_params):
        a = mc_reference(loan_params, 0.0, 20_000, seed=13, max_jumps=32)
        b = mc_reference(loan_params, 0.0, 20_000, seed=13, max_jumps=32)
        assert a.value == b.value and a.std_error == b.std_error

    def test_chunking_invariance(self, loan_params):
        # the first 8192-path chunk is shared between runs of different sizes
        small = mc_reference(loan_params, 0.0, 8192, seed=21, max_jumps=16)
        big = mc_reference(loan_params, 0.0, 16384, seed=21, max_jumps=16)
        assert small.value != big.value  # more paths actually used
        again = mc_reference(loan_params, 0.0, 8192, seed=21, max_jumps=16)
        assert small.value == again.value

    def test_bounds(self, loan_params):
        est = mc_reference(loan_params, 0.0, 5000, seed=1, max_jumps=64)
        assert 0.0 <= est.value <= C / DELTA
        assert est.std_error > 0.0
        assert est.bias_bound == pytest.approx(250.0 * (4.0 / 4.02) ** 64, rel=1e-12)

    def test_monotone_in_start_value_coupled(self, loan_params):
        # identical streams across start values couple the paths
        means = [mc_reference(loan_params, x0, 1000, seed=5, max_jumps=64).value
                 for x0 in (-50.0, 0.0, 1.0, B)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_matches_simulate_path_scale(self, loan_params):
        # vectorised engine against the scalar reference on aggregate scale
        est = mc_reference(loan_params, 0.0, 4000, seed=3, max_jumps=64)
        rng = path_rng(99)
        scalar = np.mean([simulate_path(loan_params, 0.0, rng, max_jumps=64).discounted_dividends
                          for _ in range(4000)])
        scalar_se = est.std_error * math.sqrt(2.0)
        assert abs(est.value - scalar) <= 4.0 * scalar_se

    def test_start_above_barrier_rejected(self, loan_params):
        with pytest.raises(InputError):
            mc_reference(loan_params, B + 0.1, 10, seed=0)

    @pytest.mark.parametrize("field,value", [
        ("n_paths", 0), ("n_paths", -3), ("n_paths", 2.5), ("n_paths", 8.0), ("n_paths", True),
        ("max_jumps", 0), ("max_jumps", 2.5), ("max_jumps", False), ("max_jumps", "8"),
        ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", None),
    ])
    def test_counts_must_be_positive_integers(self, loan_params, field, value):
        args = dict(n_paths=100, max_jumps=8, seed=1)
        args[field] = value
        with pytest.raises(InputError, match=field):
            mc_reference(loan_params, 0.0, args["n_paths"], seed=args["seed"],
                         max_jumps=args["max_jumps"])

    def test_numpy_integer_counts_accepted(self, loan_params):
        a = mc_reference(loan_params, 0.0, np.int64(100), seed=1, max_jumps=np.int64(8))
        b = mc_reference(loan_params, 0.0, 100, seed=1, max_jumps=8)
        assert a.value == b.value

    @pytest.mark.parametrize("x0", [math.nan, -math.inf])
    def test_non_finite_start_rejected(self, loan_params, x0):
        with pytest.raises(InputError, match="finite"):
            mc_reference(loan_params, x0, 100, seed=1, max_jumps=8)

    @pytest.mark.parametrize("params", [LoanParams(c=1e160), LoanParams(c=1e200),
                                        LoanParams(lam=1e-300, delta=1e-300)],
                             ids=["c=1e160", "c=1e200", "lam=delta=1e-300"])
    def test_overflowing_sums_rejected(self, params):
        # finite dividends whose squares overflow: no NaN error bar, no warning
        with pytest.raises(ModelError, match="overflow"):
            mc_reference(params, 0.0, 100, seed=1, max_jumps=2)

    # value and std_error at seed 0, recorded when each step drew its
    # inter-jump times and claim sizes by two exponential() calls
    _GOLDENS = {
        (0.0, 65_536, 512): ("0x1.4be555897ec36p+5", "0x1.0316f6bfdc14cp-4"),
        (0.0, 10_000, 64): ("0x1.cb1740d9a4c1ap+3", "0x1.6c72ce35ff728p-4"),
        (0.0, 70_000, 2): ("0x1.15334733b67aap-2", "0x1.9a9fc3765d23ap-9"),
        (0.0, 3, 30): ("0x1.bffd348b04dedp+2", "0x1.252b06520c320p+2"),
        (-50.0, 65_536, 512): ("0x1.1dcb5d4aa69fdp-11", "0x1.9d39a4b82d730p-12"),
        (-50.0, 10_000, 64): ("0x0.0p+0", "0x0.0p+0"),
        (-50.0, 70_000, 2): ("0x0.0p+0", "0x0.0p+0"),
        (-50.0, 3, 30): ("0x0.0p+0", "0x0.0p+0"),
        (B, 65_536, 512): ("0x1.665b765694ed4p+5", "0x1.01a110b4dc9bbp-4"),
        (B, 10_000, 64): ("0x1.186c6baa3fe05p+4", "0x1.70017ab25aa30p-4"),
        (B, 70_000, 2): ("0x1.ee093f92857b1p+0", "0x1.96f235d9c5b74p-8"),
        (B, 3, 30): ("0x1.29f4a68de8741p+3", "0x1.54ce6705faa05p+2"),
        (-99.0, 65_536, 512): ("0x0.0p+0", "0x0.0p+0"),
        (-99.0, 10_000, 64): ("0x0.0p+0", "0x0.0p+0"),
        (-99.0, 70_000, 2): ("0x0.0p+0", "0x0.0p+0"),
        (-99.0, 3, 30): ("0x0.0p+0", "0x0.0p+0"),
    }

    @pytest.mark.parametrize("x0, n_paths, max_jumps", sorted(_GOLDENS))
    def test_goldens(self, loan_params, x0, n_paths, max_jumps):
        est = mc_reference(loan_params, x0, n_paths, seed=0, max_jumps=max_jumps)
        assert (est.value.hex(), est.std_error.hex()) == self._GOLDENS[x0, n_paths, max_jumps]
