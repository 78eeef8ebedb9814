import math
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PPoly

import pdmpval.flow
import pdmpval.harness
import pdmpval.operators
from pdmpval.cubature import (
    MC_CHUNK_NODES,
    CubatureSpec,
    RuleKind,
    cp_shift_vector,
    cranley_patterson_shift,
    gauss_legendre,
    gauss_product_chunk,
    halton_column,
    halton_permutations,
    mc_chunk,
    sobol_column,
)
from pdmpval.errors import InputError, ModelError
from pdmpval.harness import _naive_truncated_integrand
from pdmpval.loan import SmoothedLoanModel
from pdmpval.mc import mc_reference
from pdmpval.operators import _integrand_batch, estimate_value

C, RHO, B, LAM, ALPHA, DELTA = 5.0, 0.05, 3.24289, 4.0, 1.0, 0.02
RUIN = -C / RHO


def gauss_value(x0, n, m, model):
    """The n-jump truncated sum under the m-point Gauss product rule."""
    rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=m, d=2 * n)
    return estimate_value(x0, n, rule, model).value


def point_integrand(model, x0, coords):
    """The integrand at one point of [0, 1]^(2n): a batch of one."""
    return _integrand_batch(model, x0, len(coords) // 2, lambda d: coords[d:d + 1])[0]


class TestHInner:
    """The pre-jump reward h(y, v) = L(-ln v, y) of the n=1 term, read from
    the flow table in the v = exp(-t) variable (v = 0 is the infinite horizon)."""

    def test_zero_at_v_one(self, loan_model):
        table = loan_model.table
        assert table.stage(*table.start(0.0), -math.log(1.0)) == 0.0

    def test_perpetuity_limit_at_barrier(self, loan_model):
        table = loan_model.table
        val = table.stage(*table.start(B), math.inf)
        assert 0.999 * C / DELTA <= val <= C / DELTA

    def test_zero_when_band_unreached(self, loan_model):
        table = loan_model.table
        assert table.stage(*table.start(-50.0), -math.log(0.9)) == 0.0

    def test_expected_h_matches_quadrature(self, loan_model):
        # integral of lam v^(lam-1) h dv equals the n=1 truncated sum
        table = loan_model.table
        start = table.start(0.0)
        expected, _ = quad(
            lambda v: LAM * v ** (LAM - 1.0) * float(table.stage(*start, -math.log(v))),
            0.0, 1.0, limit=300)
        assert gauss_value(0.0, 1, 64, loan_model) == pytest.approx(expected, abs=2e-4)


class TestIteratedIntegrand:
    def test_matches_naive_per_term_evaluation(self, loan_model, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            coords = rng.uniform(0.02, 0.98, size=2 * n)
            single = point_integrand(loan_model, 0.0, coords)
            naive = _naive_truncated_integrand(coords, 0.0, loan_model, n)
            assert single == pytest.approx(naive, rel=1e-12, abs=1e-300)

    def test_fixed_point_against_naive(self, loan_model):
        coords = np.array([0.5, 0.5, 0.5, 0.5])
        single = point_integrand(loan_model, 0.0, coords)
        naive = _naive_truncated_integrand(coords, 0.0, loan_model, 2)
        assert single == pytest.approx(naive, abs=1e-10)

    def test_substitution_jacobian_against_ty_space(self, loan_model, rng):
        # third derivation route: evaluate the UNSUBSTITUTED integrand in
        # (t, y) space and multiply by the lower-triangular Jacobian
        # determinant prod(1/v_j) * prod(chi_j- + c/rho)
        table = loan_model.table
        for _ in range(40):
            n = int(rng.integers(1, 5))
            coords = rng.uniform(0.05, 0.95, size=2 * n)
            total = 0.0
            for i in range(1, n + 1):
                chi = 0.0
                weight = 1.0
                jac = 1.0
                for j in range(1, i):
                    v_j = float(coords[2 * (j - 1)])
                    t_j = -math.log(v_j)
                    chi_pre = float(table.stage(*table.start(chi), t_j, position=True)[1])
                    span = chi_pre + C / RHO
                    y_j = float(coords[2 * (j - 1) + 1]) * span
                    # (t, y)-space factors: lam e^{-(lam+delta) t_j} f_Y(y_j)
                    weight *= LAM * math.exp(-(LAM + DELTA) * t_j) * ALPHA * math.exp(-ALPHA * y_j)
                    jac *= (1.0 / v_j) * span
                    chi = chi_pre - y_j
                v_i = float(coords[2 * (i - 1)])
                t_i = -math.log(v_i)
                weight *= LAM * math.exp(-LAM * t_i) * float(table.stage(*table.start(chi), t_i))
                jac *= 1.0 / v_i
                total += weight * jac
            single = point_integrand(loan_model, 0.0, coords)
            assert single == pytest.approx(total, rel=1e-11, abs=1e-300)

    def test_first_term_ignores_jump_coordinate(self, loan_model):
        base = point_integrand(loan_model, 0.0, np.array([0.3, 0.1]))
        for z in (0.0, 0.5, 0.99):
            assert point_integrand(loan_model, 0.0, np.array([0.3, z])) == base

    def test_zero_when_nothing_reachable(self, loan_model):
        val = point_integrand(loan_model, RUIN + 0.5, np.array([0.9, 0.5]))
        assert val == 0.0

    def test_nonnegative(self, loan_model, rng):
        for _ in range(50):
            coords = rng.uniform(0.0, 1.0, size=8)
            assert point_integrand(loan_model, 0.0, coords) >= 0.0

    def test_x0_outside_domain_rejected(self, loan_model):
        # the integrand is defined on (ruin, b]; the start rule moves a start
        # above the barrier to b and refuses one at or below the ruin level
        for x0 in (RUIN, RUIN - 1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="start value"):
                loan_model.start(x0)
        assert loan_model.start(B + 1.0)[0] == B


class TestTensorGauss:
    @staticmethod
    def apply(fn, dims, m, chunk=1000):
        """The product rule as a chunked weighted sum over gauss_product_chunk."""
        total = 0.0
        for i0 in range(0, m ** dims, chunk):
            cols, weights = gauss_product_chunk(m, dims, i0, min(i0 + chunk, m ** dims))
            total += float(np.sum(weights * fn(cols)))
        return total

    def test_polynomial_exactness(self):
        # product polynomial of degree 2m-1 per axis: rule exact to 1e-12
        m, dims = 4, 3
        deg = 2 * m - 1
        got = self.apply(lambda cols: np.prod(cols ** deg, axis=0), dims, m)
        assert got == pytest.approx((1.0 / (deg + 1)) ** dims, abs=1e-12)

    def test_mixed_monomials(self):
        got = self.apply(lambda cols: cols[0] ** 2 * cols[1] ** 5, 2, 8)
        assert got == pytest.approx(1.0 / 3.0 / 6.0, abs=1e-13)

    def test_node_layout_and_weights(self):
        # node i takes digit `dim` of i in base m as its 1-d node index
        nodes, wts = gauss_legendre(3)
        cols, weights = gauss_product_chunk(3, 2, 0, 9)
        assert cols.shape == (2, 9)
        assert np.array_equal(cols[0], np.tile(nodes, 3))
        assert np.array_equal(cols[1], np.repeat(nodes, 3))
        assert np.array_equal(weights, np.tile(wts, 3) * np.repeat(wts, 3))
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-15)

    def test_chunks_tile_the_rule(self):
        whole, w_whole = gauss_product_chunk(5, 3, 0, 125)
        parts = [gauss_product_chunk(5, 3, i0, min(i0 + 40, 125)) for i0 in range(0, 125, 40)]
        assert np.array_equal(np.concatenate([c for c, _ in parts], axis=1), whole)
        assert np.array_equal(np.concatenate([w for _, w in parts]), w_whole)

    @pytest.mark.parametrize("args", [(3, 2, 0, 10), (3, 2, -1, 4), (3, 2, 5, 4), (3, 0, 0, 1)])
    def test_range_outside_rule_rejected(self, args):
        with pytest.raises(InputError):
            gauss_product_chunk(*args)


class TestGaussValidate:
    """The Gauss product rule as a deterministic check of the truncated sum."""

    def test_partial_sums_nondecreasing_in_n(self, loan_model):
        vals = [gauss_value(0.0, n, 8, loan_model) for n in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_refinement_shrinks_changes(self, loan_model):
        # Gauss convergence on the smooth-at-the-barrier integrand
        v = [gauss_value(B, 1, m, loan_model) for m in (2, 8, 32)]
        assert abs(v[2] - v[1]) < abs(v[1] - v[0])

    def test_budget_enforced(self, loan_model):
        with pytest.raises(InputError, match=r"64\^5"):
            gauss_value(0.0, 3, 64, loan_model)

    def test_budget_counts_live_nodes_only(self, loan_model):
        # 57^3 = 185,193 live nodes; z_n is never read, so 57^4 > 1e7 is no bar
        value = gauss_value(0.0, 2, 57, loan_model)
        assert 0.0 < value <= loan_model.params.value_bound

    def test_worker_count_does_not_change_bits(self, loan_model):
        # 57^3 live nodes fill 23 chunks, summed in order for any worker count
        rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=57, d=4)
        a = estimate_value(0.0, 2, rule, loan_model, workers=1)
        b = estimate_value(0.0, 2, rule, loan_model, workers=2)
        assert a.value.hex() == b.value.hex()
        assert a.std_error is None and b.std_error is None and a.replicates == 1


class TestEstimateValue:
    def test_gauss_vs_adaptive_quadrature_smooth_start(self, loan_model):
        # from the barrier the substituted integrand is smooth: 32-point Gauss
        # agrees with adaptive quadrature to 1e-6
        table = loan_model.table
        start = table.start(B)
        expected, _ = quad(
            lambda v: LAM * v ** (LAM - 1.0) * float(table.stage(*start, -math.log(v))),
            0.0, 1.0, limit=300, epsabs=1e-12, epsrel=1e-12)
        rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=32, d=2)
        est = estimate_value(B, 1, rule, loan_model)
        assert est.value == pytest.approx(expected, abs=1e-6)
        assert est.std_error is None

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_gauss_at_zero_start_limited_by_ramp_kink(self, loan_model):
        # from x0=0 the reward onset leaves only a C^3 integrand; the 32-point
        # Gauss truncation error is ~1e-3 and cannot reach 1e-6
        table = loan_model.table
        start = table.start(0.0)
        expected, _ = quad(
            lambda v: LAM * v ** (LAM - 1.0) * float(table.stage(*start, -math.log(v))),
            0.0, 1.0, limit=400, points=[0.52488], epsabs=1e-13, epsrel=1e-13)
        rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=32, d=2)
        est = estimate_value(0.0, 1, rule, loan_model)
        assert est.value == pytest.approx(expected, abs=2e-3)
        assert abs(est.value - expected) > 1e-6  # documents the limitation

    def test_dimension_mismatch_rejected(self, loan_model):
        with pytest.raises(InputError):
            estimate_value(0.0, 2, CubatureSpec(kind=RuleKind.SOBOL, M=64, d=2), loan_model)

    def test_empty_rule_rejected(self, loan_model):
        with pytest.raises(InputError):
            CubatureSpec(kind=RuleKind.SOBOL, M=0, d=4)

    def test_value_within_bounds(self, loan_model):
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=4096, d=4, seed=5, replicates=4)
        est = estimate_value(0.0, 2, rule, loan_model)
        c_v = loan_model.params.value_bound
        assert 0.0 <= est.value <= c_v
        assert abs(est.value) <= c_v + est.bias_bound

    def test_cross_method_consistency_small(self, loan_model):
        sob = estimate_value(0.0, 2, CubatureSpec(kind=RuleKind.SOBOL, M=8192, d=4,
                                                  seed=2, replicates=6), loan_model)
        mc = estimate_value(0.0, 2, CubatureSpec(kind=RuleKind.MC, M=8192, d=4,
                                                 seed=2, replicates=6), loan_model)
        assert abs(sob.value - mc.value) <= 3.0 * (sob.std_error + mc.std_error)

    def test_worker_count_does_not_change_bits(self, loan_model):
        for kind in (RuleKind.SOBOL, RuleKind.MC, RuleKind.SCRAMBLED_HALTON):
            rule = CubatureSpec(kind=kind, M=3 * 8192 + 100, d=4, seed=9, replicates=2)
            a = estimate_value(0.0, 2, rule, loan_model, workers=1)
            b = estimate_value(0.0, 2, rule, loan_model, workers=4)
            assert a.value == b.value and a.std_error == b.std_error

    def test_single_replicate_has_no_error_bar(self, loan_model):
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=256, d=4, seed=0, replicates=1)
        assert estimate_value(0.0, 2, rule, loan_model).std_error is None

    def test_bias_bound_column(self, loan_model):
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=256, d=4, seed=0)
        est = estimate_value(0.0, 2, rule, loan_model)
        expect = 250.0 * (4.0 / 4.02) ** 2
        assert est.bias_bound == pytest.approx(expect, rel=1e-14)

    def test_x0_above_barrier_needs_wrapper(self, loan_model):
        # the lump-sum convention: the excess over b is paid out at once
        rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=8, d=2)
        est_b = estimate_value(B, 1, rule, loan_model)
        est = estimate_value(B + 0.5, 1, rule, loan_model)
        assert est.value == est_b.value + 0.5

    def test_bias_bound_is_the_mc_reference_bound(self, loan_model):
        # one spelling of C_V (lam/(lam+delta))^n serves both estimators
        for n in (1, 2, 32):
            rule = CubatureSpec(kind=RuleKind.SOBOL, M=64, d=2 * n, replicates=2)
            est = estimate_value(0.0, n, rule, loan_model)
            ref = mc_reference(loan_model.params, 0.0, 64, max_jumps=n)
            assert est.bias_bound.hex() == ref.bias_bound.hex()

    @pytest.mark.parametrize("kind, n, m", [("sobol", 3, 1024), ("gauss", 2, 8)])
    def test_model_read_only_through_the_table_and_the_law(self, loan_model, kind, n, m):
        # a stand-in with no params and no spec: reading either raises
        # AttributeError, so the estimate must come from the table and the law
        law = ("table", "start", "term_weight", "claim_jump", "weight_bounded", "bias_bound")
        stand_in = types.SimpleNamespace(**{name: getattr(loan_model, name) for name in law})
        rule = CubatureSpec(kind=RuleKind(kind), M=m, d=2 * n, seed=3,
                            replicates=2 if kind == "sobol" else 1)
        for x0 in (0.0, B, B + 1.0):
            want = estimate_value(x0, n, rule, loan_model)
            got = estimate_value(x0, n, rule, stand_in)
            assert (got.value.hex(), got.std_error, got.bias_bound.hex()) == \
                (want.value.hex(), want.std_error, want.bias_bound.hex())

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_rejected(self, loan_model, x0):
        rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=8, d=2)
        with pytest.raises(InputError, match="finite"):
            estimate_value(x0, 1, rule, loan_model)

    @pytest.mark.parametrize("n", [2.0, True, 0, -1])
    def test_jump_count_must_be_a_positive_integer(self, loan_model, n):
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=64, d=2 if n is True else 4, replicates=2)
        with pytest.raises(InputError, match="jump count n"):
            estimate_value(0.0, n, rule, loan_model)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True])
    def test_worker_count_must_be_a_positive_integer(self, loan_model, monkeypatch, workers):
        # checked before any column is drawn, as ExperimentConfig checks it
        monkeypatch.setattr(pdmpval.operators, "_replicate_means", None)
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=64, d=4, replicates=2)
        with pytest.raises(InputError, match="workers"):
            estimate_value(0.0, 2, rule, loan_model, workers=workers)

    # value and std_error at the deep-qmc shape over two chunks, recorded with
    # the replicate-by-replicate estimator loop that regenerated every column
    _DEEP_GOLDENS = {
        "sobol": ("0x1.0ffc5d3b26da7p-1", "0x1.0574fc07b52e3p-2"),
        "halton": ("0x1.a550c3f6e6a7dp+1", "0x1.4de319ff96600p+1"),
        "mc": ("0x1.282ab4d6928d8p-1", "0x1.29a3854aee7b6p-2"),
    }

    @pytest.mark.parametrize("kind", ["sobol", "halton", "mc"])
    def test_deep_estimate_goldens(self, loan_model, kind):
        rule = CubatureSpec(kind=RuleKind(kind), M=8192 + 512, d=64, seed=11, replicates=3)
        for workers in (1, 2):
            est = estimate_value(0.0, 32, rule, loan_model, workers=workers)
            assert (est.value.hex(), est.std_error.hex()) == self._DEEP_GOLDENS[kind]

    # value and std_error at n = 1 and 2 over two chunks and two stacks,
    # recorded before the first stage solved the shared start once
    _SHALLOW_GOLDENS = {
        ("sobol", 1): ("0x1.7a6f634b592b2p-4", "0x1.ab20d2f637717p-25"),
        ("halton", 1): ("0x1.7a6f634b592b2p-4", "0x1.ab20d2f637717p-25"),
        ("mc", 1): ("0x1.7f1617a63ecfdp-4", "0x1.54d2a7ff8e1d5p-11"),
        ("sobol", 2): ("0x1.1684cb7b30066p-2", "0x1.088b3661c8f8bp-7"),
        ("halton", 2): ("0x1.1f6305f22f996p-2", "0x1.92a2896fa3ca2p-9"),
        ("mc", 2): ("0x1.164fd47a6090bp-2", "0x1.27bc8911a767bp-6"),
    }

    @pytest.mark.parametrize("kind, n", sorted(_SHALLOW_GOLDENS))
    def test_shallow_estimate_goldens(self, loan_model, kind, n):
        rule = CubatureSpec(kind=RuleKind(kind), M=8192 + 512, d=2 * n, seed=11, replicates=5)
        for workers in (1, 2):
            est = estimate_value(0.0, n, rule, loan_model, workers=workers)
            assert (est.value.hex(), est.std_error.hex()) == self._SHALLOW_GOLDENS[kind, n]

    _GAUSS_GOLDENS = {
        (1, 32, 0.0): "0x1.765f834b3ee5ep-4",
        (1, 32, 1.5): "0x1.3b17cfca0f251p-2",
        (2, 12, 0.0): "0x1.eac67030f7acdp-3",
        (2, 12, 1.5): "0x1.45963c84329c4p-1",
    }

    @pytest.mark.parametrize("n, m, x0", sorted(_GAUSS_GOLDENS))
    def test_shallow_gauss_goldens(self, loan_model, n, m, x0):
        assert gauss_value(x0, n, m, loan_model).hex() == self._GAUSS_GOLDENS[n, m, x0]

    def test_deep_estimate_bits_independent_of_workers(self, loan_model):
        # the deep-qmc shape (n=32, d=64) over two chunks, threaded or not
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=8192 + 512, d=64, seed=3, replicates=2)
        a = estimate_value(0.0, 32, rule, loan_model, workers=1)
        b = estimate_value(0.0, 32, rule, loan_model, workers=2)
        assert a.value.hex() == b.value.hex() and a.std_error.hex() == b.std_error.hex()

    def test_one_time_solve_and_two_guided_lookups_per_stage(self, loan_model, monkeypatch):
        calls = {"locate": 0, "start": 0, "stage": 0, "position": 0, "find": 0}
        located, solved, end_positions = [], [], []  # sizes; stage of each end position
        searched = []
        table_cls = type(loan_model.table)
        real_locate, real_start, real_stage = table_cls.locate, table_cls.start, table_cls.stage
        real_interval = pdmpval.flow._interval
        real_solve, real_position = table_cls._solve_time, table_cls._position
        real_find = pdmpval.flow._Guide.find
        in_solve = []

        def locate(self, y):
            calls["locate"] += 1
            located.append(np.size(y))
            return real_locate(self, y)

        def start(self, y, k=None):
            calls["start"] += 1
            # every stage, the first included, reuses the intervals its drop test located
            assert k is not None
            return real_start(self, y, k)

        def stage(self, T0, k0, t, position=False):
            calls["stage"] += 1
            calls["position"] += position
            return real_stage(self, T0, k0, t, position)

        def solve_time(self, yc, k=None):
            solved.append(yc.size)
            in_solve.append(1)
            try:
                return real_solve(self, yc, k)
            finally:
                in_solve.pop()

        def position(self, uc, k):
            if not in_solve:  # the residual check of time_of reads positions too
                end_positions.append(calls["stage"] - 1)
            return real_position(self, uc, k)

        def find(self, x):
            calls["find"] += 1
            return real_find(self, x)

        def interval(knots, x):
            searched.append(np.size(x))
            return real_interval(knots, x)

        def no_spline(*args, **kwargs):
            raise AssertionError("lookup called a scipy spline")

        monkeypatch.setattr(table_cls, "locate", locate)
        monkeypatch.setattr(table_cls, "start", start)
        monkeypatch.setattr(table_cls, "stage", stage)
        monkeypatch.setattr(table_cls, "_solve_time", solve_time)
        monkeypatch.setattr(table_cls, "_position", position)
        monkeypatch.setattr(pdmpval.flow._Guide, "find", find)
        monkeypatch.setattr(pdmpval.flow, "_interval", interval)
        monkeypatch.setattr(PPoly, "__call__", no_spline)
        for name in ("time_of", "pos_at", "reward_from_master"):
            monkeypatch.setattr(table_cls, name, no_spline)
        n, m = 6, 512
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=m, d=2 * n, seed=1, replicates=1)
        estimate_value(0.0, n, rule, loan_model)
        # the loop ends once no node can reach the band: the stage that
        # drops every node locates them, but solves and evaluates nothing
        ran = calls["stage"]
        assert 2 <= ran <= n
        cut_short = int(ran < n)
        # the last stage reads only the reward, not its position; each stage
        # is one guided lookup of the state (in locate, whose intervals the
        # time solve reuses) and one of the end time
        assert calls == {"locate": ran + cut_short, "start": ran,
                         "stage": ran, "position": min(ran, n - 1),
                         "find": 2 * ran + cut_short}
        assert end_positions == list(range(min(ran, n - 1)))
        # every node starts at x0, so the first stage locates and solves one
        # time; every stage solves only the nodes its drop test leaves
        assert len(solved) == ran and located[0] == solved[0] == 1
        assert all(s <= size for s, size in zip(solved, located))
        assert sum(solved) < sum(located)
        # binary searches only for the residue the guided step leaves
        assert len(searched) <= 4 * n and sum(searched) <= 0.02 * 2 * n * m

    @pytest.mark.parametrize("n, skipped", [(32, 0.9), (1, 0.3)])
    def test_reward_evaluated_only_past_the_zero_stretch(self, loan_model, monkeypatch,
                                                         n, skipped):
        # a point whose end interval lies in the zero stretch (ke < kz) has
        # collected +0.0: no reward spline evaluation may see it.  n = 1 is
        # one scalar-start stage; at n = 32 nearly every node-stage ends
        # there, and most of them are dropped before their stage runs, so
        # the share is taken of all M R n node-stages
        table = loan_model.table
        table_cls = type(table)
        real_reward, real_ppoly = table_cls._reward, pdmpval.flow._ppoly
        live, widest = [], []  # per _reward call

        def reward(self, T0, t, te, k0, ke):
            live.append(int(np.count_nonzero(ke >= self._kz)))
            widest.append(0)
            return real_reward(self, T0, t, te, k0, ke)

        def ppoly(c, k, s):
            if c is table._reward_c:
                widest[-1] = max(widest[-1], np.size(k))
            return real_ppoly(c, k, s)

        monkeypatch.setattr(table_cls, "_reward", reward)
        monkeypatch.setattr(pdmpval.flow, "_ppoly", ppoly)
        m, reps = 2048, 2
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=m, d=2 * n, seed=5, replicates=reps)
        estimate_value(0.0, n, rule, loan_model)
        assert 1 <= len(live) <= n
        assert all(w <= k for w, k in zip(widest, live))
        assert 0 < sum(live) <= (1.0 - skipped) * m * reps * n

    def test_deep_estimate_evaluates_a_third_of_the_node_stages(self, loan_model, monkeypatch):
        # at the deep-qmc shape most nodes fall toward the ruin end and are
        # dropped once no remaining stage can reach the dividend band
        sizes = []
        table_cls = type(loan_model.table)
        real_stage = table_cls.stage
        monkeypatch.setattr(table_cls, "stage", lambda self, T0, k0, t, position=False:
                            sizes.append(np.size(t)) or real_stage(self, T0, k0, t, position))
        n, m, reps = 32, 4096, 4
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=m, d=2 * n, seed=1, replicates=reps)
        estimate_value(0.0, n, rule, loan_model)
        assert 1 <= len(sizes) <= n
        assert sum(sizes) <= 0.35 * m * reps * n

    @pytest.mark.parametrize("kind, name", [("sobol", "sobol_column"),
                                            ("halton", "halton_column")])
    def test_base_columns_generated_once_for_all_replicates(self, loan_model, monkeypatch,
                                                            kind, name):
        calls = []
        real = getattr(pdmpval.operators, name)
        monkeypatch.setattr(pdmpval.operators, name,
                            lambda dim, *a: calls.append((dim, a[:2])) or real(dim, *a))
        n, m = 3, 8192 + 100
        rule = CubatureSpec(kind=RuleKind(kind), M=m, d=2 * n, seed=2, replicates=4)
        estimate_value(0.0, n, rule, loan_model, workers=2)
        # one call per live dimension (z_n is never read) and chunk
        assert sorted(calls) == sorted((dim, rows) for rows in ((1, 8193), (8193, m + 1))
                                       for dim in range(1, 2 * n))

    def test_gauss_budget_guard(self, loan_model):
        with pytest.raises(InputError):
            estimate_value(0.0, 4, CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=64, d=8),
                           loan_model)


def naive_replicate_means(model, x0, n, rule):
    """Each replicate's mean from one integrand batch per replicate and chunk,
    with the replicate's own node columns, chunk sums combined in order."""
    d = rule.d
    perms = halton_permutations(d, rule.seed) if rule.kind is RuleKind.SCRAMBLED_HALTON else None
    means = []
    for rep in range(rule.replicates):
        shift = cp_shift_vector(d, rule.seed, rep)
        total = 0.0
        for i0 in range(0, rule.M, MC_CHUNK_NODES):
            i1 = min(i0 + MC_CHUNK_NODES, rule.M)
            if rule.kind is RuleKind.MC:
                block = mc_chunk(i0 // MC_CHUNK_NODES, i1 - i0, d, rule.seed, rep)
                cols = lambda dim, block=block: block[:, dim]
            else:
                def cols(dim, i0=i0, i1=i1, shift=shift):
                    base = (sobol_column(dim + 1, i0 + 1, i1 + 1) if perms is None
                            else halton_column(dim + 1, i0 + 1, i1 + 1, perms))
                    return cranley_patterson_shift(base, shift=shift[dim])
            vals = pdmpval.operators._integrand_batch(model, x0, n, cols)
            total += float(np.add.reduce(vals))
        means.append(total / rule.M)
    return means


class TestStackedReplicates:
    """A chunk's replicates run as stacked integrand batches; every replicate's
    mean is the one-replicate-per-batch loop's bit for bit."""

    @pytest.mark.parametrize("kind", ["sobol", "halton", "mc"])
    @pytest.mark.parametrize("n, reps", [(1, 5), (1, 10), (8, 5), (8, 10)])
    def test_matches_per_replicate_loop(self, loan_model, kind, n, reps):
        # M = 10000: a full chunk, whose stacks hold 4 replicates, and a
        # partial one of 1808 nodes
        rule = CubatureSpec(kind=RuleKind(kind), M=10000, d=2 * n, seed=5, replicates=reps)
        naive = naive_replicate_means(loan_model, 0.0, n, rule)
        means = pdmpval.operators._replicate_means(loan_model, 0.0, n, rule, reps, 1)
        assert [m.hex() for m in means] == [m.hex() for m in naive]
        est = estimate_value(0.0, n, rule, loan_model, workers=2)
        assert est.value.hex() == float(np.mean(naive)).hex()
        assert est.std_error.hex() == float(np.std(naive, ddof=1) / math.sqrt(reps)).hex()

    def test_stacks_hold_at_most_the_cap(self, loan_model, monkeypatch):
        sizes = []
        real = pdmpval.operators._integrand_batch

        def batch(model, x0, n, cols):
            vals = real(model, x0, n, cols)
            sizes.append(vals.size)
            return vals

        monkeypatch.setattr(pdmpval.operators, "_integrand_batch", batch)
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=10000, d=4, seed=5, replicates=10)
        estimate_value(0.0, 2, rule, loan_model)
        # full chunk: stacks of 4, 4 and 2 replicates; partial chunk: all 10
        assert sizes == [4 * 8192, 4 * 8192, 2 * 8192, 10 * 1808]


def _integrand_batch_oracle(model, x0, n, cols):
    """The integrand before nodes were dropped: every node runs every stage.

    Kept as it was, as the reference the dropping loop must match bit for bit.
    """
    p = model.params
    table = model.table
    lam, delta, alpha, ruin = p.lam, p.delta, p.alpha, p.ruin_level
    log_lam = math.log(lam)
    log_alpha = math.log(alpha)

    logv = np.clip(cols(0), pdmpval.operators._LOG_TINY, 1.0)
    m = logv.shape[0]
    chi = float(x0)  # every node starts here: the first stage solves its time once
    logw = np.zeros(m)
    total = np.zeros(m)
    for j in range(n):
        if j:
            logv = np.clip(cols(2 * j), pdmpval.operators._LOG_TINY, 1.0)
        np.log(logv, out=logv)
        if j == n - 1:  # nothing reads the last stage's position
            reward = table.stage(*table.start(chi), -logv)
        else:
            reward, chi_pre = table.stage(*table.start(chi), -logv, position=True)
        total += np.exp(logw + log_lam + (lam - 1.0) * logv) * reward
        if j < n - 1:
            span = chi_pre - ruin
            jump = cols(2 * j + 1) * span
            logw += (log_lam + (lam + delta - 1.0) * logv
                     + log_alpha - alpha * jump + np.log(span))
            chi = chi_pre - jump
            del reward, chi_pre, logv, span, jump
    if not np.all(np.isfinite(total)):
        raise ModelError("iterated integrand overflowed at a corner node")
    return total


# the published parameters at three widths, one more parameter set and one
# with lam + delta < 1, whose weights grow as v -> 0
_DROP_MODELS = {
    "eps=0.08": dict(eps=0.08),
    "eps=0.0025": dict(eps=0.0025),
    "eps=5e-4": dict(eps=5e-4),
    "wide-band": dict(c=6.0, rho=0.05, b=4.0, lam=2.5, alpha=0.8, delta=0.05, eps=0.02),
    "lam+delta<1": dict(c=4.0, rho=0.04, b=3.5, lam=0.7, alpha=2.0, delta=0.2, eps=0.01),
}
_DROP_GAUSS_M = {1: 16, 2: 8, 3: 4, 8: 2, 32: 1, 64: 1}  # within the 1e7-node budget


@pytest.fixture(scope="module")
def drop_models():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lam + delta <= 3 warns of an unbounded integrand
        return {name: SmoothedLoanModel.build(**kw) for name, kw in _DROP_MODELS.items()}


def _outcome(model, x0, n, rule):
    """The estimate's value and error bar in hex, or the ModelError it raised."""
    try:
        est = estimate_value(x0, n, rule, model)
    except ModelError as exc:
        return "ModelError", str(exc)
    return est.value.hex(), None if est.std_error is None else est.std_error.hex()


def _located_and_started(monkeypatch, table):
    """Record the node count of every locate call and of every time solve of
    a node array (the first stage's shared start is a scalar, which locate
    records as 1 and start not at all)."""
    located, started = [], []
    cls = type(table)
    real_locate, real_start = cls.locate, cls.start

    def locate(self, y):
        located.append(np.size(y))
        return real_locate(self, y)

    def start(self, y, k=None):
        if np.ndim(y):
            started.append(np.size(y))
        return real_start(self, y, k)

    monkeypatch.setattr(cls, "locate", locate)
    monkeypatch.setattr(cls, "start", start)
    return located, started


def _evaluated_stage_sizes(monkeypatch, table):
    """Record the node count of every evaluated stage (one list per patch)."""
    sizes = []
    real = type(table).stage
    monkeypatch.setattr(type(table), "stage", lambda self, T0, k0, t, position=False:
                        sizes.append(np.size(t)) or real(self, T0, k0, t, position))
    return sizes


class TestDroppedNodes:
    """A node is dropped once no remaining stage can reach the dividend band;
    every value is the every-node-every-stage loop's bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["sobol", "halton", "mc", "gauss"])
    @pytest.mark.parametrize("name", sorted(_DROP_MODELS))
    def test_estimates_match_the_oracle(self, drop_models, monkeypatch, name, kind):
        model = drop_models[name]
        p = model.params
        sizes = _evaluated_stage_sizes(monkeypatch, model.table)
        located, started = _located_and_started(monkeypatch, model.table)
        nodes = 0
        for x0 in (0.0, -99.99, -50.0, 3.0, p.b, float(np.nextafter(p.ruin_level, np.inf))):
            for n in (1, 2, 3, 8, 32, 64):
                if kind == "gauss":
                    rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=_DROP_GAUSS_M[n], d=2 * n)
                else:
                    rule = CubatureSpec(kind=RuleKind(kind), M=128, d=2 * n, seed=n,
                                        replicates=3)
                got = _outcome(model, x0, n, rule)
                nodes += n * (rule.M ** (2 * n - 1) if kind == "gauss" else 3 * rule.M)
                marks = [len(a) for a in (sizes, located, started)]
                with monkeypatch.context() as patch:
                    patch.setattr(pdmpval.operators, "_integrand_batch", _integrand_batch_oracle)
                    want = _outcome(model, x0, n, rule)
                for a, mark in zip((sizes, located, started), marks):
                    del a[mark:]  # the oracle's calls
                assert got == want, (x0, n)
        # the rule drops nodes here: fewer node-stages ran than the oracle's,
        # and the pre-test drops some nodes before their time solve
        assert 0 < sum(sizes) < nodes
        assert 0 < sum(started) < sum(located)

    def test_margin_edge_nodes_match_the_oracle(self, loan_model, monkeypatch):
        # nodes whose start time plus remaining time lies within a few steps
        # e of grid_t[_kz], where dividends start, a third of them never
        # jumping, so they stay at the edge on every stage; and nodes within
        # 1e-10 of it that never jump, where a cut without the steps e
        # drops nodes whose rounded times still reach the band
        table = loan_model.table
        t_cut, e = table._cut_t, table._cut_step
        assert 0.0 < e < 0.03  # the ruin end's slope makes e about 0.02 here
        sizes = _evaluated_stage_sizes(monkeypatch, table)
        for n in (1, 3, 8, 16):
            for x0 in (-50.0, -1.0, 0.0):
                offsets = np.concatenate([e * np.linspace(-(n + 3), 3, 301),
                                          np.linspace(-1e-10, 1e-10, 2001)])
                v = np.exp(-(t_cut - table.time_of(x0) + offsets) / n)
                z = np.concatenate([np.resize([0.0, 1e-12, 0.5], 301), np.zeros(2001)])
                cols = lambda dim: v if dim % 2 == 0 else z
                sizes.clear()
                got = pdmpval.operators._integrand_batch(loan_model, x0, n, cols)
                want = _integrand_batch_oracle(loan_model, x0, n, cols)
                assert got.tobytes() == want.tobytes(), (n, x0)
                assert (got > 0.0).any() and (got == 0.0).any()
                assert sizes[0] < v.size  # the edge's lower side is dropped at once

    def test_pre_test_margin_nodes_match_the_oracle(self, loan_model, monkeypatch):
        # stage 0 runs from -50 and jumps into the grid_y interval below knot
        # i: just under the knot, at its middle or just over the knot below,
        # so the drop test of stage 1 bounds the node's time by grid_t[i].
        # The remaining time puts that bound within a few steps e of the
        # test's cut, on both sides, with no later jump: the test drops one
        # side unsolved, and solves and evaluates every node it leaves
        table = loan_model.table
        t_cut, e, grid_t, grid_y = table._cut_t, table._cut_step, table.grid_t, table.grid_y
        x0, t1 = -50.0, 2.0
        T0 = table.time_of(x0)
        chi_pre = table.stage(*table.start(x0), t1, position=True)[1]
        i = np.searchsorted(grid_t, T0) + np.arange(4, 60, 8)  # knots below chi_pre
        assert grid_t[i[-1]] < T0 + t1
        lo, hi = grid_y[i - 1], grid_y[i]
        located, started = _located_and_started(monkeypatch, table)
        sizes = _evaluated_stage_sizes(monkeypatch, table)
        for n in (2, 3, 8):
            offsets = e * np.linspace(-3.0, n + 3.0, 8 * n + 49)
            target = np.concatenate([hi - 1e-9 * (hi - lo), 0.5 * (lo + hi),
                                     lo + 1e-9 * (hi - lo)])
            t_up = np.tile(grid_t[i], 3)
            target, t_up = (np.repeat(a, offsets.size) for a in (target, t_up))
            rem = t_cut - n * e - t_up + np.tile(offsets, i.size * 3)
            v = np.exp(-rem / (n - 1))
            cols = {0: np.full(v.size, math.exp(-t1)),
                    1: (chi_pre - target) / (chi_pre - RUIN)}
            col = lambda dim: cols.get(dim, v if dim % 2 == 0 else np.zeros(v.size))
            for a in (located, started, sizes):
                a.clear()
            got = pdmpval.operators._integrand_batch(loan_model, x0, n, col)
            seen = located[1], started[0], sizes[:2]
            want = _integrand_batch_oracle(loan_model, x0, n, col)
            assert got.tobytes() == want.tobytes(), n
            assert (got > 0.0).any() and (got == 0.0).any()
            # every node reaches stage 1; the drop test drops some of them,
            # and every node it leaves is solved and evaluated
            assert seen[0] == v.size and 0 < seen[1] < seen[0]
            assert seen[2] == [v.size, seen[1]]

    def test_pre_test_spares_most_stage_one_time_solves(self, loan_model, monkeypatch):
        # at the epsilon study's shape (n = 2) about 88% of the nodes reach
        # stage 1, most of them jumped toward the ruin end; a test on the
        # solved time would solve all their times to drop 95% of them
        located, started = _located_and_started(monkeypatch, loan_model.table)
        m, reps = 2048, 4
        rule = CubatureSpec(kind=RuleKind.SOBOL, M=m, d=4, seed=1, replicates=reps)
        estimate_value(0.0, 2, rule, loan_model)
        assert len(located) == 2 and located[1] >= 0.8 * m * reps
        assert 0 < sum(started) <= 0.15 * m * reps

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_corner_node_still_raises(self, loan_model):
        # 128 stages without a jump from -20 end far below the band, so the
        # time rule alone would drop the node at once; its weight overflows
        # exp() on the way, which the every-stage loop reports
        n, x0, r = 128, -20.0, 1.0
        table = loan_model.table
        assert table.time_of(x0) + r < table.reward_cut(n)
        coords = np.zeros(2 * n)
        coords[0::2] = math.exp(-r / n)
        with pytest.raises(ModelError, match="overflowed"):
            _integrand_batch_oracle(loan_model, x0, n, lambda dim: coords[dim:dim + 1])
        with pytest.raises(ModelError, match="overflowed"):
            point_integrand(loan_model, x0, coords)


class TestRemainingTime:
    """A node's remaining time is minus the log of its v product; a product
    of 0 or below the smallest normal gives +inf, and such a node is never
    dropped."""

    # (v_1, z_1, ...) at n = 3 from x0 = 0: a v coordinate of exactly 0.0,
    # first and later, and v products of 2^-1051 and 2^-1061 (below the
    # smallest normal, 2^-1022) and 2^-1101 (which underflows to 0)
    NODES = {
        "zero-v-first": [0.0, 0.5, 0.5, 0.5, 0.5, 0.5],
        "zero-v-later": [0.5, 0.5, 0.0, 0.5, 0.25, 0.5],
        "subnormal-product": [2.0 ** -550, 0.5, 2.0 ** -501, 0.5, 1.0, 0.5],
        "subnormal-product-later": [0.5, 0.5, 2.0 ** -1000, 0.5, 2.0 ** -60, 0.5],
        "underflowing-product": [2.0 ** -600, 0.5, 2.0 ** -501, 0.5, 1.0, 0.5],
    }

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_edge_node_matches_the_oracles(self, loan_model, name):
        coords = np.array(self.NODES[name])
        n = coords.size // 2
        assert np.prod(coords[0::2]) < np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = point_integrand(loan_model, 0.0, coords)
            naive = _naive_truncated_integrand(coords, 0.0, loan_model, n)
        want = _integrand_batch_oracle(loan_model, 0.0, n, lambda dim: coords[dim:dim + 1])
        assert got.hex() == want[0].hex()
        # the per-term oracle multiplies its weights where the integrand adds
        # their logs, so a nonzero total may differ in its last bits; a node
        # whose v = 0 or whose weights underflow adds exactly 0.0 in both
        if name in ("zero-v-first", "subnormal-product", "underflowing-product"):
            assert got.hex() == naive.hex() == "0x0.0p+0"
        else:
            assert got > 0.0 and got == pytest.approx(naive, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["published", "lam+delta<1"])
    def test_batch_with_edge_nodes_matches_the_oracle(self, loan_model, drop_models, rng,
                                                      monkeypatch, name):
        # the edge nodes among ordinary ones, most of which the drop test
        # removes; lam + delta < 1 makes the weight guard read the remaining time
        model = loan_model if name == "published" else drop_models[name]
        n = 3
        block = np.vstack([rng.uniform(size=(512, 2 * n)), list(self.NODES.values())])
        cols = lambda dim: block[:, dim]
        sizes = _evaluated_stage_sizes(monkeypatch, model.table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pdmpval.operators._integrand_batch(model, 0.0, n, cols)
        assert sizes[-1] < block.shape[0]  # the drop test removed nodes
        want = _integrand_batch_oracle(model, 0.0, n, cols)
        assert got.tobytes() == want.tobytes()
