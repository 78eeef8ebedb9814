import math

import numpy as np
import pytest

import pdmpval.loan
from pdmpval import smoothing
from pdmpval.errors import InputError, ModelError
from pdmpval.smoothing import (
    JumpKernelSpec,
    KernelBranch,
    heaviside,
    loan_drift,
    smoothed_branch_weight,
    smoothed_drift_loan,
    smoothed_kernel_integrate,
    smoothed_reward_loan,
    unsmoothed_drift_loan,
)

C, RHO, B, EPS = 5.0, 0.05, 3.24289, 0.01


def one_sided(f, x, h, order, side):
    xs = x + side * h * np.arange(4)
    v = np.array([float(f(xi)) for xi in xs])
    if order == 1:
        return side * (-11 * v[0] + 18 * v[1] - 9 * v[2] + 2 * v[3]) / (6 * h)
    return (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)


class TestHeaviside:
    def test_endpoints_exact(self):
        assert heaviside(-1.0) == 0.0
        assert heaviside(1.0) == 1.0
        assert heaviside(-5.0) == 0.0
        assert heaviside(7.0) == 1.0

    def test_half_at_zero(self):
        assert heaviside(0.0) == 0.5

    def test_value_at_half(self):
        # 1/2 + 15/32 - 5/64 + 3/512 = 459/512, all terms dyadic
        assert heaviside(0.5) == pytest.approx(459.0 / 512.0, abs=1e-16)
        assert 459.0 / 512.0 == 0.896484375

    def test_symmetry_on_grid(self):
        y = np.linspace(-2.0, 2.0, 1001)
        assert np.max(np.abs(heaviside(y) + heaviside(-y) - 1.0)) <= 1e-15

    def test_monotone_sampled_pairs(self, rng):
        a = rng.uniform(-1.5, 1.5, 10_000)
        b = rng.uniform(-1.5, 1.5, 10_000)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(heaviside(lo) <= heaviside(hi))

    def test_c2_junctions(self):
        for x in (-1.0, 1.0):
            for order, h in ((1, 1e-4), (2, 1e-4)):
                inner = one_sided(heaviside, x, h, order, -int(np.sign(x)))
                outer = one_sided(heaviside, x, h, order, int(np.sign(x)))
                assert abs(inner - outer) < 1e-6

    def test_vectorised_matches_scalar(self):
        ys = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        assert np.array_equal(heaviside(ys), np.array([heaviside(float(y)) for y in ys]))


class TestSmoothedDrift:
    def test_zero_at_and_above_barrier(self):
        assert smoothed_drift_loan(B, C, RHO, B, EPS) == 0.0
        assert smoothed_drift_loan(B + 0.5, C, RHO, B, EPS) == 0.0
        assert smoothed_drift_loan(-C / RHO, C, RHO, B, EPS) == 0.0

    def test_continuity_at_minus_eps(self):
        assert smoothed_drift_loan(-EPS, C, RHO, B, EPS) == pytest.approx(C - RHO * EPS, abs=1e-13)

    def test_blend_value_at_zero(self):
        # c - 3*rho*eps/16 from substituting y=0 into the quartic blend
        assert smoothed_drift_loan(0.0, C, RHO, B, EPS) == pytest.approx(
            C - 3.0 * RHO * EPS / 16.0, abs=1e-13)

    def test_equals_unsmoothed_outside_bands(self, rng):
        ys = np.concatenate([
            rng.uniform(-C / RHO + 1e-9, -EPS - 1e-12, 2000),
            rng.uniform(EPS + 1e-12, B - EPS, 2000),
            rng.uniform(B, B + 5.0, 500),
            rng.uniform(-150.0, -C / RHO, 500),
        ])
        assert np.array_equal(smoothed_drift_loan(ys, C, RHO, B, EPS),
                              unsmoothed_drift_loan(ys, C, RHO, B))

    def test_nonnegative_everywhere(self):
        ys = np.linspace(-C / RHO - 1.0, B + 1.0, 200_001)
        assert np.min(smoothed_drift_loan(ys, C, RHO, B, EPS)) >= 0.0

    def test_c2_across_knots(self):
        g = lambda y: smoothed_drift_loan(y, C, RHO, B, EPS)
        for knot in (-EPS, EPS, B - EPS, B):
            for order, h in ((1, EPS / 320.0), (2, EPS * 7e-5)):
                left = one_sided(g, knot, h, order, -1)
                right = one_sided(g, knot, h, order, +1)
                scale = max(abs(left), abs(right), C / EPS if order == 1 else C / EPS ** 2)
                assert abs(left - right) <= 1e-5 * scale

    @pytest.mark.parametrize("eps", (0.08, 0.04, 0.02, 0.01, 0.005, 0.0025, 5e-4))
    def test_float_path_matches_array_path(self, eps):
        # every piece, every knot and its float neighbours, the study's widths
        # and narrower ones, through the function and the drift it makes
        rng = np.random.default_rng(31)
        knots = np.array([-C / RHO, -eps, eps, B - eps, B])
        edges = np.concatenate([[-C / RHO - 5.0], knots, [B + 5.0]])
        ys = np.concatenate([
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            *(rng.uniform(lo, hi, 5_000) for lo, hi in zip(edges[:-1], edges[1:])),
        ])
        for g in (lambda y: smoothed_drift_loan(y, C, RHO, B, eps), loan_drift(C, RHO, B, eps)):
            arr = g(ys)
            flt = [g(float(y)) for y in ys]
            assert all(type(v) is float for v in flt)
            assert np.array_equal(np.array(flt).view(np.int64), arr.view(np.int64))
            assert type(g(np.float64(0.5))) is float

    def test_eps_window_validated(self):
        with pytest.raises(InputError):
            smoothed_drift_loan(0.0, C, RHO, B, B / 2.0)  # bands would overlap
        with pytest.raises(InputError):
            smoothed_drift_loan(0.0, C, RHO, B, 0.0)
        with pytest.raises(InputError):
            smoothed_drift_loan(0.0, 0.01, 10.0, B, 0.01)  # eps >= c/(2 rho)

    def test_eps_checked_when_the_drift_is_made(self, monkeypatch):
        checks = []
        real = smoothing._check_loan_eps
        for module in (smoothing, pdmpval.loan):
            monkeypatch.setattr(module, "_check_loan_eps", lambda *a: checks.append(a) or real(*a))
        # a bad width raises when the drift is made, not at its first call
        for bad in (0.0, -EPS, B / 2.0, math.nan):
            with pytest.raises(InputError):
                loan_drift(C, RHO, B, bad)
        checks.clear()
        g = loan_drift(C, RHO, B, EPS)
        assert checks == [(C, RHO, B, EPS)]
        checks.clear()
        for y in np.linspace(-C / RHO, B, 500):
            g(float(y))
        g(np.array([0.0, 1.0]))
        assert checks == []
        # one build checks twice: in LoanParams and in loan_drift
        pdmpval.loan.SmoothedLoanModel.build(eps=EPS)
        assert checks == [(C, RHO, B, EPS)] * 2


class TestSmoothedReward:
    def test_ramp_endpoints(self):
        # the quintic is cubically tangent at the ends, so argument roundoff
        # from forming b - 2*eps leaves at most ~1e-40
        assert abs(smoothed_reward_loan(B - 2 * EPS, C, B, EPS)) < 1e-30
        assert smoothed_reward_loan(B, C, B, EPS) == C
        assert smoothed_reward_loan(B - EPS, C, B, EPS) == pytest.approx(C / 2.0, abs=1e-13)

    def test_monotone(self):
        ys = np.linspace(B - 3 * EPS, B + EPS, 5001)
        assert np.all(np.diff(smoothed_reward_loan(ys, C, B, EPS)) >= 0.0)

    def test_bad_eps(self):
        for eps in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(InputError, match="finite and positive"):
                smoothed_reward_loan([0.0, B], C, B, eps)


class TestBranchWeights:
    def test_deep_interior_is_one(self):
        assert smoothed_branch_weight(0.25, 1, [0.0, 0.5, 1.0], 0.05) == 1.0

    def test_half_at_interior_cut(self):
        w1 = smoothed_branch_weight(0.5, 1, [0.0, 0.5, 1.0], 0.05)
        w2 = smoothed_branch_weight(0.5, 2, [0.0, 0.5, 1.0], 0.05)
        assert w1 == 0.5 and w2 == 0.5

    def test_two_branch_example(self):
        # u0=0.55, eps=0.1: branch 1 weight h(5.5)h(-0.5)=h(-0.5), branch 2 h(0.5)h(4.5)
        w1 = smoothed_branch_weight(0.55, 1, [0.0, 0.5, 1.0], 0.1)
        w2 = smoothed_branch_weight(0.55, 2, [0.0, 0.5, 1.0], 0.1)
        assert w1 == pytest.approx(1.0 - 459.0 / 512.0, abs=1e-15)  # 0.103515625
        assert w2 == pytest.approx(459.0 / 512.0, abs=1e-15)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-15)

    def test_partition_of_unity(self):
        # exact partition of unity on [eps, 1-eps]; the ramps at the domain
        # ends u0=0, u0=1 are the O(eps) mass the kernel error bound absorbs
        q = [0.0, 0.3, 0.7, 1.0]
        eps = 0.04
        u0 = np.linspace(eps, 1.0 - eps, 2001)
        total = sum(smoothed_branch_weight(u0, j, q, eps) for j in (1, 2, 3))
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        edge = sum(smoothed_branch_weight(0.0, j, q, eps) for j in (1, 2, 3))
        assert edge == 0.5

    def test_input_validation(self):
        with pytest.raises(InputError):
            smoothed_branch_weight(0.5, 1, [0.0, 0.6, 0.4], 0.05)
        with pytest.raises(InputError):
            smoothed_branch_weight(0.5, 3, [0.0, 0.5, 1.0], 0.05)
        for eps in (-0.05, 0.0, math.nan, math.inf):
            with pytest.raises(InputError, match="finite and positive"):
                smoothed_branch_weight(0.5, 1, [0.0, 0.5, 1.0], eps)


def _mixture_spec(eps):
    # two exponential branches with rates 1 and 1/2
    return JumpKernelSpec(
        branches=(
            KernelBranch(prob=0.6, transform=lambda u, y: -math.log1p(-u) / 1.0),
            KernelBranch(prob=0.4, transform=lambda u, y: -math.log1p(-u) / 0.5),
        ),
        eps=eps,
    )


MIXTURE_EXACT = 0.6 * (1.0 / 2.0) + 0.4 * (0.5 / 1.5)  # sum p_j * a_j/(1+a_j)


class TestKernelIntegrate:
    def test_single_branch_equals_plain_integral(self):
        eps = 0.02
        spec = JumpKernelSpec(
            branches=(KernelBranch(prob=1.0, transform=lambda u, y: -math.log1p(-u)),),
            eps=eps,
        )
        f = lambda y: math.exp(-y)
        val = smoothed_kernel_integrate(f, 0.0, spec)
        assert abs(val - 0.5) <= 5.0 / 8.0 * eps * 1 * 1.0

    def test_two_equal_branches_normalise(self):
        eps = 0.05
        spec = JumpKernelSpec(
            branches=(
                KernelBranch(prob=0.5, transform=lambda u, y: u),
                KernelBranch(prob=0.5, transform=lambda u, y: u + 1.0),
            ),
            eps=eps,
        )
        val = smoothed_kernel_integrate(lambda y: 1.0, 0.0, spec)
        assert abs(val - 1.0) <= 5.0 / 8.0 * eps * 2

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_mixture_error_bound(self, eps):
        spec = _mixture_spec(eps)
        val = smoothed_kernel_integrate(lambda y: math.exp(-y), 0.0, spec)
        assert abs(val - MIXTURE_EXACT) <= 5.0 / 8.0 * eps * 2 * 1.0

    def test_eps_zero_recovers_exact_mixture(self):
        val = smoothed_kernel_integrate(lambda y: math.exp(-y), 0.0, _mixture_spec(0.0))
        assert val == pytest.approx(MIXTURE_EXACT, abs=1e-10)

    @pytest.mark.parametrize("eps", [-0.01, math.nan, math.inf])
    def test_width_finite_and_nonnegative(self, eps):
        with pytest.raises(InputError, match="finite and >= 0"):
            _mixture_spec(eps)

    def test_probability_overflow_rejected(self):
        spec = JumpKernelSpec(
            branches=(
                KernelBranch(prob=0.7, transform=lambda u, y: u),
                KernelBranch(prob=0.7, transform=lambda u, y: u),
            ),
            eps=0.0,
        )
        with pytest.raises(ModelError):
            smoothed_kernel_integrate(lambda y: 1.0, 0.0, spec)

    @pytest.mark.parametrize("prob", [1.0 + 1e-9, -1e-9, math.nan])
    def test_branch_mass_checked_when_made(self, prob):
        with pytest.raises(ModelError, match="branch probability"):
            KernelBranch(prob=prob, transform=lambda u, y: u)

    def test_branch_mass_rounding_clipped(self):
        assert KernelBranch(prob=1.0 + 1e-13, transform=lambda u, y: u).prob == 1.0
        assert KernelBranch(prob=-1e-13, transform=lambda u, y: u).prob == 0.0

    def test_deficit_mass_allowed(self):
        # branch masses summing below 1: the deficit is cemetery mass
        spec = JumpKernelSpec(
            branches=(KernelBranch(prob=0.5, transform=lambda u, y: u),),
            eps=0.0,
        )
        assert smoothed_kernel_integrate(lambda y: 1.0, 0.0, spec) == pytest.approx(0.5, abs=1e-12)


def _quad_weight_mass(a, b, eps):
    """The adaptive quadrature of the weight mass that the exact rule replaced,
    with its ramp breakpoints and tolerances."""
    from scipy.integrate import quad

    pts = sorted({min(max(p, 0.0), 1.0) for p in (a - eps, a + eps, b - eps, b + eps)})
    return quad(lambda u: heaviside((u - a) / eps) * heaviside((b - u) / eps), 0.0, 1.0,
                points=pts, limit=200, epsabs=1e-13, epsrel=1e-12)[0]


class TestWeightMass:
    """The mass of a mollified branch indicator is exact: a Gauss rule on each
    polynomial piece between the clipped ramp ends."""

    @pytest.mark.parametrize("a, b, eps", [(0.2, 0.7, 0.05), (0.3, 0.4, 0.01),
                                           (0.1, 0.9, 0.1), (0.45, 0.55, 0.05),
                                           (0.001, 0.999, 1e-3)])
    def test_interior_branch_keeps_its_width(self, a, b, eps):
        # each ramp lies inside [0, 1] and h(t) + h(-t) = 1: the ramps
        # move as much mass out of [a, b) as into it
        assert smoothing._weight_mass(a, b, eps) == pytest.approx(b - a, abs=2e-16)

    @pytest.mark.parametrize("a, b, eps", [(0.0, 0.5, 0.05), (0.5, 1.0, 0.05),
                                           (0.0, 0.3, 0.01), (0.6, 1.0, 0.2)])
    def test_one_ramp_clipped_loses_five_thirty_seconds_of_a_width(self, a, b, eps):
        # the half ramp inside [0, 1] integrates to eps * 27/32, not eps
        assert smoothing._weight_mass(a, b, eps) == pytest.approx(b - a - 5.0 * eps / 32.0,
                                                                  abs=2e-16)

    def test_both_ramps_clipped(self):
        assert smoothing._weight_mass(0.0, 1.0, 0.1) == pytest.approx(1.0 - 10.0 * 0.1 / 32.0,
                                                                      abs=2e-16)

    def test_published_check(self):
        assert smoothing._weight_mass(0.0, 0.5, 0.05) == pytest.approx(0.4921875, abs=1e-16)

    def test_narrow_branches_match_the_adaptive_quadrature(self, rng):
        # branches narrower than 2 eps, where the ramps overlap, inside
        # [0, 1], clipped at either end, and empty
        cases = [(0.4, 0.45, 0.05), (0.0, 0.05, 0.04), (0.98, 1.0, 0.03), (0.5, 0.5, 0.1),
                 (0.3, 0.35, 0.3), (0.0, 0.01, 0.3)]
        for _ in range(40):
            eps = 10.0 ** rng.uniform(-3.0, math.log10(0.3))
            a = rng.uniform(-0.5 * eps, 1.0)
            cases.append((max(a, 0.0), min(a + rng.uniform(0.0, 2.0 * eps), 1.0), eps))
        for a, b, eps in cases:
            assert smoothing._weight_mass(a, b, eps) == pytest.approx(
                _quad_weight_mass(a, b, eps), abs=1e-13), (a, b, eps)

    def test_unsmoothed_mass_is_the_width(self):
        assert smoothing._weight_mass(0.25, 0.75, 0.0) == 0.5
