import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pdmpval.errors import InputError, ModelError
from pdmpval.loan import unsmoothed_loan_model
from pdmpval.model import (
    ComponentSpec,
    Interval,
    ModelSpec,
    State,
    bias_bound,
    survival,
    t_star,
    value_upper_bound,
)

C, RHO, B, LAM = 5.0, 0.05, 3.24289, 4.0

# frozen oracle: (4/4.02)^512 evaluated directly, cross-checked via exp(512 ln(4/4.02))
BIAS_512 = 0.077799423826681


@pytest.fixture(scope="module")
def unsmoothed_spec():
    return unsmoothed_loan_model()


class TestState:
    def test_scalar_roundtrip(self):
        s = State(1, 0.5)
        assert s.k == 1 and s.scalar == 0.5 and s.y.shape == (1,)

    def test_vector_position_carried(self):
        s = State(4, [1.0, 2.0])
        assert s.y.shape == (2,)
        with pytest.raises(InputError):
            _ = s.scalar


class TestInterval:
    def test_openness_flags(self):
        iv = Interval(0.0, 1.0, closed_lower=True, closed_upper=False)
        assert iv.contains(0.0) and iv.contains(0.999)
        assert not iv.contains(1.0) and not iv.contains(-0.1)


class TestTStar:
    def test_smoothed_model_interior_never_exits(self, loan_model):
        assert t_star(loan_model.spec, State(1, 0.0)) == math.inf

    def test_cemetery_constant_flow(self, loan_model):
        assert t_star(loan_model.spec, State(2, -200.0)) == math.inf

    def test_unsmoothed_linear_flow_hits_barrier(self, unsmoothed_spec):
        # linear flow y + c t reaches b at (b - y)/c; root-finding oracle
        y0 = B - 1.0
        assert t_star(unsmoothed_spec, State(1, y0)) == pytest.approx(1.0 / 5.0, abs=1e-10)
        oracle = brentq(lambda t: (y0 + C * t) - B, 0.0, 10.0, xtol=1e-14)
        assert t_star(unsmoothed_spec, State(1, y0)) == pytest.approx(oracle, abs=1e-10)

    def test_unsmoothed_loan_band_hits_zero(self, unsmoothed_spec):
        # component 2 flows by c + rho*y toward its upper end 0
        y0 = -10.0
        expect = math.log((C / RHO) / (y0 + C / RHO)) / RHO
        assert t_star(unsmoothed_spec, State(2, y0)) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["c", "rho", "b", "lam", "alpha", "delta"])
    def test_unsmoothed_model_rejects_bad_rates(self, name, value):
        with pytest.raises(InputError, match=name):
            unsmoothed_loan_model(**{name: value})

    def test_domain_violation(self, loan_model):
        with pytest.raises(InputError):
            t_star(loan_model.spec, State(1, -C / RHO - 1.0))
        with pytest.raises(InputError):
            t_star(loan_model.spec, State(7, 0.0))


class TestSurvival:
    def test_zero_horizon(self, loan_model):
        assert survival(loan_model.spec, State(1, 0.0), 0.0) == 1.0

    def test_constant_intensity_closed_form(self, loan_model):
        got = survival(loan_model.spec, State(1, 0.0), 0.25)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_infinite_horizon(self, loan_model):
        assert survival(loan_model.spec, State(1, 0.0), math.inf) == 0.0
        assert survival(loan_model.spec, State(2, -200.0), math.inf) == 1.0

    def test_state_dependent_intensity_constant_flow(self):
        comp = ComponentSpec(domain=Interval(0.0, 50.0, closed_lower=True),
                             intensity=lambda y: y, intensity_bound=50.0)
        spec = ModelSpec(components={1: comp}, jump_kernel=None,
                         reward=lambda k, y: 0.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=0.0, terminal_bound=0.0)
        # drift None -> identity flow, so the integral is lambda(y) * t = 2
        assert survival(spec, State(1, 1.0), 2.0) == pytest.approx(math.exp(-2.0), rel=1e-8)

    def test_state_dependent_intensity_moving_flow(self):
        comp = ComponentSpec(domain=Interval(0.0, 100.0, closed_lower=True),
                             drift=lambda y: 1.0, intensity=lambda y: y,
                             intensity_bound=100.0, flow=lambda y, t: y + t)
        spec = ModelSpec(components={1: comp}, jump_kernel=None,
                         reward=lambda k, y: 0.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=0.0, terminal_bound=0.0)
        # integral of (y + s) over [0, t]
        for y0, t in ((1.0, 2.0), (0.5, 3.0)):
            expect = math.exp(-(y0 * t + t * t / 2.0))
            assert survival(spec, State(1, y0), t) == pytest.approx(expect, rel=1e-8)

    def test_drift_without_flow_evaluator_rejected(self):
        comp = ComponentSpec(domain=Interval(0.0, 100.0, closed_lower=True),
                             drift=lambda y: 1.0, intensity=lambda y: y, intensity_bound=100.0)
        spec = ModelSpec(components={1: comp}, jump_kernel=None,
                         reward=lambda k, y: 0.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=0.0, terminal_bound=0.0)
        with pytest.raises(ModelError, match="no flow evaluator"):
            survival(spec, State(1, 1.0), 2.0)

    def test_semigroup_composition(self, rng):
        comp = ComponentSpec(domain=Interval(0.0, 100.0, closed_lower=True),
                             drift=lambda y: 1.0, intensity=lambda y: y,
                             intensity_bound=100.0, flow=lambda y, t: y + t)
        spec = ModelSpec(components={1: comp}, jump_kernel=None,
                         reward=lambda k, y: 0.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=0.0, terminal_bound=0.0)
        for _ in range(100):
            y0 = float(rng.uniform(0.0, 3.0))
            s = float(rng.uniform(0.0, 2.0))
            t = float(rng.uniform(0.0, 2.0))
            lhs = survival(spec, State(1, y0), s + t)
            rhs = survival(spec, State(1, y0), s) * survival(spec, State(1, y0 + s), t)
            assert abs(lhs - rhs) < 1e-8

    def test_nonincreasing_in_t(self, loan_model):
        ts = np.linspace(0.0, 3.0, 50)
        vals = [survival(loan_model.spec, State(1, 0.0), float(t)) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_time_rejected(self, loan_model):
        with pytest.raises(InputError):
            survival(loan_model.spec, State(1, 0.0), -0.1)


class TestValueUpperBound:
    def test_published_parameters(self, loan_model):
        assert value_upper_bound(loan_model.spec) == pytest.approx(250.0, abs=1e-12)

    def test_terminal_only(self):
        spec = ModelSpec(components={}, jump_kernel=None, reward=lambda k, y: 0.0,
                         terminal=lambda k, y: 0.0, discount=1.0,
                         reward_bound=0.0, terminal_bound=1.0)
        assert value_upper_bound(spec) == 1.0

    def test_mixed(self):
        spec = ModelSpec(components={}, jump_kernel=None, reward=lambda k, y: 0.0,
                         terminal=lambda k, y: 0.0, discount=1.0,
                         reward_bound=1.0, terminal_bound=1.0)
        assert value_upper_bound(spec) == 2.0

    def test_nonpositive_discount_rejected(self):
        with pytest.raises(InputError):
            ModelSpec(components={}, jump_kernel=None, reward=lambda k, y: 0.0,
                      terminal=lambda k, y: 0.0, discount=0.0,
                      reward_bound=1.0, terminal_bound=0.0)

    @pytest.mark.parametrize("bounds", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0),
                                        (-1.0, 0.0), (0.0, -1.0)],
                             ids=["reward-nan", "terminal-nan", "reward-inf", "reward-negative",
                                  "terminal-negative"])
    def test_bad_declared_bounds_rejected(self, bounds):
        # a NaN bound would pass every sampled check and make C_V NaN
        with pytest.raises(InputError, match="bound"):
            ModelSpec(components={}, jump_kernel=None, reward=lambda k, y: 0.0,
                      terminal=lambda k, y: 0.0, discount=1.0,
                      reward_bound=bounds[0], terminal_bound=bounds[1])

    @pytest.mark.parametrize("discount", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_discount_rejected(self, discount):
        with pytest.raises(InputError, match="discount"):
            ModelSpec(components={}, jump_kernel=None, reward=lambda k, y: 0.0,
                      terminal=lambda k, y: 0.0, discount=discount,
                      reward_bound=1.0, terminal_bound=0.0)
        # the bound re-checks a spec whose discount was changed after its check
        spec = ModelSpec(components={}, jump_kernel=None, reward=lambda k, y: 0.0,
                         terminal=lambda k, y: 0.0, discount=1.0,
                         reward_bound=1.0, terminal_bound=0.0)
        spec.discount = discount
        with pytest.raises(InputError, match="discount"):
            value_upper_bound(spec)


class TestBiasBound:
    def test_zero_jumps_returns_value_bound(self):
        assert bias_bound(0, 4.0, 0.02, 250.0) == 250.0

    def test_frozen_reference_value(self):
        got = bias_bound(512, 4.0, 0.02, 1.0)
        assert got == pytest.approx(BIAS_512, abs=1e-12)
        assert got == pytest.approx(math.exp(512.0 * math.log(4.0 / 4.02)), abs=1e-15)

    def test_scales_linearly_in_value_bound(self):
        assert bias_bound(512, 4.0, 0.02, 250.0) == pytest.approx(250.0 * BIAS_512, rel=1e-14)

    def test_strictly_decreasing(self):
        vals = [bias_bound(n, 4.0, 0.02, 250.0) for n in range(0, 513)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(InputError):
            bias_bound(-1, 4.0, 0.02, 1.0)
        with pytest.raises(InputError):
            bias_bound(1, 0.0, 0.02, 1.0)
        with pytest.raises(InputError):
            bias_bound(1, 4.0, 0.0, 1.0)
        with pytest.raises(InputError):
            bias_bound(1, 4.0, 0.02, -1.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 4.0, 0.02, 1.0), (math.inf, 4.0, 0.02, 1.0), (1.5, 4.0, 0.02, 1.0),
        (1, math.nan, 0.02, 1.0), (1, math.inf, 0.02, 1.0), (1, -4.0, 0.02, 1.0),
        (1, 4.0, math.nan, 1.0), (1, 4.0, math.inf, 1.0), (1, 4.0, -0.02, 1.0),
        (1, 4.0, 0.02, math.nan), (1, 4.0, 0.02, math.inf),
    ], ids=["n-nan", "n-inf", "n-fraction", "lambda-nan", "lambda-inf", "lambda-negative",
            "delta-nan", "delta-inf", "delta-negative", "cv-nan", "cv-inf"])
    def test_non_finite_inputs_rejected(self, args):
        with pytest.raises(InputError):
            bias_bound(*args)


class TestModelValidation:
    def test_shipped_specs_validate(self, loan_model, unsmoothed_spec):
        loan_model.spec.validate(samples=2000)
        unsmoothed_spec.validate(samples=2000)

    def test_cemetery_with_intensity_rejected(self):
        with pytest.raises(ModelError):
            ComponentSpec(domain=Interval(0.0, 1.0), intensity=1.0,
                          intensity_bound=1.0, is_cemetery=True)

    def test_cemetery_with_drift_rejected(self):
        with pytest.raises(ModelError):
            ComponentSpec(domain=Interval(0.0, 1.0), drift=lambda y: 1.0,
                          is_cemetery=True)

    def test_intensity_bound_enforced_by_sampling(self):
        comp = ComponentSpec(domain=Interval(0.0, 10.0, closed_lower=True),
                             intensity=lambda y: y, intensity_bound=5.0)
        spec = ModelSpec(components={1: comp}, jump_kernel=None,
                         reward=lambda k, y: 0.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=0.0, terminal_bound=0.0)
        with pytest.raises(ModelError):
            spec.validate(samples=500)

    def test_reward_on_cemetery_rejected(self):
        comps = {
            1: ComponentSpec(domain=Interval(0.0, 1.0, closed_lower=True),
                             intensity=1.0, intensity_bound=1.0),
            2: ComponentSpec(domain=Interval(-1.0, 0.0), is_cemetery=True),
        }
        spec = ModelSpec(components=comps, jump_kernel=None,
                         reward=lambda k, y: 1.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=1.0, terminal_bound=0.0)
        with pytest.raises(ModelError):
            spec.validate(samples=500)

    def test_terminal_off_cemetery_rejected(self):
        comps = {
            1: ComponentSpec(domain=Interval(0.0, 1.0, closed_lower=True),
                             intensity=1.0, intensity_bound=1.0),
        }
        spec = ModelSpec(components=comps, jump_kernel=None,
                         reward=lambda k, y: 0.0, terminal=lambda k, y: 1.0,
                         discount=1.0, reward_bound=0.0, terminal_bound=1.0)
        with pytest.raises(ModelError):
            spec.validate(samples=500)

    def test_reward_bound_enforced(self):
        comps = {
            1: ComponentSpec(domain=Interval(0.0, 1.0, closed_lower=True),
                             intensity=1.0, intensity_bound=1.0),
        }
        spec = ModelSpec(components=comps, jump_kernel=None,
                         reward=lambda k, y: 2.0, terminal=lambda k, y: 0.0,
                         discount=1.0, reward_bound=1.0, terminal_bound=0.0)
        with pytest.raises(ModelError):
            spec.validate(samples=500)
