import math

import pytest

from pdmpval.errors import InputError, ModelError
from pdmpval.loan import LoanParams
from pdmpval.model import ComponentSpec, Interval, ModelSpec, bias_bound, value_upper_bound

# frozen oracle: (4/4.02)^512 evaluated directly, cross-checked via exp(512 ln(4/4.02))
BIAS_512 = 0.077799423826681


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


class TestTStar:
    """The unsmoothed loan model, the one the Monte Carlo reference simulates,
    takes its rates from ``LoanParams``, which rejects a bad one by name."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["c", "rho", "b", "lam", "alpha", "delta"])
    def test_unsmoothed_model_rejects_bad_rates(self, name, value):
        with pytest.raises(InputError, match=name):
            LoanParams(**{name: value})


class TestModelValidation:
    def test_shipped_specs_validate(self, loan_model):
        loan_model.spec.validate(samples=2000)

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

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_bad_intensity_bound_rejected(self, bound):
        # a NaN or infinite bound would pass every sampled intensity check
        with pytest.raises(ModelError, match="intensity bound"):
            ComponentSpec(domain=Interval(0.0, 10.0, closed_lower=True),
                          intensity=lambda y: y, intensity_bound=bound)

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
