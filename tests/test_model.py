import math

import numpy as np
import pytest

from pdmpval.errors import InputError, ModelError
from pdmpval.loan import LoanParams
from pdmpval.model import ModelSpec, bias_bound

# frozen oracle: (4/4.02)^512 evaluated directly, cross-checked via exp(512 ln(4/4.02))
BIAS_512 = 0.077799423826681


class TestValueUpperBound:
    def test_published_parameters(self, loan_params):
        assert loan_params.value_bound == pytest.approx(250.0, abs=1e-12)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0],
                             ids=["reward-nan", "reward-inf", "reward-negative"])
    def test_bad_declared_bounds_rejected(self, bound):
        # a NaN bound would pass every sampled check
        with pytest.raises(InputError, match="bound"):
            ModelSpec(points=np.linspace(0.0, 1.0, 5), reward=lambda y: 0.0, reward_bound=bound)

    def test_nonpositive_discount_rejected(self):
        # the value bound c/delta reads the discount rate of the parameters
        with pytest.raises(InputError):
            LoanParams(delta=0.0)

    @pytest.mark.parametrize("discount", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_discount_rejected(self, discount):
        with pytest.raises(InputError, match="delta"):
            LoanParams(delta=discount)
        # the bias bound re-checks the discount rate it is given
        with pytest.raises(InputError, match="discount"):
            bias_bound(1, 4.0, discount, 250.0)


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
        loan_model.spec.validate()

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0],
                             ids=["nan", "inf", "-inf", "negative"])
    def test_bad_intensity_bound_rejected(self, lam):
        # the intensity lam is the bias bound's C_lambda: refused when the
        # parameters are made, not first by the bias bound
        with pytest.raises(InputError, match="lam must be finite and positive"):
            LoanParams(lam=lam)

    def test_reward_bound_enforced(self):
        # a constant reward broadcasts against the points
        spec = ModelSpec(points=np.linspace(0.0, 1.0, 5), reward=lambda y: 2.0, reward_bound=1.0)
        with pytest.raises(ModelError):
            spec.validate()

    @pytest.mark.parametrize("excess", [1e-6, math.nan], ids=["above-c", "nan"])
    def test_reward_checked_on_the_dividend_ramp(self, loan_model, excess):
        # a reward that leaves [0, c] only on the ramp [b - 2 eps, b): the
        # table's states sample the ramp densely, so the check sees it
        p = loan_model.params
        ramp = lambda y: (y >= p.b - 2.0 * p.eps) & (y < p.b)
        points = loan_model.table.grid_y
        assert np.count_nonzero(ramp(points)) > 1000
        reward = lambda y: np.where(ramp(y), p.c + excess, loan_model.spec.reward(y))
        ModelSpec(points=points, reward=loan_model.spec.reward, reward_bound=p.c).validate()
        with pytest.raises(ModelError, match="exceeds"):
            ModelSpec(points=points, reward=reward, reward_bound=p.c).validate()
