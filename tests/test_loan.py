import dataclasses
import gc
import math
import warnings
import weakref

import pytest

from pdmpval.errors import InputError, ModelError
from pdmpval.loan import LoanParams, SmoothedLoanModel

C, RHO, B, LAM, ALPHA, DELTA, EPS = 5.0, 0.05, 3.24289, 4.0, 1.0, 0.02, 0.01


class TestLoanParams:
    def test_defaults_match_experiment(self, loan_params):
        assert (loan_params.c, loan_params.rho, loan_params.b) == (C, RHO, B)
        assert (loan_params.lam, loan_params.alpha, loan_params.delta) == (LAM, ALPHA, DELTA)
        assert loan_params.eps == EPS
        assert loan_params.ruin_level == -100.0

    def test_positivity_enforced(self):
        with pytest.raises(InputError):
            LoanParams(c=-1.0)
        with pytest.raises(InputError):
            LoanParams(delta=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["c", "rho", "b", "lam", "alpha", "delta"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            LoanParams(**{name: value})

    @pytest.mark.parametrize("params", [dict(c=1e307), dict(rho=1e-310), dict(delta=1e-310)],
                             ids=["c=1e307", "rho=1e-310", "delta=1e-310"])
    def test_infinite_ruin_level_or_value_bound_rejected(self, params):
        with pytest.raises(InputError, match="must be finite"):
            LoanParams(**params)

    @pytest.mark.parametrize("eps", [0.0, math.nan, B / 4.0, 1.0, 1e-16, 1e-40, 1e-60, 5e-324])
    def test_smoothing_width_checked(self, eps):
        with pytest.raises(InputError, match="smoothing width"):
            LoanParams(eps=eps)


class TestSmoothedLoanModel:
    def test_value_bound(self, loan_model):
        assert loan_model.params.value_bound == 250.0

    def test_spec_validates(self, loan_model):
        loan_model.spec.validate()
        assert loan_model.spec.domain.lower == loan_model.params.ruin_level

    def test_validate_evaluates_whole_sample_grids(self, loan_model):
        spec = loan_model.spec
        calls = []
        counted = dataclasses.replace(spec, reward=lambda y: calls.append(y) or spec.reward(y))
        counted.validate()
        assert len(calls) == 1  # no per-sample fallback

    def test_dropped_model_is_freed_without_a_collection(self):
        # the spec's callables must not refer back to the model: a study that
        # builds one model per width would otherwise hold every table until
        # the next cyclic garbage collection
        gc.disable()
        try:
            model = SmoothedLoanModel.build(eps=0.08)
            refs = [weakref.ref(model), weakref.ref(model.table), weakref.ref(model.spec)]
            del model
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_start_rule(self, loan_model):
        # the integrand runs on (ruin, b]: the ruin level is refused, b is a
        # start of its own, and a start above b moves to b and pays the excess
        with pytest.raises(InputError, match="ruin level"):
            loan_model.start(-C / RHO)
        assert loan_model.start(-C / RHO + 1e-9) == (-C / RHO + 1e-9, 0.0)
        assert loan_model.start(B) == (B, 0.0)
        assert loan_model.start(B + 1.5) == (B, (B + 1.5) - B)

    @pytest.mark.parametrize("eps", [2e-4, 1e-4, 1e-12])
    def test_width_below_tail_band_rejected(self, eps):
        # at 1e-4 the rate frozen at the tail anchor would be 0.5 c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="frozen tail band"):
                SmoothedLoanModel.build(eps=eps)

    def test_narrowest_resolved_width_builds(self):
        # the frozen rate is 0.9913 c at 5e-4, within 1% of the rate at b
        table = SmoothedLoanModel.build(eps=5e-4).table
        assert 0.99 * C < table.l_tail < C

    def test_boundedness_warning_below_threshold(self):
        with pytest.warns(UserWarning, match="unbounded near"):
            SmoothedLoanModel.build(lam=1.0, delta=0.5, eps=0.01)
