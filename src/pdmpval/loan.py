"""The smoothed Cramer-Lundberg-with-loan model: parameters, tabulated flow,
reward integral and the PDMP spec the valuation operators check and bound.

Surplus grows at premium rate c, borrows at rate rho below zero, is ruined
below -c/rho, and pays dividends at rate c near the barrier b.  Drift and
dividend rate are the C2-smoothed versions with width eps; claims are
exponential with rate alpha and arrive with Poisson intensity lam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InputError
from .flow import FlowTable, build_flow_table
from .model import ComponentSpec, Interval, ModelSpec
from .smoothing import _check_loan_eps, smoothed_drift_loan, smoothed_reward_loan

__all__ = ["LoanParams", "SmoothedLoanModel"]


@dataclass(frozen=True)
class LoanParams:
    """Parameter block of the numerical experiment; the defaults are the
    published parameter set, which every other default reads from here.

    Rates and levels must be finite and positive, the ruin level -c/rho and
    the value bound c/delta must be finite, and the smoothing width must fit
    the bands (see ``smoothing._check_loan_eps``).
    """

    c: float = 5.0
    rho: float = 0.05
    b: float = 3.24289
    lam: float = 4.0
    alpha: float = 1.0
    delta: float = 0.02
    eps: float = 0.01

    def __post_init__(self):
        for name in ("c", "rho", "b", "lam", "alpha", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and positive, got {value}")
        for name, value in (("ruin level -c/rho", self.ruin_level),
                            ("value bound c/delta", self.c / self.delta)):
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value} for c={self.c}, "
                                 f"rho={self.rho}, delta={self.delta}")
        _check_loan_eps(self.c, self.rho, self.b, self.eps)

    @property
    def ruin_level(self) -> float:
        return -self.c / self.rho


@dataclass
class SmoothedLoanModel:
    """Built model: parameters plus the master flow table and PDMP spec.

    Component indices follow the three-component description of the smoothed
    model: 1 is the live interval (-c/rho, inf), 2 the ruin half-line below
    -c/rho, 3 the absorbing point at -c/rho (2 and 3 form the cemetery).
    """

    params: LoanParams
    table: FlowTable
    spec: ModelSpec = field(init=False)

    def __post_init__(self):
        # The spec's callables hold the parameters, not the model: a model
        # that is dropped is freed at once, with its table, instead of at the
        # next cyclic garbage collection.
        p = self.params
        reward = partial(_reward, p)
        live = ComponentSpec(domain=Interval(p.ruin_level, math.inf), intensity=p.lam)
        below = ComponentSpec(domain=Interval(-math.inf, p.ruin_level), is_cemetery=True)
        edge = ComponentSpec(domain=Interval(p.ruin_level, p.ruin_level), is_cemetery=True)
        self.spec = ModelSpec(
            components={1: live, 2: below, 3: edge},
            reward=lambda k, y: reward(y) if k == 1 else _zeros(y),
            terminal=lambda k, y: _zeros(y),
            discount=p.delta,
            reward_bound=p.c,
            terminal_bound=0.0,
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, **params) -> "SmoothedLoanModel":
        """Build the model of ``LoanParams(**params)``: the published set by default."""
        p = LoanParams(**params)
        c, rho, b, eps = p.c, p.rho, p.b, p.eps
        if p.lam + p.delta <= 3.0:
            # integrability condition for the substituted integrand to stay
            # bounded at the origin corner; a warning, not an error
            warnings.warn(
                f"lam + delta = {p.lam + p.delta} <= 3: the substituted integrand "
                "is unbounded near v = 0",
                stacklevel=2,
            )
        drift = lambda y: smoothed_drift_loan(y, c, rho, b, eps)
        reward = lambda y: smoothed_reward_loan(y, c, b, eps)
        table = build_flow_table(
            drift,
            (p.ruin_level, b),
            p.delta,
            reward,
            feature_scale=eps,
            refine_y=(-eps, 0.0, eps, b - 2.0 * eps, b - eps, b),
        )
        model = cls(params=p, table=table)
        model.spec.validate()  # sample-check declared bounds and support rules
        return model

    # -- local characteristics ------------------------------------------------

    def reward(self, y):
        return _reward(self.params, y)


def _reward(p: LoanParams, y):
    return smoothed_reward_loan(y, p.c, p.b, p.eps)


def _zeros(y):
    """Zero at every position of y: an array of y's shape, or 0.0 for a scalar.

    The shape lets ``ModelSpec.validate`` check a whole sample grid in one call.
    """
    return np.zeros(np.shape(y)) if np.ndim(y) else 0.0
