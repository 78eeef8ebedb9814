"""The smoothed Cramer-Lundberg-with-loan model: parameters, tabulated flow,
the reward spec ``build`` checks, and the stage law the valuation
integrand reads.

Surplus grows at premium rate c, borrows at rate rho below zero, is ruined
below -c/rho, and pays dividends at rate c near the barrier b.  Drift and
dividend rate are the C2-smoothed versions with width eps; claims are
exponential with rate alpha and arrive with Poisson intensity lam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .flow import FlowTable, build_flow_table
from .model import ModelSpec, bias_bound
from .smoothing import _check_loan_eps, smoothed_drift_loan, smoothed_reward_loan

__all__ = ["LoanParams", "SmoothedLoanModel"]

_LOG_SAFE = 700.0  # a weight exponent below this cannot overflow exp()


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
                            ("value bound c/delta", self.value_bound)):
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value} for c={self.c}, "
                                 f"rho={self.rho}, delta={self.delta}")
        _check_loan_eps(self.c, self.rho, self.b, self.eps)

    @property
    def ruin_level(self) -> float:
        return -self.c / self.rho

    @property
    def value_bound(self) -> float:
        """C_V = c/delta: the largest dividend rate over the discount rate,
        a bound on the value of the smoothed and the unsmoothed model."""
        return self.c / self.delta

    def bias_bound(self, n: int) -> float:
        """Truncation bias of the n-jump partial sum, C_V (lam/(lam+delta))^n:
        the intensity is the constant lam."""
        return bias_bound(n, self.lam, self.delta, self.value_bound)


@dataclass
class SmoothedLoanModel:
    """Built model: parameters, the master flow table, the reward spec that
    ``build`` checks on the table's states, and the paper-form stage law.

    The law is what ``operators`` reads of the model besides its table: the
    start rule (``start``), the weight of a stage's reward term
    (``term_weight``), the claim jump with its weight step (``claim_jump``),
    the weight guard of the drop rule (``weight_bounded``) and the
    truncation bias (``bias_bound``).  The weight W is carried as its log.
    """

    params: LoanParams
    table: FlowTable
    spec: ModelSpec

    def __post_init__(self):
        p = self.params
        self._log_lam = math.log(p.lam)
        self._log_alpha = math.log(p.alpha)
        # the weight guard's bounds: a stage raises logw by at most `_grow`
        # plus `_per_time` times its time, and a term's exponent exceeds logw
        # by at most log lam plus `_per_time` times its time
        self._grow = max(0.0, self._log_lam + self._log_alpha
                         + math.log(self.table.y_end - p.ruin_level))
        self._per_time = max(0.0, 1.0 - p.lam - p.delta) + max(0.0, 1.0 - p.lam)

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
        # one binding of the reward for the table and the spec; it holds the
        # parameters, not the model, so a dropped model is freed at once with
        # its table instead of at the next cyclic garbage collection
        reward = partial(smoothed_reward_loan, c=c, b=b, eps=eps)
        table = build_flow_table(
            drift,
            (p.ruin_level, b),
            p.delta,
            reward,
            feature_scale=eps,
            refine_y=(-eps, 0.0, eps, b - 2.0 * eps, b - eps, b),
        )
        model = cls(params=p, table=table,
                    spec=ModelSpec(points=table.grid_y, reward=reward, reward_bound=c))
        model.spec.validate()  # check the reward against its bound on the table's states
        return model

    # -- the paper-form stage law ---------------------------------------------

    def start(self, x0: float) -> tuple:
        """The barrier strategy's start: ``(position, lump sum)``.

        The integrand runs on (ruin, b].  A start above b pays the excess
        x0 - b at once and continues from b; any other start pays 0.0.
        InputError for a start that is not finite or not above the ruin level.
        """
        if not math.isfinite(x0):
            raise InputError(f"start value must be finite, got {x0}")
        p = self.params
        if not x0 > p.ruin_level:
            raise InputError(f"start value {x0} is not above the ruin level {p.ruin_level}")
        return (p.b, x0 - p.b) if x0 > p.b else (x0, 0.0)

    def term_weight(self, logw, logv):
        """Weight of a stage's reward term, W lam v^(lam-1), from log W and log v."""
        return np.exp(logw + self._log_lam + (self.params.lam - 1.0) * logv)

    def claim_jump(self, chi_pre, z, logv):
        """A stage's claim: ``(chi, log-weight step)`` from the pre-jump
        position, the claim coordinate z and the stage's log v.

        The claim y = z (chi_pre + c/rho) is uniform on the live span, so
        chi = chi_pre - y stays above ruin, and W gains
        lam v^(lam+delta-1) f_Y(y) (chi_pre + c/rho), f_Y(y) = alpha e^(-alpha y).
        """
        p = self.params
        span = chi_pre - p.ruin_level
        jump = z * span
        step = (self._log_lam + (p.lam + p.delta - 1.0) * logv
                + self._log_alpha - p.alpha * jump + np.log(span))
        return chi_pre - jump, step

    def weight_bounded(self, logw, rem, left: int):
        """Where no weight exponent of the ``left`` stages to come can
        overflow exp(), for nodes of log-weight ``logw`` and remaining time
        ``rem``: there W * 0.0 is 0.0, not NaN, so a dropped node's total
        hides no overflow."""
        return logw + self._per_time * rem < _LOG_SAFE - self._log_lam - (left - 1) * self._grow

    def bias_bound(self, n: int) -> float:
        """Truncation bias of the n-jump partial sum (``LoanParams.bias_bound``)."""
        return self.params.bias_bound(n)
