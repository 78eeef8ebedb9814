"""What the valuation checks of a PDMP: its live domain and its running
reward, sample-checked against the reward's declared bound, and the
truncation bound that frames every valuation.

The flow, the jump law and the value bound are not described here: the
engine reads the flow from the model's flow table, and the stage law and
the bounds from the model (``loan.SmoothedLoanModel``, ``loan.LoanParams``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, ModelError

__all__ = ["Interval", "ModelSpec", "bias_bound"]

# points of the domain at which ``ModelSpec.validate`` samples the reward
_VALIDATE_SAMPLES = 10_000


@dataclass(frozen=True)
class Interval:
    """Domain interval; sampled inside its open ends."""

    lower: float
    upper: float


@dataclass
class ModelSpec:
    """A PDMP's live domain and its running reward ``reward(y)``.

    The declared sup-norm bound of the reward is validated by sampling (the
    boundedness the theory assumes is not otherwise checkable).
    """

    domain: Interval
    reward: Callable
    reward_bound: float

    def __post_init__(self):
        bound = self.reward_bound
        if not (math.isfinite(bound) and bound >= 0.0):
            raise InputError(f"reward_bound must be finite and nonnegative, got {bound}")

    def validate(self) -> None:
        """Sample-check the reward against its declared bound."""
        ys = _domain_grid(self.domain, _VALIDATE_SAMPLES)
        if np.any(np.abs(_eval_sampled(self.reward, ys)) > self.reward_bound + 1e-12):
            raise ModelError("reward exceeds declared bound")


def _eval_sampled(func, ys: np.ndarray) -> np.ndarray:
    """Evaluate a scalar-or-vectorised callable on a sample grid."""
    try:
        out = np.asarray(func(ys), dtype=float)
        if out.shape == ys.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([float(func(y)) for y in ys])


def _domain_grid(domain: Interval, n: int) -> np.ndarray:
    lo, hi = domain.lower, domain.upper
    if not math.isfinite(lo):
        lo = hi - 1e3 if math.isfinite(hi) else -1e3
    if not math.isfinite(hi):
        hi = lo + 1e3
    pad = 1e-9 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


def bias_bound(n: int, c_lambda: float, delta: float, c_v: float) -> float:
    """Truncation bias of the n-jump partial sum: C_V (C_lambda/(C_lambda+delta))^n."""
    if not (n >= 0 and math.isfinite(n) and int(n) == n):  # NaN fails the first test
        raise InputError(f"jump count must be a nonnegative integer, got {n}")
    if not (math.isfinite(c_lambda) and c_lambda > 0.0):
        raise InputError(f"intensity bound must be finite and positive, got {c_lambda}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise InputError(f"discount rate must be finite and positive, got {delta}")
    if not (math.isfinite(c_v) and c_v >= 0.0):
        raise InputError(f"value bound must be finite and nonnegative, got {c_v}")
    return c_v * (c_lambda / (c_lambda + delta)) ** int(n)
