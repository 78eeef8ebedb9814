"""What the valuation checks of a PDMP: its running reward, checked
against the reward's declared bound on the states the valuation visits, and
the truncation bound that frames every valuation.

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

__all__ = ["ModelSpec", "bias_bound"]


@dataclass
class ModelSpec:
    """A PDMP's running reward ``reward(y)`` and the states ``points`` it is checked on.

    The declared sup-norm bound of the reward is checked at the points (the
    boundedness the theory assumes is not otherwise checkable).  The loan
    model passes its flow table's grid_y, the states at which the table
    reads the reward, which resolve the dividend ramp.
    """

    points: np.ndarray
    reward: Callable
    reward_bound: float

    def __post_init__(self):
        bound = self.reward_bound
        if not (math.isfinite(bound) and bound >= 0.0):
            raise InputError(f"reward_bound must be finite and nonnegative, got {bound}")

    def validate(self) -> None:
        """Check the reward against its declared bound at every point, in one
        vectorised call; a constant reward broadcasts, and NaN fails."""
        if not np.all(np.abs(self.reward(self.points)) <= self.reward_bound + 1e-12):
            raise ModelError("reward exceeds declared bound")


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
