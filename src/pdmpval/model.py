"""What the valuation reads of a PDMP: component domains, constant jump
intensities, cemetery flags and cost-functional data, sample-checked against
their declared bounds, and the analytic bounds that frame every valuation.

The flow and the jump law are not described here: the engine reads the flow
from the model's flow table and samples the claim law exactly in the
integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, ModelError

__all__ = ["Interval", "ComponentSpec", "ModelSpec", "value_upper_bound", "bias_bound"]

# points of each component's domain at which ``ModelSpec.validate`` samples
_VALIDATE_SAMPLES = 10_000


@dataclass(frozen=True)
class Interval:
    """Domain interval of one component; sampled inside its open ends."""

    lower: float
    upper: float


@dataclass
class ComponentSpec:
    """One component: its domain and its constant jump intensity.

    The intensity must be finite and nonnegative; a cemetery component has
    zero intensity.
    """

    domain: Interval
    intensity: float = 0.0
    is_cemetery: bool = False

    def __post_init__(self):
        lam = self.intensity
        if not (math.isfinite(lam) and lam >= 0.0):  # NaN fails both tests
            raise ModelError(f"intensity must be finite and nonnegative, got {lam}")
        if self.is_cemetery and lam != 0.0:
            raise ModelError("cemetery components must have zero intensity")


@dataclass
class ModelSpec:
    """A PDMP's components plus cost-functional data.

    ``reward`` and ``terminal`` take (k, y); the declared sup-norm bounds are
    validated by sampling (the boundedness the theory assumes is not
    otherwise checkable).  ``intensity_bound`` is the C_lambda of the bias
    bound: the largest component intensity.
    """

    components: dict
    reward: Callable
    terminal: Callable
    discount: float
    reward_bound: float
    terminal_bound: float

    def __post_init__(self):
        _require_discount(self.discount)
        for name in ("reward_bound", "terminal_bound"):
            bound = getattr(self, name)
            if not (math.isfinite(bound) and bound >= 0.0):
                raise InputError(f"{name} must be finite and nonnegative, got {bound}")

    @property
    def intensity_bound(self) -> float:
        return max((c.intensity for c in self.components.values()), default=0.0)

    def validate(self) -> None:
        """Sample-check the declared bounds and the cemetery support rules."""
        for k, comp in self.components.items():
            ys = _domain_grid(comp.domain, _VALIDATE_SAMPLES)
            rew = _eval_sampled(lambda y: self.reward(k, y), ys)
            ter = _eval_sampled(lambda y: self.terminal(k, y), ys)
            if np.any(np.abs(rew) > self.reward_bound + 1e-12):
                raise ModelError(f"component {k}: reward exceeds declared bound")
            if np.any(np.abs(ter) > self.terminal_bound + 1e-12):
                raise ModelError(f"component {k}: terminal cost exceeds declared bound")
            if comp.is_cemetery and np.any(rew != 0.0):
                raise ModelError(f"component {k}: running reward must vanish on the cemetery")
            if not comp.is_cemetery and np.any(ter != 0.0):
                raise ModelError(f"component {k}: terminal cost supported off the cemetery")


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
    if hi == lo:
        return np.array([lo])
    pad = 1e-9 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


def value_upper_bound(model: ModelSpec) -> float:
    """C_V = sup|reward|/discount + sup|terminal|, the global value bound."""
    _require_discount(model.discount)
    return model.reward_bound / model.discount + model.terminal_bound


def bias_bound(n: int, c_lambda: float, delta: float, c_v: float) -> float:
    """Truncation bias of the n-jump partial sum: C_V (C_lambda/(C_lambda+delta))^n."""
    if not (n >= 0 and math.isfinite(n) and int(n) == n):  # NaN fails the first test
        raise InputError(f"jump count must be a nonnegative integer, got {n}")
    if not (math.isfinite(c_lambda) and c_lambda > 0.0):
        raise InputError(f"intensity bound must be finite and positive, got {c_lambda}")
    _require_discount(delta)
    if not (math.isfinite(c_v) and c_v >= 0.0):
        raise InputError(f"value bound must be finite and nonnegative, got {c_v}")
    return c_v * (c_lambda / (c_lambda + delta)) ** int(n)


def _require_discount(delta: float) -> None:
    """InputError unless the discount rate is finite and positive (NaN is not)."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise InputError(f"discount rate must be finite and positive, got {delta}")
