"""PDMP component domains, local characteristics, cost-functional data and
the analytic bounds that frame every valuation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InputError, ModelError
from .smoothing import JumpKernelSpec

__all__ = ["Interval", "ComponentSpec", "ModelSpec", "value_upper_bound", "bias_bound"]


@dataclass(frozen=True)
class Interval:
    """Domain interval of one component, with endpoint-openness flags."""

    lower: float
    upper: float
    closed_lower: bool = False
    closed_upper: bool = False


@dataclass
class ComponentSpec:
    """Local characteristics of one component: domain, drift, intensity.

    ``intensity`` may be a constant (the common case) or a callable of the
    position.  ``intensity_bound`` is the declared C_lambda >= sup lambda_k,
    finite and nonnegative.  A cemetery component has zero intensity and a
    frozen flow (drift None).
    """

    domain: Interval
    drift: Optional[Callable] = None
    intensity: Union[float, Callable] = 0.0
    intensity_bound: float = 0.0
    is_cemetery: bool = False

    def __post_init__(self):
        if self.is_cemetery:
            if callable(self.intensity) or self.intensity != 0.0:
                raise ModelError("cemetery components must have zero intensity")
            if self.drift is not None:
                raise ModelError("cemetery components must have frozen flow (drift None)")
        bound = self.intensity_bound
        if not (math.isfinite(bound) and bound >= 0.0):  # NaN fails both tests
            raise ModelError(f"intensity bound must be finite and nonnegative, got {bound}")

    def intensity_at(self, y):
        return self.intensity(y) if callable(self.intensity) else self.intensity


@dataclass
class ModelSpec:
    """A PDMP plus cost-functional data.

    ``reward`` and ``terminal`` take (k, y); the declared sup-norm bounds are
    validated by sampling (the boundedness the theory assumes is not
    otherwise checkable).
    """

    components: dict
    jump_kernel: Optional[JumpKernelSpec]
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
        return max(c.intensity_bound for c in self.components.values())

    def validate(self, samples: int = 10_000) -> None:
        """Sample-check the declared bounds and the cemetery support rules."""
        for k, comp in self.components.items():
            ys = _domain_grid(comp.domain, samples)
            lam = _eval_sampled(comp.intensity_at, ys) if callable(comp.intensity) \
                else np.full(ys.shape, comp.intensity)
            if np.any(lam < 0.0):
                raise ModelError(f"component {k}: negative intensity")
            if np.any(lam > comp.intensity_bound + 1e-12):
                raise ModelError(f"component {k}: intensity exceeds declared bound")
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
    return np.linspace(lo + (0.0 if domain.closed_lower else pad),
                       hi - (0.0 if domain.closed_upper else pad), n)


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
