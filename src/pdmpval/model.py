"""PDMP state spaces, local characteristics, cost-functional data and the
analytic bounds that frame every valuation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InputError, ModelError
from .smoothing import JumpKernelSpec

__all__ = [
    "Interval",
    "State",
    "ComponentSpec",
    "ModelSpec",
    "t_star",
    "survival",
    "value_upper_bound",
    "bias_bound",
]


@dataclass(frozen=True)
class Interval:
    """Domain interval of one component, with endpoint-openness flags."""

    lower: float
    upper: float
    closed_lower: bool = False
    closed_upper: bool = False

    def contains(self, y: float) -> bool:
        lo_ok = y >= self.lower if self.closed_lower else y > self.lower
        hi_ok = y <= self.upper if self.closed_upper else y < self.upper
        return bool(lo_ok and hi_ok)

    @property
    def span(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class State:
    """A PDMP state (k, y): component index plus position vector.

    Positions are stored as 1-d arrays; every shipped model is scalar
    (d(k) = 1) and ``scalar`` gives the position as a float.
    """

    k: int
    y: np.ndarray

    def __init__(self, k: int, y):
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(y, dtype=float)))

    @property
    def scalar(self) -> float:
        if self.y.size != 1:
            raise InputError(f"state position has dimension {self.y.size}, expected 1")
        return float(self.y[0])


@dataclass
class ComponentSpec:
    """Local characteristics of one component: domain, drift, intensity.

    ``intensity`` may be a constant (the common case, enabling closed-form
    survival) or a callable of the position.  ``intensity_bound`` is the
    declared C_lambda >= sup lambda_k.  ``flow`` is the (y, t) -> y
    evaluator wired in by model builders that tabulate the ODE flow; a
    component without one has the identity flow if its drift is None and no
    flow otherwise.
    """

    domain: Interval
    drift: Optional[Callable] = None
    intensity: Union[float, Callable] = 0.0
    intensity_bound: float = 0.0
    is_cemetery: bool = False
    flow: Optional[Callable] = None

    def __post_init__(self):
        if self.is_cemetery:
            if callable(self.intensity) or self.intensity != 0.0:
                raise ModelError("cemetery components must have zero intensity")
            if self.drift is not None:
                raise ModelError("cemetery components must have frozen flow (drift None)")
        if self.intensity_bound < 0.0:
            raise ModelError("intensity bound must be nonnegative")

    def intensity_at(self, y):
        return self.intensity(y) if callable(self.intensity) else self.intensity

    def flow_at(self, y: float, t) -> float:
        if self.flow is not None:
            return self.flow(y, t)
        if self.drift is None:
            return y
        raise ModelError("component has a drift but no flow evaluator")


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

    def component(self, k: int) -> ComponentSpec:
        try:
            return self.components[k]
        except KeyError:
            raise InputError(f"unknown component index {k}") from None

    def require_state(self, x: State) -> ComponentSpec:
        comp = self.component(x.k)
        if not comp.domain.contains(x.scalar):
            raise InputError(
                f"position {x.scalar} outside component {x.k} domain "
                f"({comp.domain.lower}, {comp.domain.upper})"
            )
        return comp

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


# --- operations ---------------------------------------------------------------


def t_star(model: ModelSpec, x: State) -> float:
    """First time the flow from x reaches the active boundary, or +inf.

    For scalar components the flow is monotone along the drift sign, so the
    hitting time of the approached endpoint is the integral of 1/|drift|
    toward it.  An equilibrium (drift zero) at or before the endpoint makes
    the boundary unreachable; a drift bounded away from zero at the endpoint
    gives a finite proper integral.
    """
    comp = model.require_state(x)
    y = x.scalar
    if comp.is_cemetery or comp.drift is None:
        return math.inf
    g0 = float(comp.drift(y))
    if g0 == 0.0:
        return math.inf
    target = comp.domain.upper if g0 > 0.0 else comp.domain.lower
    if not math.isfinite(target):
        return math.inf
    sign = 1.0 if g0 > 0.0 else -1.0
    # sample strictly inside the component: the boundary point itself may
    # already carry the next component's dynamics
    zs = np.linspace(y, target, 1002)[:-1]
    gz = np.asarray([float(comp.drift(z)) for z in zs])
    scale = float(np.max(np.abs(gz)))
    if np.any(sign * gz <= 0.0) or abs(gz[-1]) < 1e-9 * max(scale, 1.0):
        return math.inf  # equilibrium blocks the way or the approach is asymptotic
    from scipy.integrate import quad

    val, _ = quad(lambda z: 1.0 / abs(float(comp.drift(z))), min(y, target), max(y, target),
                  limit=200)
    return float(val)


def survival(model: ModelSpec, x: State, t: float) -> float:
    """P(no jump in [0, t] | start at x): exp of minus the integrated intensity.

    Constant intensity gives the closed form exp(-lambda t); state-dependent
    intensity is integrated along the flow by composite Simpson with panel
    doubling to relative tolerance 1e-8.
    """
    if t < 0.0:
        raise InputError(f"time must be nonnegative, got {t}")
    comp = model.require_state(x)
    if t == 0.0:
        return 1.0
    if not callable(comp.intensity):
        lam = float(comp.intensity)
        if lam == 0.0:
            return 1.0
        return math.exp(-lam * t) if math.isfinite(t) else 0.0
    if not math.isfinite(t):
        raise InputError("infinite horizon needs a constant intensity")
    y = x.scalar

    def total(n: int) -> float:
        s = np.linspace(0.0, t, n + 1)
        lam = np.asarray([comp.intensity_at(comp.flow_at(y, si)) for si in s])
        h = t / n
        return h / 3.0 * (lam[0] + lam[-1] + 4.0 * lam[1:-1:2].sum() + 2.0 * lam[2:-1:2].sum())

    prev = total(16)
    for n in (32, 64, 128, 256, 512, 1024):
        cur = total(n)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-30):
            prev = cur
            break
        prev = cur
    return math.exp(-prev)


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
