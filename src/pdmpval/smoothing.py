"""C2 smoothing primitives: quintic Heaviside, the smoothed loan-model
drift/reward, and mollified mixture jump kernels.

Everything here is pure and vectorised over numpy arrays.  The loan drift is
a closed form of five pieces, not a blend of branches, so no generic smooth
join of piecewise functions is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubature import gauss_legendre
from .errors import InputError, ModelError

__all__ = [
    "heaviside",
    "unsmoothed_drift_loan",
    "smoothed_drift_loan",
    "loan_drift",
    "smoothed_reward_loan",
    "KernelBranch",
    "JumpKernelSpec",
    "smoothed_branch_weight",
    "smoothed_kernel_integrate",
]


def heaviside(y):
    """Quintic C2 step: 0 below -1, 1 above 1, odd quintic ramp in between.

    All polynomial coefficients are dyadic, so h(-1) = 0, h(0) = 0.5 and
    h(1) = 1 hold exactly in floating point, and h(y) + h(-y) = 1 up to one
    ulp.  Nondecreasing everywhere.
    """
    t = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    out = 0.5 + t * (15.0 / 16.0 + t * t * (-5.0 / 8.0 + t * t * (3.0 / 16.0)))
    return out if out.ndim else float(out)


def unsmoothed_drift_loan(y, c, rho, b):
    """Piecewise drift of the loan model with a hard barrier at b.

    c above 0, c + rho*y on the loan band (-c/rho, 0], zero at and below the
    ruin level -c/rho and at and above the barrier.
    """
    y = np.asarray(y, dtype=float)
    out = np.select(
        [y <= -c / rho, y <= 0.0, y < b],
        [0.0, c + rho * y, c],
        default=0.0,
    )
    return out if out.ndim else float(out)


def smoothed_drift_loan(y, c, rho, b, eps):
    """C2 drift of the smoothed loan model (five-piece closed form) at y:
    ``loan_drift(c, rho, b, eps)(y)``."""
    return loan_drift(c, rho, b, eps)(y)


def loan_drift(c, rho, b, eps):
    """The drift y -> g(y) of the smoothed loan model, its width checked once.

    Equals the unsmoothed drift outside the two width-eps bands around 0 and
    b; blends with a quartic around 0 and tapers to zero with a quintic just
    below the barrier.  Nonnegative everywhere, zero at and above b.

    A float y (the flow builder's per-step calls) takes an if-chain and
    returns a float; anything else goes through np.select.  Both evaluate the
    same piece formulas on the same piece constants, made once here, so they
    agree bit for bit.  The returned function holds the parameters and those
    constants, no model.  InputError here, not at the first call, if eps
    does not fit the bands.
    """
    _check_loan_eps(c, rho, b, eps)
    ruin, lo, hi, c_float = -c / rho, -eps, b - eps, float(c)
    three_eps, cube_16 = 3.0 * eps, 16.0 * eps ** 3
    fifteen_eps, ten_eps_sq, fifth = 15.0 * eps, 10.0 * eps * eps, eps ** 5

    # The two polynomial pieces.  Cubes are explicit products: numpy's array
    # power and libm pow differ in the last ulp on some points, which would
    # split the two paths.
    def blend(y):
        d = y - eps
        return c + rho * (y + three_eps) * (d * d * d) / cube_16

    def taper(y):
        w = b - y
        return c * (w * w * w) * (fifteen_eps * (y - b) + 6.0 * w * w + ten_eps_sq) / fifth

    def drift(y):
        if isinstance(y, float):
            y = float(y)  # np.float64 is a float subclass with slow arithmetic
            if y <= ruin:
                return 0.0
            if y < lo:
                return c + rho * y
            if y <= eps:
                return blend(y)
            if y <= hi:
                return c_float
            if y < b:
                return taper(y)
            return 0.0  # at or above the barrier, and NaN as in np.select
        y = np.asarray(y, dtype=float)
        out = np.select(
            [y <= ruin, y < lo, y <= eps, y <= hi, y < b],
            [0.0, c + rho * y, blend(y), c, taper(y)],
            default=0.0,
        )
        return out if out.ndim else float(out)

    return drift


def smoothed_reward_loan(y, c, b, eps):
    """Dividend rate ramp: 0 below b - 2 eps, c at and above b, C2 monotone."""
    _check_width(eps)
    y = np.asarray(y, dtype=float)
    out = c * heaviside((y - b + eps) / eps)
    return out if np.ndim(out) else float(out)


def _check_width(eps, unsmoothed_ok=False):
    """InputError unless the smoothing width is finite and positive, or 0
    where ``unsmoothed_ok``."""
    if not (math.isfinite(eps) and (eps > 0.0 or unsmoothed_ok and eps == 0.0)):
        least = ">= 0" if unsmoothed_ok else "positive"
        raise InputError(f"smoothing width must be finite and {least}, got eps={eps}")


def _check_loan_eps(c, rho, b, eps):
    # eps < b/4 keeps the two bands disjoint, eps < c/(2 rho) keeps the
    # blended drift positive on the band around 0, and b - eps < b keeps a
    # float inside the taper band below the barrier.
    limit = min(b / 4.0, c / (2.0 * rho))
    if not 0.0 < eps < limit:
        raise InputError(
            f"smoothing width eps={eps} outside (0, {limit}) for c={c}, rho={rho}, b={b}"
        )
    if not b - eps < b:
        raise InputError(f"smoothing width eps={eps} is below the float resolution at b={b}")


# --- mixture jump kernels -------------------------------------------------

@dataclass(frozen=True)
class KernelBranch:
    """One branch of a mixture jump kernel.

    ``prob`` is the branch mass p_j, a number in [0, 1] (checked, up to a
    1e-12 rounding that is clipped, when the branch is made); ``transform``
    maps (u, x) with u in [0,1] to the landing position via inverse-transform
    sampling.
    """

    prob: float
    transform: Callable

    def __post_init__(self):
        p = float(self.prob)
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise ModelError(f"branch probability {p} outside [0, 1]")
        object.__setattr__(self, "prob", min(max(p, 0.0), 1.0))


@dataclass(frozen=True)
class JumpKernelSpec:
    """Mixture kernel with inverse-transform branch maps and a smoothing width.

    Branch masses may sum to less than 1; the deficit is the mass of jumps
    straight to the cemetery (which contribute zero reward and need no map).
    """

    branches: tuple
    eps: float = 0.0

    def __post_init__(self):
        _check_width(self.eps, unsmoothed_ok=True)
        object.__setattr__(self, "branches", tuple(self.branches))

    def cumulative(self) -> np.ndarray:
        """Cut points (0, q_1, ..., q_n) of the branch masses."""
        q = np.concatenate([[0.0], np.cumsum([br.prob for br in self.branches])])
        if q[-1] > 1.0 + 1e-9:
            raise ModelError(f"branch masses sum to {q[-1]} > 1")
        return np.minimum(q, 1.0)


def smoothed_branch_weight(u0, j, q, eps):
    """C2 mollification of the indicator 1_[q_{j-1}, q_j)(u0).

    The product of the two ramps is 1 deep inside the branch, 1/2 exactly at
    an interior cut point, and the weights over all branches sum to 1 as long
    as every branch is wider than 2*eps.
    """
    _check_width(eps)
    q = np.asarray(q, dtype=float)
    if np.any(np.diff(q) < 0.0):
        raise InputError("cumulative branch masses must be nondecreasing")
    if not 1 <= j <= len(q) - 1:
        raise InputError(f"branch index {j} outside 1..{len(q) - 1}")
    return heaviside((u0 - q[j - 1]) / eps) * heaviside((q[j] - u0) / eps)


def _weight_mass(a: float, b: float, eps: float) -> float:
    """Integral over [0,1] of the mollified indicator of [a, b), exact.

    Between the ramp ends a +- eps and b +- eps, clipped to [0, 1], each
    ramp is constant or a quintic, so the weight is a polynomial of degree
    <= 10 there, and a 6-point Gauss-Legendre rule on each piece integrates
    it exactly, up to rounding.
    """
    if eps == 0.0:
        return b - a
    nodes, weights = gauss_legendre(6)
    ends = np.unique(np.clip([0.0, a - eps, a + eps, b - eps, b + eps, 1.0], 0.0, 1.0))
    width = np.diff(ends)[:, None]
    u = ends[:-1, None] + width * nodes
    return float(np.sum(width * weights * smoothed_branch_weight(u, 1, (a, b), eps)))


def smoothed_kernel_integrate(f, y, spec: JumpKernelSpec):
    """Integrate f against the mollified kernel from source position y.

    The mollified weight does not depend on the inner coordinate and the
    branch integrand does not depend on u0, so the double integral factors
    into (weight mass) x (branch integral).  The weight masses are exact
    (:func:`_weight_mass`); the branch integrals are adaptive quadratures.

    As eps -> 0 the result converges to the unsmoothed integral with error
    at most (5/8) * eps * n * sup|f| for n branches.
    """
    q = spec.cumulative()
    total = 0.0
    for j, br in enumerate(spec.branches, start=1):
        mass = _weight_mass(q[j - 1], q[j], spec.eps)
        if mass == 0.0:
            continue
        total += mass * _branch_integral(f, y, br)
    return total


def _branch_integral(f, y, br: KernelBranch):
    from scipy.integrate import quad

    val, _ = quad(lambda u: f(br.transform(u, y)), 0.0, 1.0, limit=200, epsrel=1e-11)
    return val
