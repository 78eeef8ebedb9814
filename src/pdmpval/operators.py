"""Fixed-point valuation core for the smoothed loan model.

The expected discounted dividend value truncated at n jumps is the integral
over [0,1]^(2n) of a single integrand that accumulates all n terms of the
iterated-integral sum in one forward pass.  Coordinates are laid out
(v_1, z_1, ..., v_n, z_n): v_j = exp(-t_j) carries inter-jump time j (and the
final reward horizon of term j), z_j the relative jump size; z_n is never
read.  At stage j the pass

    adds   W * lam * v_j^(lam-1) * L(-ln v_j, chi_{j-1}),
    moves  chi_j- = flow(chi_{j-1}, -ln v_j),
    draws  y_j = z_j * (chi_j- + c/rho),
    scales W *= lam * v_j^(lam+delta-1) * f_Y(y_j) * (chi_j- + c/rho),
    jumps  chi_j = chi_j- - y_j.

W is kept in log space: it underflows harmlessly for deep stages and any
overflow (possible only on an astronomically unlikely corner of the cube)
is detected rather than silently wrapped.  Jumps below the ruin level carry
zero mass by construction (the substitution samples sizes on
(0, chi + c/rho)), so the integrand never leaves the live component.

Each stage is one flow-table call.  Every node starts at x0, so the first
stage passes it as a scalar and its master time is solved once; the last
stage reads only the reward L, since chi_n is never used.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .cubature import (
    MC_CHUNK_NODES,
    CubatureSpec,
    RuleKind,
    cp_shift_vector,
    cranley_patterson_shift,
    gauss_product_chunk,
    halton_column,
    halton_permutations,
    mc_chunk,
    sobol_column,
)
from .errors import InputError, ModelError, require_int
from .loan import SmoothedLoanModel
from .model import bias_bound, value_upper_bound

__all__ = ["Estimate", "IteratedPoint", "iterated_integrand", "estimate_value", "valuation"]

_CHUNK = MC_CHUNK_NODES  # nodes per accumulation chunk (fixed: determinism contract)
_STACK = 4 * _CHUNK  # most nodes per integrand batch of stacked replicates
_LOG_TINY = 1e-300


@dataclass(frozen=True)
class Estimate:
    """A valuation with its randomized error bar and analytic truncation bias."""

    value: float
    std_error: Optional[float]
    bias_bound: float
    M: int
    d: int
    replicates: int
    wall_ms: float


@dataclass(frozen=True)
class IteratedPoint:
    """One point of the 2n-dimensional substituted integration domain."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size == 0 or c.size % 2:
            raise InputError("coordinates must form a nonempty even-length vector")
        if not np.all((c >= 0.0) & (c <= 1.0)):  # NaN fails both comparisons
            raise InputError("coordinates must be finite and lie in [0, 1]")
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.size // 2


def _check_x0(model: SmoothedLoanModel, x0: float) -> None:
    p = model.params
    if not p.ruin_level < x0 <= p.b:
        raise InputError(
            f"start value {x0} outside ({p.ruin_level}, {p.b}]; "
            "use valuation() for the lump-sum convention above the barrier"
        )


def _integrand_batch(model: SmoothedLoanModel, x0: float, n: int, cols: Callable) -> np.ndarray:
    """Evaluate the n-term accumulated integrand at a batch of points.

    ``cols(dim)`` returns the batch's coordinate array for dimension ``dim``
    in the (v_1, z_1, ...) layout; dimension 2n-1 (z_n) is never requested.
    """
    p = model.params
    table = model.table
    lam, delta, alpha, ruin = p.lam, p.delta, p.alpha, p.ruin_level
    log_lam = math.log(lam)
    log_alpha = math.log(alpha)

    logv = np.clip(cols(0), _LOG_TINY, 1.0)
    m = logv.shape[0]
    chi = float(x0)  # every node starts here: the first stage solves its time once
    logw = np.zeros(m)
    total = np.zeros(m)
    for j in range(n):
        if j:
            logv = np.clip(cols(2 * j), _LOG_TINY, 1.0)
        np.log(logv, out=logv)
        if j == n - 1:  # nothing reads the last stage's position
            reward = table.reward_integral(chi, -logv)
        else:
            reward, chi_pre = table.advance(chi, -logv)
        total += np.exp(logw + log_lam + (lam - 1.0) * logv) * reward
        if j < n - 1:
            span = chi_pre - ruin
            jump = cols(2 * j + 1) * span
            logw += (log_lam + (lam + delta - 1.0) * logv
                     + log_alpha - alpha * jump + np.log(span))
            chi = chi_pre - jump
            # free this stage's arrays before the next stage's lookups, the
            # point where a stacked batch holds the most temporaries
            del reward, chi_pre, logv, span, jump
    if not np.all(np.isfinite(total)):
        raise ModelError("iterated integrand overflowed at a corner node")
    return total


def iterated_integrand(point: IteratedPoint, x0: float, model: SmoothedLoanModel) -> float:
    """The accumulated integrand at a single point (sum of all n term integrands)."""
    _check_x0(model, x0)
    coords = point.coords

    def cols(dim: int) -> np.ndarray:
        return coords[dim: dim + 1]

    return float(_integrand_batch(model, x0, point.n, cols)[0])


# --- node streams -----------------------------------------------------------


def _replicate_means(model: SmoothedLoanModel, x0: float, n: int, rule: CubatureSpec,
                     reps: int, workers: int) -> list:
    """Mean of the integrand over each of the first ``reps`` replicates' node sets.

    The Gauss product rule runs over the 2n-1 live dimensions (z_n is never
    read), and its mean is the weighted sum.  Nodes are processed in
    fixed-size chunks, chunk by chunk.  The randomized rules evaluate a
    chunk's replicates as stacks: one integrand batch over the replicates'
    columns laid end to end, at most ``_STACK`` nodes, so the per-call cost of
    a stage is paid once per stack instead of once per replicate.  A Sobol'/
    Halton stack holds the Cranley-Patterson shifts of the chunk's unshifted
    columns, each generated once on first use; an MC stack holds the
    replicates' Philox blocks.  The integrand is elementwise, and each
    replicate's chunk sum reduces its own contiguous slice, so every sum is
    the one-replicate batch's bit for bit.  Each chunk accumulates in index
    order and each replicate's chunk sums combine in index order, so the
    result is bit identical for any worker count.
    """
    d = rule.d
    gauss = rule.kind is RuleKind.GAUSS_PRODUCT
    size = rule.M ** (d - 1) if gauss else rule.M
    shifts = perms = None
    if rule.kind in (RuleKind.SOBOL, RuleKind.SCRAMBLED_HALTON):
        shifts = np.stack([cp_shift_vector(d, rule.seed, rep) for rep in range(reps)])
    if rule.kind is RuleKind.SCRAMBLED_HALTON:
        perms = halton_permutations(d, rule.seed)

    def chunk_sums(ci: int) -> list:
        i0 = ci * _CHUNK
        i1 = min(i0 + _CHUNK, size)
        rows = i1 - i0
        if gauss:
            block, weights = gauss_product_chunk(rule.M, d - 1, i0, i1)
            vals = _integrand_batch(model, x0, n, lambda dim: block[dim])
            return [float(np.add.reduce(weights * vals))]
        base = {}

        def column(dim: int) -> np.ndarray:
            if dim not in base:
                base[dim] = (sobol_column(dim + 1, i0 + 1, i1 + 1) if perms is None
                             else halton_column(dim + 1, i0 + 1, i1 + 1, perms))
            return base[dim]

        per_stack = _STACK // rows
        sums = []
        for r0 in range(0, reps, per_stack):
            stack = range(r0, min(r0 + per_stack, reps))
            if rule.kind is RuleKind.MC:
                blocks = [mc_chunk(ci, rows, d, rule.seed, rep) for rep in stack]

                def cols(dim: int) -> np.ndarray:
                    return np.concatenate([block[:, dim] for block in blocks])
            else:
                rep_shifts = shifts[stack.start:stack.stop]

                def cols(dim: int) -> np.ndarray:
                    shift = rep_shifts[:, dim, None]  # one row per replicate, laid end to end
                    return cranley_patterson_shift(column(dim), shift=shift).ravel()

            vals = _integrand_batch(model, x0, n, cols)
            sums.extend(float(np.add.reduce(vals[i:i + rows]))
                        for i in range(0, vals.size, rows))
        return sums

    n_chunks = (size + _CHUNK - 1) // _CHUNK
    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk_sums, range(n_chunks)))
    else:
        chunks = [chunk_sums(ci) for ci in range(n_chunks)]
    means = []
    for rep in range(reps):
        total = 0.0
        for sums in chunks:  # ordered combine
            total += sums[rep]
        means.append(total if gauss else total / rule.M)
    return means


# --- public estimators --------------------------------------------------------


def estimate_value(x0: float, n: int, rule: CubatureSpec, model: SmoothedLoanModel,
                   workers: int = 1) -> Estimate:
    """Average the n-jump truncated-sum integrand over the rule's node set.

    Randomized rules run ``rule.replicates`` repetitions (pseudorandom rules
    reseed, low-discrepancy rules are Cranley-Patterson shifted); the value
    is the mean of replicate means and the error bar the standard deviation
    of replicate means over sqrt(R).  The Gauss product rule is deterministic:
    it runs one replicate over the 2n-1 live dimensions (z_n is never read)
    within a budget of 1e7 nodes and carries no error bar.
    """
    require_int("jump count n", n, 1)
    if rule.d != 2 * n:
        raise InputError(f"rule dimension {rule.d} does not match 2n = {2 * n}")
    _check_x0(model, x0)
    start = time.perf_counter()
    if rule.kind is RuleKind.GAUSS_PRODUCT:
        if rule.M ** (2 * n - 1) > 10 ** 7:
            raise InputError(
                f"Gauss product budget exceeded: {rule.M}^{2 * n - 1} > 1e7 nodes")
        reps = 1
    else:
        reps = rule.replicates
    means = _replicate_means(model, x0, n, rule, reps, workers)
    value = float(np.mean(means))
    std_error = float(np.std(means, ddof=1) / math.sqrt(reps)) if reps >= 2 else None
    wall_ms = (time.perf_counter() - start) * 1e3
    spec = model.spec
    bias = bias_bound(n, spec.intensity_bound, spec.discount, value_upper_bound(spec))
    return Estimate(value=value, std_error=std_error, bias_bound=bias,
                    M=rule.M, d=rule.d, replicates=reps, wall_ms=wall_ms)


def valuation(x0: float, n: int, rule: CubatureSpec, model: SmoothedLoanModel,
              workers: int = 1) -> Estimate:
    """Valuation with the lump-sum convention: above the barrier the excess is
    paid out immediately and the remainder is the value at the barrier."""
    if not math.isfinite(x0):
        raise InputError(f"start value must be finite, got {x0}")
    if x0 > model.params.b:
        base = estimate_value(model.params.b, n, rule, model, workers=workers)
        return replace(base, value=base.value + (x0 - model.params.b))
    return estimate_value(x0, n, rule, model, workers=workers)
