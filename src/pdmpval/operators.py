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

Each stage is two flow-table calls: ``start``, the time solve T0 = T(chi)
on the master clock, and ``stage``, the reward and the position reached.
Every node starts at x0, so the first stage passes it as a scalar and its
master time is solved once; the last stage reads only the reward L, since
chi_n is never used.  Every later stage first calls ``locate``, the grid_y
interval of chi that the time solve starts from, for the drop pre-test
below, and ``start`` reuses it.

Nodes that can no longer earn are dropped.  The reward rate is zero below
the dividend band, so a flow that ends before grid_t[_kz], the start of the
table's zero-reward stretch, adds exactly +0.0.  Before the stage loop one
pass over the v columns sums each node's n inter-jump times into its
remaining time r (each stage then subtracts its own).  At stage j, with s =
n - j stages left, a node whose T0 + r < ``table.reward_cut(s)`` = grid_t[_kz]
- s e (less the rounding of r) is written to the output with its total and
compacted out of the working arrays, and its columns are no longer read;
the loop ends when no node is left, so the z columns nobody reads are never
generated.  The rule is exact, by this chain over the stages k >= j:

    te_k = T0_k + t_k                          (the end time of stage k)
    T0_{k+1} = T(chi_{k+1}) <= T(chi_k-) + e   (jumps only lower chi, and a
                                               time solve overshoots by <= e)
             <= te_k + e                       (chi_k- = P(te_k))
    so te_k <= T0_j + (t_j + ... + t_k) + (k - j) e
            <= T0_j + r + (s - 1) e < grid_t[_kz] - e,

so every stage from j on ends in the zero stretch, each adds W * 0.0 = +0.0,
and the dropped total is the every-stage loop's bit for bit.  At j >= 1 most
nodes that are dropped are dropped before their time solve, by a pre-test
on chi's grid_y interval k (``table.locate``): with t_up = grid_t[k+1],

    T0_j = T(chi_j) <= t_up + e                (chi_j <= grid_y[k+1] = P(t_up),
                                               and a time solve overshoots by <= e)
    so t_up + r < reward_cut(s + 1) = reward_cut(s) - e
    implies T0_j + r < reward_cut(s),

and a node that passes it (and the weight guard) is dropped as above, its
stage v column never read; the exact test on T0 then runs on the rest,
whose intervals the time solve reuses.  Here e bounds
one time solve's overshoot below the band: the residual tolerance of
time_of (plus a position's rounding) over the smallest slope of the
position interpolant on [0, grid_t[_kz]] (0.02 time units on the loan
table, whose slope at the ruin end is about 5e-8), plus a time sum's
rounding.  The cut is -inf when that slope is 0, and then nothing is
dropped.  A weight guard keeps the overflow report: W * 0.0 is NaN once W
overflows exp(), so a node is dropped only if a bound on its later weight
exponents (each stage adds at most log(lam alpha (y_end + c/rho)) plus, for
lam + delta < 1 or lam < 1, a multiple of its time) stays below 700.

The rule rests on the reward being zero below the band and on nothing else
being read from a stage's end state.  A start function V0 added at the last
stage, or a stage reward r-bar(chi) that integrates the reward over the
inter-jump time, is nonzero below the band, and there the rule does not
hold.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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

__all__ = ["Estimate", "IteratedPoint", "iterated_integrand", "estimate_value"]

_CHUNK = MC_CHUNK_NODES  # nodes per accumulation chunk (fixed: determinism contract)
_STACK = 4 * _CHUNK  # most nodes per integrand batch of stacked replicates
_LOG_TINY = 1e-300
_LOG_SAFE = 700.0  # a weight exponent below this cannot overflow exp()
_EPS = float(np.finfo(float).eps)


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
        raise InputError(f"start value {x0} outside ({p.ruin_level}, {p.b}]")


def _integrand_batch(model: SmoothedLoanModel, x0: float, n: int, cols: Callable) -> np.ndarray:
    """Evaluate the n-term accumulated integrand at a batch of points.

    ``cols(dim)`` returns the batch's coordinate array for dimension ``dim``
    in the (v_1, z_1, ...) layout; dimension 2n-1 (z_n) is never requested,
    and no z column once every node is dropped.  Each v column is requested
    twice: once for the remaining times, once for its stage.
    """
    p = model.params
    table = model.table
    lam, delta, alpha, ruin = p.lam, p.delta, p.alpha, p.ruin_level
    log_lam = math.log(lam)
    log_alpha = math.log(alpha)
    # the weight guard's bounds: a stage raises logw by at most `grow` plus
    # `per_time` times its time, and a term's exponent exceeds logw by at
    # most log_lam plus `per_time` times its time
    grow = max(0.0, log_lam + log_alpha + math.log(table.y_end - ruin))
    per_time = max(0.0, 1.0 - lam - delta) + max(0.0, 1.0 - lam)
    live = None  # indices of the nodes still evaluated; None while that is all of them

    def column(dim: int) -> np.ndarray:
        c = cols(dim)
        return c if live is None else c.take(live)

    def log_v(dim: int) -> np.ndarray:
        return np.log(np.clip(column(dim), _LOG_TINY, 1.0))

    logv = log_v(0)
    rem = -logv  # each node's remaining time: the sum of its inter-jump times
    for j in range(1, n):
        rem -= log_v(2 * j)
    m = rem.size
    out = np.empty(m)
    # rem's rounding: a sum of n times, then up to n subtractions
    slack = 2.0 * n * _EPS * float(np.max(rem, initial=0.0))

    def drop(gone, *arrays):
        """Write the gone nodes' totals (arrays[0]) to out; each array's other nodes.

        Scalars (the first stage's shared start) pass through.
        """
        nonlocal live
        idx = np.arange(m) if live is None else live
        out[idx[gone]] = arrays[0][gone]
        keep = np.flatnonzero(~gone)
        live = idx.take(keep)
        return [a.take(keep) if np.ndim(a) else a for a in arrays]

    chi = float(x0)  # every node starts here: the first stage solves its time once
    logw = np.zeros(m)
    total = np.zeros(m)
    for j in range(n):
        left = n - j
        safe = logw + per_time * rem < _LOG_SAFE - log_lam - (left - 1) * grow
        if j:
            # pre-test before the time solve: T0 <= t_up + e (FlowTable.locate),
            # so a node that passes it passes the test on T0 below
            k, t_up = table.locate(chi)
            gone = (t_up + rem < table.reward_cut(left + 1) - slack) & safe
            if gone.any():
                total, logw, rem, chi, k, safe = drop(gone, total, logw, rem, chi, k, safe)
                if not live.size:
                    break
            logv = log_v(2 * j)
            T0, k0 = table.start(chi, k)
        else:
            T0, k0 = table.start(chi)
        gone = (T0 + rem < table.reward_cut(left) - slack) & safe
        if gone.any():
            total, logw, rem, logv, T0, k0 = drop(gone, total, logw, rem, logv, T0, k0)
            if not live.size:
                break
        if j == n - 1:  # nothing reads the last stage's position
            reward = table.stage(T0, k0, -logv)
        else:
            reward, chi_pre = table.stage(T0, k0, -logv, position=True)
        total += np.exp(logw + log_lam + (lam - 1.0) * logv) * reward
        if j < n - 1:
            span = chi_pre - ruin
            jump = column(2 * j + 1) * span
            logw += (log_lam + (lam + delta - 1.0) * logv
                     + log_alpha - alpha * jump + np.log(span))
            chi = chi_pre - jump
            rem += logv
            # free this stage's arrays before the next stage's lookups, the
            # point where a stacked batch holds the most temporaries
            del reward, chi_pre, logv, span, jump, T0, k0
    else:
        out[slice(None) if live is None else live] = total
    if not np.all(np.isfinite(out)):
        raise ModelError("iterated integrand overflowed at a corner node")
    return out


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

    A start above the barrier b follows the barrier strategy: the excess
    x0 - b is paid out at once as a lump sum, so the value is the estimate
    at b plus (x0 - b).
    """
    require_int("jump count n", n, 1)
    require_int("workers", workers, 1)
    if rule.d != 2 * n:
        raise InputError(f"rule dimension {rule.d} does not match 2n = {2 * n}")
    if not math.isfinite(x0):
        raise InputError(f"start value must be finite, got {x0}")
    b = model.params.b
    start_x = min(x0, b)
    _check_x0(model, start_x)
    start = time.perf_counter()
    if rule.kind is RuleKind.GAUSS_PRODUCT:
        if rule.M ** (2 * n - 1) > 10 ** 7:
            raise InputError(
                f"Gauss product budget exceeded: {rule.M}^{2 * n - 1} > 1e7 nodes")
        reps = 1
    else:
        reps = rule.replicates
    means = _replicate_means(model, start_x, n, rule, reps, workers)
    value = float(np.mean(means))
    if x0 > b:
        value += x0 - b
    std_error = float(np.std(means, ddof=1) / math.sqrt(reps)) if reps >= 2 else None
    wall_ms = (time.perf_counter() - start) * 1e3
    spec = model.spec
    bias = bias_bound(n, spec.intensity_bound, spec.discount, value_upper_bound(spec))
    return Estimate(value=value, std_error=std_error, bias_bound=bias,
                    M=rule.M, d=rule.d, replicates=reps, wall_ms=wall_ms)
