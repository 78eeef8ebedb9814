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

The model owns this law: ``SmoothedLoanModel.term_weight`` is the term's
weight, ``claim_jump`` the draw, the scaling and the jump, ``start`` the
start rule and ``bias_bound`` the truncation bound.  The pass reads nothing
else of the model but its flow table.

W is kept in log space: it underflows harmlessly for deep stages and any
overflow (possible only on an astronomically unlikely corner of the cube)
is detected rather than silently wrapped.  Jumps below the ruin level carry
zero mass by construction (the substitution samples sizes on
(0, chi + c/rho)), so the integrand never reaches the ruin level.

Each stage is three flow-table calls: ``locate``, the grid_y interval of
chi, for the drop test below; ``start``, the time solve T0 = T(chi) on the
master clock, which reuses that interval; and ``stage``, the reward and the
position reached.  Every node starts at x0, so the first stage passes it as
a scalar and its master time is solved once; the last stage reads only the
reward L, since chi_n is never used.

Nodes that can no longer earn are dropped.  The reward rate is zero below
the dividend band, so a flow that ends before grid_t[_kz], the start of the
table's zero-reward stretch, adds exactly +0.0.  Before the stage loop one
pass over the v columns multiplies each node's v coordinates, and one log
gives its remaining time r = -ln(v_1 v_2 ... v_n), the sum of its n
inter-jump times (each stage then subtracts its own).  A product of 0 or
below the smallest normal gives r = +inf, and such a node is never
dropped; a finite r is at most -ln(tiny) = 708.4, so the product's n - 1
roundings, a few ulp from each log and the n - 1 subtractions leave it
within 16 n eps (1 + 708.4), about 8e-11 at n = 32, of the sum of the stage
times the loop uses: far below the cut step e.  At stage j, with s = n - j
stages left, ``table.locate`` gives chi's grid_y interval k and t_up =
grid_t[k+1], and a node whose t_up + r < ``table.reward_cut(s + 1)`` =
grid_t[_kz] - (s + 1) e (less that slack) is written to the output with
its total and compacted out of the working arrays before its time is
solved, and its columns are no longer read; the loop ends when no node is
left, so the z columns nobody reads are never generated.  The test is
exact, by this chain over the stages k >= j:

    T0_j = T(chi_j) <= t_up + e                (chi_j <= grid_y[k+1] = P(t_up),
                                               and a time solve overshoots by <= e)
    te_k = T0_k + t_k                          (the end time of stage k)
    T0_{k+1} = T(chi_{k+1}) <= T(chi_k-) + e   (jumps only lower chi, and a
                                               time solve overshoots by <= e)
             <= te_k + e                       (chi_k- = P(te_k))
    so te_k <= T0_j + (t_j + ... + t_k) + (k - j) e
            <= t_up + r + s e < grid_t[_kz] - e,

so every stage from j on ends in the zero stretch, each adds W * 0.0 = +0.0,
and the dropped total is the every-stage loop's bit for bit.  Here e bounds
one time solve's overshoot below the band: the residual tolerance of
time_of (plus a position's rounding) over the smallest slope of the
position interpolant on [0, grid_t[_kz]] (0.02 time units on the loan
table, whose slope at the ruin end is about 5e-8), plus a time sum's
rounding.  The cut is -inf when that slope is 0, and then nothing is
dropped.  A weight guard (``SmoothedLoanModel.weight_bounded``) keeps the
overflow report: W * 0.0 is NaN once W overflows exp(), so a node is dropped
only if a bound on its later weight exponents (each stage adds at most
log(lam alpha (y_end + c/rho)) plus, for lam + delta < 1 or lam < 1, a
multiple of its time) stays below 700.

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

__all__ = ["Estimate", "check_gauss_budget", "estimate_value"]

_CHUNK = MC_CHUNK_NODES  # nodes per accumulation chunk (fixed: determinism contract)
_STACK = 4 * _CHUNK  # most nodes per integrand batch of stacked replicates
_LOG_TINY = 1e-300
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
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


def _integrand_batch(model: SmoothedLoanModel, x0: float, n: int, cols: Callable) -> np.ndarray:
    """Evaluate the n-term accumulated integrand at a batch of points.

    ``cols(dim)`` returns the batch's coordinate array for dimension ``dim``
    in the (v_1, z_1, ...) layout; dimension 2n-1 (z_n) is never requested,
    and no z column once every node is dropped.  Each v column is requested
    twice: once for the remaining times, once for its stage.  One point
    is a batch of one:
    ``_integrand_batch(model, x0, n, lambda d: coords[d:d + 1])[0]``.
    """
    table = model.table
    live = None  # indices of the nodes still evaluated; None while that is all of them

    def column(dim: int) -> np.ndarray:
        c = cols(dim)
        return c if live is None else c.take(live)

    def log_v(v: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(v, _LOG_TINY))  # v <= 1

    # each node's remaining time: minus the log of its v product, +inf for a
    # product below the smallest normal (see the module docstring)
    rem = column(0).copy()  # a column may be a view of the caller's points
    logv = log_v(rem)
    for j in range(1, n):
        rem *= column(2 * j)
    rem[rem < _TINY] = 0.0
    with np.errstate(divide="ignore"):
        np.log(rem, out=rem)
    np.negative(rem, out=rem)
    m = rem.size
    out = np.empty(m)
    slack = 16.0 * n * _EPS * (1.0 - math.log(_TINY))  # rem's rounding

    def drop(gone, *arrays):
        """Write the gone nodes' totals (arrays[0]) to out; each array's other nodes.

        ``gone`` indexes the working arrays.  Scalars (the first stage's
        shared start and its interval) and None pass through.
        """
        nonlocal live
        out[gone if live is None else live.take(gone)] = arrays[0].take(gone)
        stay = np.ones(arrays[0].size, dtype=bool)
        stay[gone] = False
        keep = np.flatnonzero(stay)
        live = keep if live is None else live.take(keep)
        return [a.take(keep) if np.ndim(a) else a for a in arrays]

    chi = float(x0)  # every node starts here: the first stage solves its time once
    logw = np.zeros(m)
    total = np.zeros(m)
    for j in range(n):
        left = n - j
        # the drop test, before the time solve: T0 <= t_up + e (FlowTable.locate)
        k, t_up = table.locate(chi)
        gone = np.flatnonzero(t_up + rem < table.reward_cut(left + 1) - slack)
        # the weight guard, on the nodes the test passes (their rem is finite)
        gone = gone[model.weight_bounded(logw.take(gone), rem.take(gone), left)]
        if gone.size:
            total, logw, rem, chi, k, logv = drop(gone, total, logw, rem, chi, k, logv)
            if not live.size:
                break
        if j:
            logv = log_v(column(2 * j))
        T0, k0 = table.start(chi, k)
        if j == n - 1:  # nothing reads the last stage's position
            reward = table.stage(T0, k0, -logv)
        else:
            reward, chi_pre = table.stage(T0, k0, -logv, position=True)
        total += model.term_weight(logw, logv) * reward
        if j < n - 1:
            chi, step = model.claim_jump(chi_pre, column(2 * j + 1), logv)
            logw += step
            rem += logv
            # free this stage's arrays before the next stage's lookups, the
            # point where a stacked batch holds the most temporaries
            del reward, chi_pre, step, T0, k0
            logv = None  # the next stage reads its v column after its drop
    else:
        out[slice(None) if live is None else live] = total
    if not np.all(np.isfinite(out)):
        raise ModelError("iterated integrand overflowed at a corner node")
    return out


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


def check_gauss_budget(rule: CubatureSpec) -> None:
    """Refuse a Gauss product rule of more than 1e7 nodes on its d - 1 live
    dimensions (z_n is never read); every other rule passes."""
    if rule.kind is RuleKind.GAUSS_PRODUCT and rule.M ** (rule.d - 1) > 10 ** 7:
        raise InputError(f"Gauss product budget exceeded: {rule.M}^{rule.d - 1} > 1e7 nodes")


def estimate_value(x0: float, n: int, rule: CubatureSpec, model: SmoothedLoanModel,
                   workers: int = 1) -> Estimate:
    """Average the n-jump truncated-sum integrand over the rule's node set.

    Randomized rules run ``rule.replicates`` repetitions (pseudorandom rules
    reseed, low-discrepancy rules are Cranley-Patterson shifted); the value
    is the mean of replicate means and the error bar the standard deviation
    of replicate means over sqrt(R).  The Gauss product rule is deterministic:
    it runs one replicate over the 2n-1 live dimensions (z_n is never read)
    within a budget of 1e7 nodes and carries no error bar.

    The model's start rule (``SmoothedLoanModel.start``) follows the
    barrier strategy: the excess x0 - b of a start above the barrier b is
    paid out at once as a lump sum, so the value is the estimate at b plus
    (x0 - b).
    """
    require_int("jump count n", n, 1)
    require_int("workers", workers, 1)
    if rule.d != 2 * n:
        raise InputError(f"rule dimension {rule.d} does not match 2n = {2 * n}")
    start_x, lump = model.start(x0)
    check_gauss_budget(rule)
    start = time.perf_counter()
    reps = 1 if rule.kind is RuleKind.GAUSS_PRODUCT else rule.replicates
    means = _replicate_means(model, start_x, n, rule, reps, workers)
    value = float(np.mean(means)) + lump
    std_error = float(np.std(means, ddof=1) / math.sqrt(reps)) if reps >= 2 else None
    wall_ms = (time.perf_counter() - start) * 1e3
    return Estimate(value=value, std_error=std_error, bias_bound=model.bias_bound(n),
                    M=rule.M, d=rule.d, replicates=reps, wall_ms=wall_ms)
