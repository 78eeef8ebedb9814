"""Crude Monte Carlo reference for the unsmoothed loan model.

Between jumps the surplus follows the piecewise closed-form flow (exponential
ascent on the loan band, linear above zero, pinned at the barrier where
dividends accrue), so the only error sources are sampling noise and the
jump-count truncation -- there is no discretisation bias.  A chunk's draws
depend only on its row count and the (seed, chunk index) key of its random
stream, and the chunk sums combine in chunk order.

Each jump is one fused pass over every path of a chunk: the ascent time to
zero is computed once and feeds both the barrier time and the post-flow
position.  A ruined path stays in place with its position set to NaN, which
fails every later dividend, loan-band and ruin test, so its discounted
dividends keep their value at ruin.  Every step draws an (inter-jump time,
claim size) pair for every path, ruined or not, as one standard-exponential
fill of a reused buffer, so the draw a path sees never depends on which
other paths are ruined.

A full chunk's draws are thus the same in every call, so an escalating
caller can hand each call a :class:`MCResume`: the in-order sums of the
full chunks already simulated for the same inputs are reused, not drawn
again, and the estimate keeps its bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cubature import keyed_stream
from .errors import InputError, ModelError, require_int
from .loan import LoanParams
from .operators import Estimate

__all__ = ["MCResume", "mc_reference"]

_PATH_CHUNK = 8192
_MC_PATH_TAG = 0x70617468


def _simulate_chunk(params: LoanParams, x0: float, n_paths: int, seed: int,
                    chunk: int, max_jumps: int):
    """Simulate one chunk of paths from x0 <= b; returns ``(pv, jumps, alive)``.

    ``pv`` is each path's discounted dividends, ``jumps`` the jumps it took
    (the ruining one included) and ``alive`` whether it survived them all.
    """
    p = params
    pv = np.zeros(n_paths)
    jumps = np.zeros(n_paths, dtype=np.int64)
    alive = np.full(n_paths, x0 > p.ruin_level)
    if not x0 > p.ruin_level:
        return pv, jumps, alive  # ruined from the start: nothing to draw for
    rng = keyed_stream(_MC_PATH_TAG, seed, chunk)
    c_rho = p.c / p.rho
    c_delta = p.c / p.delta
    y = np.full(n_paths, float(x0))  # NaN once the path is ruined
    t = np.zeros(n_paths)
    t_zero, y_up, t_hit = (np.empty(n_paths) for _ in range(3))
    draw = np.empty((2, n_paths))
    dt, sizes = draw  # row views: (inter-jump time, claim size) per path
    scale = np.array([[1.0 / p.lam], [1.0 / p.alpha]])
    with np.errstate(divide="ignore", over="ignore"):
        for step in range(max_jumps):
            # fixed draw layout: an (inter-jump time, claim) pair for every
            # path of the chunk on every step, ruined or not.  numpy's
            # exponential(s) is s * standard_exponential(), so one fill
            # scaled in place draws the same bits as two exponential()s
            rng.standard_exponential(out=draw)
            draw *= scale
            # ascent time from y < 0 to 0 (a signed zero for y >= 0, which
            # every use below treats like +0.0); the clamp keeps it inf, not
            # NaN, should rounding put rho*y/c below -1 next to the ruin level
            np.minimum(y, 0.0, out=t_zero)
            t_zero *= p.rho
            t_zero /= p.c
            np.maximum(t_zero, -1.0, out=t_zero)
            np.log1p(t_zero, out=t_zero)
            t_zero /= -p.rho
            # barrier time t_zero + (b - max(y, 0)) / c
            np.maximum(y, 0.0, out=y_up)
            np.subtract(p.b, y_up, out=t_hit)
            t_hit /= p.c
            t_hit += t_zero
            # dividends at rate c from the barrier time to the jump; a ruined
            # path's NaN fails this test and every later one, so its pv and
            # y stay as they were at ruin
            pay = (dt > t_hit).nonzero()[0]
            if pay.size:
                t_pay = t.take(pay)
                gain = t_hit.take(pay)
                gain += t_pay
                gain *= -p.delta
                np.exp(gain, out=gain)
                t_pay += dt.take(pay)
                t_pay *= -p.delta
                np.exp(t_pay, out=t_pay)
                gain -= t_pay
                gain *= c_delta
                pv[pay] += gain
            t += dt
            # post-flow position: linear past zero, exponential while the
            # jump comes before zero is reached, capped at the barrier
            below = (dt < t_zero).nonzero()[0]
            y_below = y.take(below)
            np.subtract(dt, t_zero, out=y)
            np.maximum(y, 0.0, out=y)
            y *= p.c
            y += y_up
            if below.size:
                growth = dt.take(below)
                growth *= p.rho
                np.exp(growth, out=growth)
                y_below += c_rho
                y_below *= growth
                y_below -= c_rho
                y[below] = y_below
            np.minimum(y, p.b, out=y)
            y -= sizes
            gone = (y <= p.ruin_level).nonzero()[0]
            if gone.size:
                jumps[gone] = step + 1
                alive[gone] = False
                y[gone] = np.nan
                if not alive.any():
                    return pv, jumps, alive  # nothing left to draw for
    jumps[alive] = max_jumps
    return pv, jumps, alive


@dataclass
class MCResume:
    """The finished full chunks of :func:`mc_reference` calls on one
    (params, x0, seed, max_jumps): per chunk, in chunk order, the sums
    (sum pv, sum pv^2) of its paths' discounted dividends."""

    params: LoanParams
    x0: float
    seed: int
    max_jumps: int
    sums: list = field(default_factory=list, init=False, repr=False, compare=False)


def mc_reference(params: LoanParams, x0: float, n_paths: int, seed: int = 0,
                 max_jumps: int = 512, *, resume: Optional[MCResume] = None) -> Estimate:
    """Sample mean and standard error of the discounted dividends.

    Deterministic for a fixed seed (an ordered reduction over fixed-size
    path chunks, each drawn from its own keyed stream).  With
    ``resume``, made for the same (params, x0, seed, max_jumps), the full
    chunks it holds are not simulated again and the ones this call
    finishes are added to it; the estimate is a fresh call's, bit for bit,
    but its ``wall_ms`` covers only the chunks this call simulated.  A
    partial last chunk is always simulated: every step draws for each of
    its rows, so its draws depend on its row count.  InputError for a
    resume made for other inputs; ModelError when the mean or the standard
    error overflows.
    """
    require_int("n_paths", n_paths, 1)
    require_int("max_jumps", max_jumps, 1)
    require_int("seed", seed, 0)
    if not math.isfinite(x0):
        raise InputError(f"start value must be finite, got {x0}")
    if x0 > params.b:
        raise InputError(f"start value {x0} above the barrier {params.b}")
    if resume is None:
        resume = MCResume(params, x0, seed, max_jumps)  # this call's own
    elif resume != MCResume(params, x0, seed, max_jumps):
        raise InputError(f"the resume object was made for other inputs: {resume}")
    sums = resume.sums
    start = time.perf_counter()
    total = 0.0
    total_sq = 0.0
    for chunk, c0 in enumerate(range(0, n_paths, _PATH_CHUNK)):
        rows = min(_PATH_CHUNK, n_paths - c0)
        if rows == _PATH_CHUNK and chunk < len(sums):
            chunk_sum, chunk_sq = sums[chunk]
        else:
            pv, _, _ = _simulate_chunk(params, x0, rows, seed, chunk, max_jumps)
            with np.errstate(over="ignore"):  # an overflow fails the check below
                chunk_sum, chunk_sq = float(np.add.reduce(pv)), float(np.add.reduce(pv * pv))
            if rows == _PATH_CHUNK:
                sums.append((chunk_sum, chunk_sq))
        total += chunk_sum
        total_sq += chunk_sq
    mean = total / n_paths
    if n_paths >= 2:
        var = max(total_sq - n_paths * mean * mean, 0.0) / (n_paths - 1)
        std_error = math.sqrt(var / n_paths)
    else:
        std_error = None
    if not (math.isfinite(mean) and (std_error is None or math.isfinite(std_error))):
        raise ModelError(f"Monte Carlo sums overflow: mean {mean}, standard error {std_error}")
    wall_ms = (time.perf_counter() - start) * 1e3
    return Estimate(value=mean, std_error=std_error, bias_bound=params.bias_bound(max_jumps),
                    M=n_paths, d=2 * max_jumps, replicates=1, wall_ms=wall_ms)
