"""Crude Monte Carlo reference for the unsmoothed loan model.

Between jumps the surplus follows the piecewise closed-form flow (exponential
ascent on the loan band, linear above zero, pinned at the barrier where
dividends accrue), so the only error sources are sampling noise and the
jump-count truncation -- there is no discretisation bias.  Per-path random
streams are keyed by (seed, path chunk), and partial sums combine in chunk
order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import InputError
from .loan import LoanParams
from .model import bias_bound
from .operators import Estimate

__all__ = ["mc_reference", "ruin_probability"]

_PATH_CHUNK = 8192
_MC_PATH_TAG = 0x70617468
_RUIN_TAG = 0x7275696E


def _time_to_zero(y, c, rho):
    # ascent time from y < 0 to 0; the clamp keeps dead below-ruin paths NaN-free
    frac = np.maximum(rho * np.minimum(y, 0.0) / c, -1.0)
    with np.errstate(divide="ignore"):
        return -np.log1p(frac) / rho


def _barrier_time(y, c, rho, b):
    """Time for the deterministic flow to reach the barrier from y (vectorised)."""
    y = np.asarray(y, dtype=float)
    t_up = np.where(y >= 0.0, (b - np.minimum(y, b)) / c, 0.0)
    out = np.where(y >= 0.0, t_up, _time_to_zero(y, c, rho) + b / c)
    return out


def _position_after(y, dt, c, rho, b):
    """Flow position after dt, never above the barrier (vectorised)."""
    y = np.asarray(y, dtype=float)
    dt = np.asarray(dt, dtype=float)
    t_zero = np.where(y < 0.0, _time_to_zero(y, c, rho), 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        below = (y + c / rho) * np.exp(rho * np.minimum(dt, t_zero)) - c / rho
    above_start = np.where(y < 0.0, 0.0, y)
    above = above_start + c * np.maximum(dt - t_zero, 0.0)
    pos = np.where(dt < t_zero, below, above)
    return np.minimum(pos, b)


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(_MC_PATH_TAG, int(seed), int(chunk)))
    return np.random.Generator(np.random.Philox(seed=ss))


def _simulate_chunk(params: LoanParams, x0: float, n_paths: int, seed: int,
                    chunk: int, max_jumps: int):
    """Vectorised simulation of one chunk of paths; returns per-path dividends."""
    p = params
    rng = _chunk_rng(seed, chunk)
    y = np.full(n_paths, float(x0))
    t = np.zeros(n_paths)
    pv = np.zeros(n_paths)
    alive = np.full(n_paths, x0 > p.ruin_level)
    jumps = np.zeros(n_paths, dtype=np.int64)
    for _ in range(max_jumps):
        # fixed draw layout: one (dt, jump) pair per path per step
        dt = rng.exponential(1.0 / p.lam, size=n_paths)
        sizes = rng.exponential(1.0 / p.alpha, size=n_paths)
        if not alive.any():
            continue  # keep consuming draws so chunk content is layout-stable
        t_hit = _barrier_time(y, p.c, p.rho, p.b)
        gain = np.where(
            dt > t_hit,
            p.c / p.delta * (np.exp(-p.delta * (t + t_hit)) - np.exp(-p.delta * (t + dt))),
            0.0,
        )
        pv += np.where(alive, gain, 0.0)
        y = np.where(alive, _position_after(y, dt, p.c, p.rho, p.b) - sizes, y)
        t = np.where(alive, t + dt, t)
        jumps += alive.astype(np.int64)
        alive &= y > p.ruin_level
    return pv, jumps, alive


def mc_reference(params: LoanParams, x0: float, n_paths: int, seed: int = 0,
                 max_jumps: int = 512) -> Estimate:
    """Sample mean and standard error of the discounted dividends.

    Deterministic for a fixed seed and independent of any parallel chunking
    (chunked, ordered reduction over fixed-size path blocks).
    """
    if n_paths < 1:
        raise InputError(f"need at least one path, got {n_paths}")
    if not math.isfinite(x0):
        raise InputError(f"start value must be finite, got {x0}")
    if x0 > params.b:
        raise InputError(f"start value {x0} above the barrier {params.b}")
    start = time.perf_counter()
    total = 0.0
    total_sq = 0.0
    for chunk, c0 in enumerate(range(0, n_paths, _PATH_CHUNK)):
        rows = min(_PATH_CHUNK, n_paths - c0)
        pv, _, _ = _simulate_chunk(params, x0, rows, seed, chunk, max_jumps)
        total += float(np.add.reduce(pv))
        total_sq += float(np.add.reduce(pv * pv))
    mean = total / n_paths
    if n_paths >= 2:
        var = max(total_sq - n_paths * mean * mean, 0.0) / (n_paths - 1)
        std_error = math.sqrt(var / n_paths)
    else:
        std_error = None
    wall_ms = (time.perf_counter() - start) * 1e3
    bias = bias_bound(max_jumps, params.lam, params.delta, params.c / params.delta)
    return Estimate(value=mean, std_error=std_error, bias_bound=bias,
                    M=n_paths, d=2 * max_jumps, replicates=1, wall_ms=wall_ms)


def ruin_probability(c: float, lam: float, alpha: float, x0: float, horizon: float,
                     n_paths: int, seed: int = 0) -> tuple:
    """Finite-horizon ruin probability of the classical surplus process.

    Smoke-test estimator: X_t = x0 + c t - compound Poisson, ruin when X < 0
    before the horizon.  Returns (estimate, standard error).
    """
    if n_paths < 1 or not 0.0 < horizon < math.inf:
        raise InputError(f"need n_paths >= 1 and a positive finite horizon, got "
                         f"{n_paths} paths, horizon {horizon}")
    if not (math.isfinite(x0) and math.isfinite(c)):
        raise InputError(f"start value and premium rate must be finite, got x0={x0}, c={c}")
    if not (0.0 < lam < math.inf and 0.0 < alpha < math.inf):
        raise InputError(f"claim rate and size parameter must be positive and finite, "
                         f"got lam={lam}, alpha={alpha}")
    ruined_total = 0
    for chunk, c0 in enumerate(range(0, n_paths, _PATH_CHUNK)):
        rows = min(_PATH_CHUNK, n_paths - c0)
        ss = np.random.SeedSequence(entropy=(_RUIN_TAG, int(seed), int(chunk)))
        rng = np.random.Generator(np.random.Philox(seed=ss))
        t = np.zeros(rows)
        x = np.full(rows, float(x0))
        alive = np.ones(rows, dtype=bool)  # not yet ruined, horizon not passed
        ruined = np.zeros(rows, dtype=bool)
        while alive.any():
            dt = rng.exponential(1.0 / lam, size=rows)
            sizes = rng.exponential(1.0 / alpha, size=rows)
            t_new = t + dt
            in_time = alive & (t_new <= horizon)
            x = np.where(in_time, x + c * dt - sizes, x)
            t = np.where(alive, t_new, t)
            newly = in_time & (x < 0.0)
            ruined |= newly
            alive = in_time & ~newly
        ruined_total += int(ruined.sum())
    p_hat = ruined_total / n_paths
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_paths)
    return p_hat, se
