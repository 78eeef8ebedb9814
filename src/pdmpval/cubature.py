"""Point-set generation and weights for the valuation cubature.

Sobol' points are generated from a shipped Joe-Kuo style direction-number
table in the original binary ordering (coordinate 1 is the van der Corput
base-2 sequence) starting at index 1, so the origin never appears.  Halton
points use the first d prime bases with optional seeded digit permutations
fixing 0.  Pseudorandom nodes come from counter-based Philox streams keyed by
(seed, replicate, fixed-size chunk), which makes parallel generation
order-independent by construction.  Each generator makes what the estimator
reads, and nothing else builds a point set: ``sobol_column`` and
``halton_column`` one coordinate over an index range, ``mc_chunk`` one
chunk of the pseudorandom stream.  Exact star-discrepancy routines for
d <= 2 serve as test oracles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError, require_int

__all__ = [
    "RuleKind",
    "CubatureSpec",
    "sobol_column",
    "sobol_max_dim",
    "halton_column",
    "halton_permutation",
    "mc_chunk",
    "keyed_stream",
    "MC_CHUNK_NODES",
    "cranley_patterson_shift",
    "cp_shift_vector",
    "gauss_legendre",
    "gauss_product_chunk",
    "star_discrepancy_1d",
    "star_discrepancy_bruteforce",
    "first_primes",
]

_NBITS = 32
_SCALE = float(2.0 ** -_NBITS)
MC_CHUNK_NODES = 8192
_MC_TILE_ROWS = 256  # rows of the Philox stream drawn and transposed at a time

_MC_TAG = 0x6D63706E  # stream-domain separators: the first integer of a keyed_stream key
_CP_TAG = 0x63707368
_HALTON_TAG = 0x686C746E


class RuleKind(Enum):
    MC = "mc"
    SOBOL = "sobol"
    SCRAMBLED_HALTON = "halton"
    GAUSS_PRODUCT = "gauss"


@dataclass(frozen=True)
class CubatureSpec:
    """Rule selection: kind, node count M (points per axis for the Gauss
    product rule), dimension, seed and replicate count.  A rule that cannot
    run, a Gauss product rule over 1e7 nodes among them, is refused here."""

    kind: RuleKind
    M: int
    d: int
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", RuleKind(self.kind))
        except ValueError:
            raise InputError(f"unknown rule kind {self.kind!r}; choose from "
                             f"{sorted(k.value for k in RuleKind)}") from None
        require_int("dimension d", self.d, 1)
        require_int("node count M", self.M, 1)
        require_int("seed", self.seed, 0)
        require_int("replicates", self.replicates, 1)
        if self.kind is RuleKind.SOBOL and self.d > sobol_max_dim():
            raise InputError(
                f"Sobol dimension {self.d} exceeds the shipped direction table "
                f"({sobol_max_dim()})"
            )
        # the nodes are the points of indices 1..M of the 32-bit sequence
        if self.kind is RuleKind.SOBOL and self.M >= 1 << _NBITS:
            raise InputError(f"Sobol node count M = {self.M} exceeds the 32-bit sequence "
                             f"(at most {(1 << _NBITS) - 1})")
        if self.kind is RuleKind.GAUSS_PRODUCT and not 1 <= self.M <= 64:
            raise InputError(f"Gauss rule size must be in 1..64, got {self.M}")
        # on the d - 1 live dimensions (z_n is never read), in Python integers
        # (numpy's wrap), the exponent capped at 24: M^24 >= 2^24 > 1e7 for M >= 2
        if (self.kind is RuleKind.GAUSS_PRODUCT
                and int(self.M) ** min(int(self.d) - 1, 24) > 10 ** 7):
            raise InputError(f"Gauss product budget exceeded: {self.M}^{self.d - 1} > 1e7 nodes")


# --- Sobol' ---------------------------------------------------------------


@lru_cache(maxsize=1)
def _direction_table():
    """Parse the shipped `d s a m_1 ... m_s` table (one line per dimension >= 2)."""
    text = resources.files("pdmpval.data").joinpath("sobol_directions.txt").read_text()
    table = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
        m = [int(v) for v in parts[3:]]
        if len(m) != s:
            raise InputError(f"direction table line for dimension {d} is malformed")
        table[d] = (s, a, m)
    return table


def sobol_max_dim() -> int:
    return 1 + len(_direction_table())


@lru_cache(maxsize=2048)
def _direction_integers(dim: int) -> np.ndarray:
    """32 direction integers of one coordinate, left-aligned in 32 bits."""
    v = np.zeros(_NBITS, dtype=np.uint64)
    if dim == 1:
        for k in range(_NBITS):
            v[k] = np.uint64(1) << np.uint64(_NBITS - 1 - k)
        return v
    s, a, m = _direction_table()[dim]
    for k in range(min(s, _NBITS)):
        v[k] = np.uint64(m[k]) << np.uint64(_NBITS - 1 - k)
    for k in range(s, _NBITS):
        val = v[k - s] ^ (v[k - s] >> np.uint64(s))
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                val ^= v[k - i]
        v[k] = val
    return v


def sobol_column(dim: int, start: int, stop: int) -> np.ndarray:
    """Coordinate ``dim`` (1-based) of Sobol' points with indices [start, stop)."""
    if dim < 1 or dim > sobol_max_dim():
        raise InputError(f"Sobol dimension {dim} outside 1..{sobol_max_dim()}")
    if start < 0 or stop > 1 << _NBITS:
        raise InputError("Sobol index range outside the 32-bit sequence")
    v = _direction_integers(dim)
    # The integer of index i is the XOR of v[b] over the set bits b of i, so
    # it is high(i >> k) ^ low(i mod 2^k).  The low table is built by
    # doubling, low[j + 2^b] = low[j] ^ v[b]; with 2^k <= stop - start the
    # range meets at most three blocks of 2^k indices, each one XOR of a
    # slice of the table with that block's high part.
    n = max(stop - start, 0)
    k = max(n.bit_length() - 1, 0)
    low = np.zeros(1 << k, dtype=np.uint64)
    for b in range(k):
        np.bitwise_xor(low[:1 << b], v[b], out=low[1 << b:2 << b])
    acc = np.empty(n, dtype=np.uint64)
    for blk in range(start >> k, ((stop - 1) >> k) + 1):
        high = np.uint64(0)
        for b in range(k, _NBITS):
            if (blk >> (b - k)) & 1:
                high ^= v[b]
        base = blk << k
        i0, i1 = max(start, base), min(stop, base + (1 << k))
        np.bitwise_xor(low[i0 - base:i1 - base], high, out=acc[i0 - start:i1 - start])
    return acc.astype(np.float64) * _SCALE


# --- Halton -----------------------------------------------------------------


def first_primes(n: int) -> np.ndarray:
    """The first n primes (sieve, grown geometrically)."""
    if n < 1:
        raise InputError(f"need at least one prime, got {n}")
    limit = max(16, int(n * (np.log(n + 2) + np.log(np.log(n + 3))) * 1.3))
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p:: p] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= n:
            return primes[:n].astype(np.int64)
        limit *= 2


@lru_cache(maxsize=2048, typed=True)
def halton_permutation(dim: int, seed: int) -> np.ndarray:
    """The digit permutation pi_b of Halton coordinate ``dim`` (1-based), fixing 0.

    Each coordinate draws from its own keyed stream, so a permutation does
    not depend on which other coordinates are built, and it is built once
    per (dimension, seed) and process: the array is cached, and read-only.
    Fixing the digit 0 keeps the points off the origin corner and leaves
    each coordinate's equidistribution unchanged.
    """
    if dim < 1:
        raise InputError(f"Halton dimension must be >= 1, got {dim}")
    rng = keyed_stream(_HALTON_TAG, seed, dim - 1)
    perm = np.concatenate([[0], 1 + rng.permutation(_halton_base(dim) - 1)]).astype(np.int64)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=2048)
def _halton_base(dim: int) -> int:
    """The base of Halton coordinate ``dim`` (1-based): the dim-th prime."""
    return int(first_primes(dim)[-1])


def halton_column(dim: int, start: int, stop: int, seed: int | None = None) -> np.ndarray:
    """Coordinate ``dim`` (1-based) of (scrambled) Halton points, indices [start, stop).

    The digits are permuted by ``halton_permutation(dim, seed)``; with
    ``seed`` None they are unpermuted.

    Index i maps to the left-to-right sum, lowest digit first, of the terms
    pi(a_j) * s_j over its base-b digits a_j, where s_0 = 1/b and
    s_{j+1} = s_j / b.  A table over the k lowest digit positions, with
    b^k <= stop - start, holds the sums of the low digits; the higher digits
    are constant over each block of b^k indices and are added blockwise in
    position order.  The sums are therefore those of a digit-by-digit loop
    bit for bit: a position beyond an index's top digit adds +0.0 to a sum
    >= +0.0, which changes nothing.
    """
    if dim < 1:
        raise InputError(f"Halton dimension must be >= 1, got {dim}")
    if start < 0:
        raise InputError(f"Halton index range must start at >= 0, got {start}")
    base = _halton_base(dim)
    perm = np.arange(base) if seed is None else halton_permutation(dim, seed)
    digits = np.asarray(perm, dtype=float)  # pi(a) for every digit a
    n = max(stop - start, 0)
    if n == 0:
        return np.empty(0)
    scales = []  # s_j for every digit position of the largest index
    scale, rem = 1.0 / base, stop - 1
    while rem > 0:
        scales.append(scale)
        scale /= base
        rem //= base
    k, width = 0, 1
    while k < len(scales) and width * base <= n:
        k, width = k + 1, width * base
    low = np.zeros(1)
    for terms in np.multiply.outer(scales[:k], digits):  # terms[a] = pi(a) * s_j
        low = np.add.outer(terms, low).ravel()
    # one row per block of `width` indices that the range meets: with
    # width <= n, the table and the grid hold at most 3n values for any start
    first = start // width
    blocks = np.arange(first, (stop - 1) // width + 1)
    grid = np.empty((blocks.size, width))
    grid[...] = low
    for scale in scales[k:]:
        grid += (digits[blocks % base] * scale)[:, None]
        blocks //= base
    lo = start - first * width
    return grid.ravel()[lo:lo + n].copy()


# --- pseudorandom -------------------------------------------------------------


def keyed_stream(*key: int) -> np.random.Generator:
    """The Philox stream keyed by a tuple of integers: a stream-domain tag,
    the seed, then the indices that pick the stream (replicate, chunk, ...).
    Each must be an integer >= 0, and a bool is not one: a float, which
    would truncate, or a negative key is an InputError naming its entry."""
    names = ("stream tag", "seed") + ("stream index",) * (len(key) - 2)
    entropy = tuple(int(require_int(name, k, 0)) for name, k in zip(names, key))
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=entropy)))


def mc_chunk(chunk_index: int, rows: int, d: int, seed: int, replicate: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
    """The first ``rows`` nodes of one fixed-size chunk of the (seed, replicate)
    uniform stream.

    Chunk ``chunk_index`` covers node indices [chunk*8192, ...) and has its
    own stream, filled row by row, so its first rows are a prefix of that
    stream: every node's coordinates depend only on (seed, replicate, node
    index), never on how many nodes the caller uses.  The stream is drawn in
    tiles of rows and each tile is stored transposed into a (d, rows) array,
    ``out`` if given (a float64 array of that shape, for example one
    replicate's column slice of a wider stacked block) or else a new one.
    The (rows, d) result is that array's transpose view: its column ``dim``
    is the array's row ``dim``, contiguous when the array's rows are.
    """
    if rows < 1 or rows > MC_CHUNK_NODES:
        raise InputError(f"rows must be in 1..{MC_CHUNK_NODES}")
    if out is None:
        out = np.empty((d, rows))
    elif not (isinstance(out, np.ndarray) and out.shape == (d, rows)
              and out.dtype == np.float64):
        raise InputError(f"out must be a float64 array of shape ({d}, {rows})")
    stream = keyed_stream(_MC_TAG, seed, replicate, chunk_index)
    tile = np.empty((min(_MC_TILE_ROWS, rows), d))
    for r0 in range(0, rows, _MC_TILE_ROWS):
        part = tile[:min(_MC_TILE_ROWS, rows - r0)]
        stream.random(out=part)
        out[:, r0:r0 + part.shape[0]] = part.T
    return out.T


def cp_shift_vector(d: int, seed: int, replicate: int = 0) -> np.ndarray:
    """The Cranley-Patterson shift vector of one replicate."""
    return keyed_stream(_CP_TAG, seed, replicate).random(d)


def cranley_patterson_shift(points: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Coordinatewise modulo-1 translation of a point set by ``shift``
    (one replicate's vector is ``cp_shift_vector``).

    The fractional part u - floor(u) is exact, so it equals
    ``np.mod(u, 1.0)`` bit for bit at a tenth of the cost.
    """
    u = np.asarray(points, dtype=float) + np.asarray(shift, dtype=float)
    u -= np.floor(u)
    return u


# --- Gauss-Legendre -------------------------------------------------------------


def gauss_legendre(mtilde: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1]; weights sum to 1."""
    if not 1 <= mtilde <= 64:
        raise InputError(f"Gauss rule size must be in 1..64, got {mtilde}")
    x, w = leggauss(mtilde)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_product_chunk(mtilde: int, dims: int, start: int, stop: int):
    """Nodes [start, stop) of the mtilde-point Gauss-Legendre product rule on [0,1]^dims.

    Node i takes in coordinate ``dim`` the 1-d node of digit ``dim`` of i in
    base mtilde.  Returns the (dims, stop - start) coordinate array and the
    product weights, which sum to 1 over all mtilde^dims nodes; the rule is
    exact for polynomials of degree <= 2*mtilde - 1 in each coordinate.
    """
    if dims < 1 or not 0 <= start <= stop <= mtilde ** dims:
        raise InputError(f"Gauss product range [{start}, {stop}) outside {mtilde}^{dims} nodes")
    nodes, wts = gauss_legendre(mtilde)
    idx = np.arange(start, stop, dtype=np.int64)
    digits = [(idx // mtilde ** dim) % mtilde for dim in range(dims)]
    weights = np.ones(idx.shape, dtype=float)
    for k in digits:
        weights *= wts[k]
    return nodes[np.stack(digits)], weights


# --- exact star discrepancy (test oracles) ---------------------------------------


def star_discrepancy_1d(points) -> float:
    """Exact D* of a 1-d point set over anchored half-open intervals."""
    x = np.sort(np.asarray(points, dtype=float).ravel())
    m = x.size
    if m == 0:
        raise InputError("empty point set")
    i = np.arange(1, m + 1)
    return float(1.0 / (2 * m) + np.max(np.abs(x - (2 * i - 1) / (2.0 * m))))


def star_discrepancy_bruteforce(points, budget: int = 10_000) -> float:
    """Exact D* for d <= 2 by corner enumeration over coordinate candidates.

    O(M^2 log M); intended as a validation oracle for modest M (hard budget
    10^4 points).
    """
    import bisect

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m, d = pts.shape
    if m == 0:
        raise InputError("empty point set")
    if m > budget:
        raise InputError(f"point count {m} exceeds the oracle budget {budget}")
    if d == 1:
        xs = pts[:, 0]
        cand = np.concatenate([np.unique(xs), [1.0]])
        xs_sorted = np.sort(xs)
        lt = np.searchsorted(xs_sorted, cand, side="left")
        le = np.searchsorted(xs_sorted, cand, side="right")
        return float(max(np.max(cand - lt / m), np.max(le / m - cand)))
    if d != 2:
        raise InputError(f"brute-force oracle supports d <= 2, got d={d}")

    order = np.lexsort((pts[:, 1], pts[:, 0]))
    px, py = pts[order, 0], pts[order, 1]
    ay = np.concatenate([np.unique(py), [1.0]])
    best = 0.0
    acc: list = []  # sorted y's of points strictly left of the sweep line
    k = 0
    x_groups = np.unique(px)
    for a1 in np.concatenate([x_groups, [1.0]]):
        # points with px < a1 enter the open-count structure
        while k < m and px[k] < a1:
            bisect.insort(acc, py[k])
            k += 1
        arr = np.asarray(acc)
        cnt_open = np.searchsorted(arr, ay, side="left") if arr.size else np.zeros_like(ay)
        # closed counts additionally include px == a1
        k2 = k
        closed = list(acc)
        while k2 < m and px[k2] == a1:
            bisect.insort(closed, py[k2])
            k2 += 1
        arr2 = np.asarray(closed)
        cnt_closed = np.searchsorted(arr2, ay, side="right") if arr2.size else np.zeros_like(ay)
        vol = a1 * ay
        best = max(best, float(np.max(vol - cnt_open / m)), float(np.max(cnt_closed / m - vol)))
    return best
