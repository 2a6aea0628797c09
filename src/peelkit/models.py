"""Exact sampling of the binomial random r-uniform hypergraph H_r(n, p) with
p = c / n^(r-1).

Every one of the C(n, r) possible edges is included independently with
probability p.  Instead of iterating all C(n, r) trials, the included ranks
are drawn by geometric skip-sampling and converted to vertex tuples by
colexicographic unranking.  Given the same seed the edge list is bit-identical
across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PeelkitError
from .hypergraph import Hypergraph

_MASK64 = (1 << 64) - 1

# Ranks are kept as arbitrary-precision ints in the scalar API; the sampler's
# vectorized fast path requires C(n, r) < 2^64 and the slow exact path covers
# ranks up to 2^127.
RANK_CAPACITY_BITS = 127


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the per-trial seed: splitmix64 finalizer of
    master_seed + (index + 1) * 0x9E3779B97F4A7C15 (see README for constants)."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ModelParams:
    """One instance of the random model: H_r(n, c/n^(r-1)) peeled with threshold k."""

    r: int
    n: int
    c: float
    seed: int
    k: int | None = None

    def __post_init__(self):
        if self.r < 2:
            raise PeelkitError(f"r must be >= 2, got {self.r}")
        if self.n < self.r:
            raise PeelkitError(f"n must be >= r = {self.r}, got {self.n}")
        if self.k is not None and self.k < 2:
            raise PeelkitError(f"k must be >= 2, got {self.k}")
        if self.c < 0:
            raise PeelkitError(f"c must be >= 0, got {self.c}")
        if self.p > 1.0:
            raise PeelkitError(
                f"p = c/n^(r-1) = {self.p} exceeds 1; lower c or raise n"
            )

    @property
    def p(self) -> float:
        return self.c / float(self.n) ** (self.r - 1)


def rank_subset(subset, n: int) -> int:
    """Colexicographic rank of a sorted r-subset of [0, n):
    sum_j C(subset[j], j+1)."""
    prev = -1
    rank = 0
    for j, v in enumerate(subset):
        if v <= prev:
            raise PeelkitError(f"subset {tuple(subset)} is not strictly increasing")
        if not 0 <= v < n:
            raise PeelkitError(f"subset element {v} outside [0, {n})")
        rank += math.comb(v, j + 1)
        prev = v
    return rank


def unrank_subset(rank: int, r: int, n: int) -> tuple:
    """The rank-th r-subset of [0, n) in colexicographic order."""
    if not 0 <= rank < math.comb(n, r):
        raise PeelkitError(f"rank {rank} outside [0, C({n},{r}))")
    out = []
    for j in range(r, 0, -1):
        # Largest v with C(v, j) <= rank; v < n always holds for valid ranks.
        lo, hi = j - 1, n - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid, j) <= rank:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo)
        rank -= math.comb(lo, j)
    return tuple(reversed(out))


def skip_sample(num_trials: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of the successes among `num_trials` independent Bernoulli(p)
    trials, via geometric gaps G with P(G = g) = (1-p)^g * p.

    Returns a strictly increasing uint64 array.  Requires num_trials < 2^64.
    """
    if not 0.0 <= p <= 1.0:
        raise PeelkitError(f"probability p = {p} outside [0, 1]")
    if num_trials >= 1 << 64:
        raise CapacityError(f"num_trials = {num_trials} exceeds 2^64")
    if num_trials == 0 or p == 0.0:
        return np.empty(0, dtype=np.uint64)
    if p == 1.0:
        return np.arange(num_trials, dtype=np.uint64)

    # Extended-precision cumsum keeps integer steps exact below 2^64.
    ld = np.longdouble
    if np.finfo(ld).nmant < 63:
        return _skip_sample_scalar(num_trials, p, rng)

    log1mp = math.log1p(-p)
    expected = num_trials * p
    chunks = []
    offset = ld(0)
    bound = ld(num_trials)
    while True:
        batch = int(expected - float(offset) * p) + 8 * int(math.sqrt(expected)) + 64
        u = 1.0 - rng.random(batch)  # uniform on (0, 1]
        gaps = np.floor(np.log(u) / log1mp)
        np.minimum(gaps, float(num_trials), out=gaps)
        steps = gaps.astype(ld) + 1
        positions = offset + np.cumsum(steps)
        cut = np.searchsorted(positions, bound, side="right")
        if cut < batch:
            chunks.append(positions[:cut])
            break
        chunks.append(positions)
        offset = positions[-1]
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    positions = np.concatenate(chunks) - 1
    return positions.astype(np.uint64)


def _skip_sample_scalar(num_trials: int, p: float, rng: np.random.Generator) -> list:
    """Exact fallback using Python ints; slow, for huge or odd platforms."""
    log1mp = math.log1p(-p)
    out = []
    pos = -1
    while True:
        gap = int(math.log(1.0 - rng.random()) / log1mp) if p < 1.0 else 0
        pos += gap + 1
        if pos >= num_trials:
            return out
        out.append(pos)


def _binomial_table(n: int, r: int) -> list:
    """tables[j][i] = C(i, j) for j = 1..r, i = 0..n, as uint64 arrays.
    Valid only when C(n, r) < 2^64."""
    tables = [None, np.arange(n + 1, dtype=np.uint64)]
    for j in range(2, r + 1):
        col = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(tables[j - 1][:-1], out=col[1:])  # C(i,j) = sum_{t<i} C(t,j-1)
        tables.append(col)
    return tables


def _invert_binomial(table: np.ndarray, rem: np.ndarray, j: int, n: int) -> np.ndarray:
    """Largest v with C(v, j) <= rem, vectorized: float guess from
    C(v, j) ~ (v - (j-1)/2)^j / j!, then an exact +-1 walk against the table."""
    if j == 1:
        return rem.astype(np.int64)
    fact = float(math.factorial(j))
    guess = np.floor(
        (rem.astype(np.float64) * fact) ** (1.0 / j) + 0.5 * (j - 1)
    ).astype(np.int64)
    np.clip(guess, 0, n - 1, out=guess)
    while True:
        mask = table[guess] > rem
        if not mask.any():
            break
        guess[mask] -= 1
    while True:
        mask = (guess < n - 1) & (table[guess + 1] <= rem)
        if not mask.any():
            break
        guess[mask] += 1
    return guess


def _unrank_many(ranks: np.ndarray, r: int, n: int) -> np.ndarray:
    """Vectorized colex unranking of a uint64 rank array into an (m, r) edge
    array with ascending rows."""
    tables = _binomial_table(n, r)
    m = ranks.shape[0]
    out = np.empty((m, r), dtype=np.int64)
    rem = ranks.copy()
    for j in range(r, 0, -1):
        idx = _invert_binomial(tables[j], rem, j, n)
        out[:, j - 1] = idx
        rem = rem - tables[j][idx]
    return out


def sample_binomial_hypergraph(params: ModelParams) -> Hypergraph:
    """Draw H_r(n, c/n^(r-1)): each r-subset of [0, n) is an edge independently
    with probability p.  Deterministic given params.seed."""
    r, n = params.r, params.n
    total = math.comb(n, r)
    if total.bit_length() > RANK_CAPACITY_BITS:
        raise CapacityError(
            f"C({n},{r}) needs {total.bit_length()} bits, capacity is "
            f"{RANK_CAPACITY_BITS}"
        )
    rng = np.random.Generator(np.random.PCG64(params.seed))
    if total < 1 << 64:
        ranks = skip_sample(total, params.p, rng)
        edges = _unrank_many(np.asarray(ranks, dtype=np.uint64), r, n)
    else:
        ranks = _skip_sample_scalar(total, params.p, rng)
        edges = np.array(
            [unrank_subset(rk, r, n) for rk in ranks], dtype=np.int64
        ).reshape(len(ranks), r)
    return Hypergraph(r=r, n=n, edges=edges)
