"""Exact sampling of the binomial random r-uniform hypergraph H_r(n, p) with
p = c / n^(r-1).

Every one of the C(n, r) possible edges is included independently with
probability p.  Given its edge count m ~ Binomial(C(n, r), p), that edge set
is a uniform m-set of r-subsets, so the sampler draws m first and then m
distinct uniform r-subsets.  One path serves every (n, r); no subset is ever
ranked.  Given the same seed the edge list is bit-identical across runs and
platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PeelkitError
from .hypergraph import Hypergraph, _first_distinct, _sort_rows, id_dtype

_MASK64 = (1 << 64) - 1


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
        if self.n >= 1 << 63:
            raise PeelkitError(f"n = {self.n} does not fit int64 vertex ids")
        if self.seed < 0:
            raise PeelkitError(f"seed must be >= 0, got {self.seed}")
        if self.k is not None and self.k < 2:
            raise PeelkitError(f"k must be >= 2, got {self.k}")
        if not self.c >= 0:  # also rejects nan
            raise PeelkitError(f"c must be >= 0, got {self.c}")
        if self.p > 1.0:
            raise PeelkitError(
                f"p = c/n^(r-1) = {self.p} exceeds 1; lower c or raise n"
            )

    @property
    def p(self) -> float:
        return self.c / density_scale(self.n, self.r)


def density_scale(n: int, r: int) -> float:
    """n^(r-1) as a float, the factor between c and p = c / n^(r-1)."""
    try:
        return float(n) ** (r - 1)
    except OverflowError:
        raise PeelkitError(f"n^(r-1) = {n}^{r - 1} is past the float range") from None


def _edge_count(total: int, p: float, rng: np.random.Generator) -> int:
    """m ~ Binomial(total, p): the number of successes among `total`
    independent Bernoulli(p) trials, counted as the geometric gaps
    G ~ P(G = g) = (1-p)^g * p between successes that fit in `total` trials.

    Precision: the gaps are floor(log(U) / log(1-p)) in float64 and their
    running sum is a float64 cumsum compared with float(total).  Below 2^53
    every partial sum is exact.  Above, each addition rounds by at most one
    ulp of 2 * total, so after j steps a partial sum is off by at most
    j * ulp(2 * total) <= j * total * 2^-51.  The count differs from the
    exact-arithmetic count only if an exact partial sum falls within that
    error of `total`, and a partial sum lands on a given integer with
    probability p.  So the law of m is within total-variation distance
    m * total * p * 2^-51 ~ m^2 * 2^-51 of Binomial(total, p) in the worst
    case; rounding errors that partly cancel (a random walk) make it about
    m^1.5 * 2^-51, under 1e-5 at m = 4.3M.
    """
    if p == 0.0:
        return 0
    if p == 1.0:
        return total
    log1mp = math.log1p(-p)
    size = float(total)
    count, pos = 0, 0.0
    while True:
        expected = (size - pos) * p
        batch = int(expected + 8 * math.sqrt(expected)) + 64
        ends = rng.random(batch)  # the gaps and their running sum, in place
        with np.errstate(over="ignore"):  # an infinite gap ends the count
            np.log1p(np.negative(ends, out=ends), out=ends)
            np.floor(np.divide(ends, log1mp, out=ends), out=ends)
            ends += 1.0
            ends[0] += pos
            np.cumsum(ends, out=ends)
        fit = int(np.searchsorted(ends, size, side="right"))
        count += fit
        if fit < batch:
            return count
        pos = float(ends[-1])


def _random_subsets(n: int, r: int, size: int, rng: np.random.Generator) -> list:
    """`size` i.i.d. uniform r-subsets of [0, n) as r columns at
    `id_dtype(n)`, each row ascending.

    Rows are drawn by Floyd's algorithm (for j = n-r .. n-1 take t uniform in
    [0, j], or j itself if t was taken), which never repeats a vertex, so no
    row is rejected even when r is close to n.  Each column is drawn at id
    width; below 2^32 numpy's bounded generator takes the same 32-bit values
    for it as for an int64 column.  An odd-even transposition network of
    column minima and maxima then sorts each row.
    """
    cols = []
    for j in range(n - r, n):
        t = rng.integers(0, j + 1, size=size, dtype=id_dtype(n))
        for col in cols:
            np.copyto(t, j, where=t == col)
        cols.append(t)
    _sort_rows(cols)
    return cols


def _edges_by_largest(cols: list, n: int) -> np.ndarray:
    """The rows of `cols`, which it consumes, as a column-major (m, r) array
    at `id_dtype(n)`, stably ordered by the last column (ties keep their
    order).

    Whenever bits(n - 1) + bits(m) <= 63 that order is one int64 sort of
    (last << position bits) | position, several times faster than a stable
    argsort, and the high bits of the sorted key are the sorted column
    itself; the edge array is allocated only after the sort.  Past that line
    it is one stable argsort of the last column.
    """
    r, m = len(cols), cols[0].size
    pos_bits = m.bit_length()
    if (n - 1).bit_length() + pos_bits > 63:
        order = np.argsort(cols[-1], kind="stable")
        edges = np.empty((m, r), dtype=id_dtype(n), order="F")
    else:
        order = cols.pop().astype(np.int64)
        order <<= pos_bits
        for start in range(0, m, 1 << 16):  # no full-length arange
            stop = min(start + (1 << 16), m)
            order[start:stop] |= np.arange(start, stop)
        order.sort()
        edges = np.empty((m, r), dtype=id_dtype(n), order="F")
        np.right_shift(order, pos_bits, out=edges[:, -1], casting="unsafe")
        order &= (1 << pos_bits) - 1
    for j, col in enumerate(cols):
        # mode="clip" writes into `out` directly; "raise" would buffer it
        np.take(col, order, out=edges[:, j], mode="clip")
    return edges


def sample_binomial_hypergraph(params: ModelParams) -> Hypergraph:
    """Draw H_r(n, c/n^(r-1)): each r-subset of [0, n) is an edge independently
    with probability p.  Deterministic given params.seed.

    Draws m ~ Binomial(C(n, r), p), then i.i.d. uniform r-subsets in batches
    until m distinct ones are found, and keeps the first m distinct in draw
    order.  The set of the first m distinct values of an i.i.d. uniform
    sequence is a uniform m-set, so the edge set has the exact law of
    H_r(n, p).  Each batch is sized so its expected number of new subsets is
    the shortfall, which keeps p near 1 to a few batches.  Rows are ascending
    and edges are ordered by their largest vertex, ties in draw order; that
    order gives the peel's gathers locality.
    """
    r, n = params.r, params.n
    total = math.comb(n, r)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    m = _edge_count(total, params.p, rng)
    size = float(total)
    cols = [np.empty(0, dtype=id_dtype(n))] * r
    while cols[0].size < m:
        have = cols[0].size
        # Draws from `size` subsets, `size - have` unseen, that yield the
        # shortfall in expectation; capped so p = 1 stays within 3m rows.
        d = -size * math.log1p(-(m - have) / (size - have + 1))
        draw = min(int(d + 4 * math.sqrt(d)) + 16, 2 * m)
        batch = _random_subsets(n, r, draw, rng)
        cols = [np.concatenate(pair) for pair in zip(cols, batch)] if have else batch
        del batch  # else it keeps the whole first batch alive to the end
        first = _first_distinct(cols, n)
        if first is not None:
            cols = [col[first] for col in cols]
        cols = [col[:m] for col in cols]
    return Hypergraph(r=r, n=n, edges=_edges_by_largest(cols, n))
