"""Tests for the first-moment bound, exact dense-subgraph counting, the
brute-force density maximizer, and the contraction checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from peelkit import (
    BudgetExceededError,
    ModelParams,
    PeelkitError,
    PeelingTrace,
    build_hypergraph,
    contraction_check,
    count_dense_subgraphs,
    expected_count_bound,
    max_density_subgraph_bruteforce,
    parallel_peel,
    sample_binomial_hypergraph,
)
from peelkit.hypergraph import component_labels


def triangle():
    return build_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


class TestBound:
    def test_t_zero_is_choose(self):
        assert expected_count_bound(10, 3, 0, 1.0, 2) == pytest.approx(
            math.comb(10, 3)
        )

    def test_hand_computed(self):
        # C(10,3) * C(9,2) * 0.1^2 = 120 * 36 * 0.01
        assert expected_count_bound(10, 3, 2, 1.0, 2) == pytest.approx(43.2)

    def test_t_beyond_pool_is_zero(self):
        # the pool inside s = 2 vertices is s^r = 4 edges
        assert expected_count_bound(10, 2, 5, 1.0, 2) == 0.0

    def test_domain_errors(self):
        with pytest.raises(Exception):
            expected_count_bound(10, 0, 1, 1.0, 2)
        with pytest.raises(Exception):
            expected_count_bound(10, 3, -1, 1.0, 2)

    @pytest.mark.parametrize("c", [-1.0, math.nan])
    def test_c_negative_or_nan_rejected(self, c):
        with pytest.raises(PeelkitError, match="c must be >= 0"):
            expected_count_bound(10, 3, 2, c, 2)


class TestExactCount:
    def test_triangle_all(self):
        assert count_dense_subgraphs(triangle(), 3, 3) == 1

    def test_triangle_pairs(self):
        assert count_dense_subgraphs(triangle(), 2, 1) == 3

    def test_3edge_too_small(self):
        h = build_hypergraph(3, 3, [(0, 1, 2)])
        assert count_dense_subgraphs(h, 2, 1) == 0

    def test_t_zero_counts_everything(self):
        assert count_dense_subgraphs(triangle(), 2, 0) == 3

    def test_budget_guard(self):
        h = build_hypergraph(2, 60, [(0, 1)])
        with pytest.raises(BudgetExceededError) as e:
            count_dense_subgraphs(h, 20, 1, budget=1000)
        assert e.value.required == math.comb(60, 20)

    def test_against_itertools_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            r = int(rng.integers(2, 4))
            pool = list(itertools.combinations(range(n), r))
            edges = [e for e in pool if rng.random() < 0.35]
            h = build_hypergraph(r, n, edges)
            esets = [set(e) for e in edges]
            for s in range(1, min(n, 6) + 1):
                for t in range(0, 5):
                    brute = sum(
                        1
                        for sub in itertools.combinations(range(n), s)
                        if sum(1 for e in esets if e <= set(sub)) >= t
                    )
                    assert count_dense_subgraphs(h, s, t) == brute


class TestMaxDensity:
    def test_triangle(self):
        witness, avg = max_density_subgraph_bruteforce(triangle(), 3)
        assert witness == (0, 1, 2) and avg == 2

    def test_path(self):
        h = build_hypergraph(2, 3, [(0, 1), (1, 2)])
        witness, avg = max_density_subgraph_bruteforce(h, 3)
        assert witness == (0, 1, 2) and avg == Fraction(4, 3)

    def test_single_3edge(self):
        h = build_hypergraph(3, 3, [(0, 1, 2)])
        witness, avg = max_density_subgraph_bruteforce(h, 3)
        assert witness == (0, 1, 2) and avg == 1

    def test_tie_break_prefers_smaller_then_lex(self):
        # two disjoint edges: density 1 achieved by {0,1} first
        h = build_hypergraph(2, 4, [(0, 1), (2, 3)])
        witness, avg = max_density_subgraph_bruteforce(h, 4)
        assert witness == (0, 1) and avg == 1

    def test_witness_recompute(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(4, 12))
            pool = list(itertools.combinations(range(n), 2))
            edges = [e for e in pool if rng.random() < 0.3]
            h = build_hypergraph(2, n, edges)
            witness, avg = max_density_subgraph_bruteforce(h, min(n, 5))
            inside = sum(1 for e in edges if set(e) <= set(witness))
            assert Fraction(2 * inside, len(witness)) == avg

    def test_budget_guard(self):
        h = build_hypergraph(2, 64, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            max_density_subgraph_bruteforce(h, 32, budget=100)


class TestMonteCarloBound:
    def test_mean_exact_count_below_bound(self):
        # small-scale pre-check of the acceptance criterion shape
        n, c, r, s = 30, 1.0, 2, 3
        t = math.ceil(1.5 * s)
        counts = [
            count_dense_subgraphs(
                sample_binomial_hypergraph(ModelParams(r=r, n=n, c=c, seed=seed)),
                s,
                t,
            )
            for seed in range(60)
        ]
        bound = expected_count_bound(n, s, t, c, r)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts)) if len(counts) > 1 else 0
        assert np.mean(counts) <= bound + 3 * se + 1e-12


class TestContraction:
    def test_triangle_equality_case(self):
        report = contraction_check(parallel_peel(triangle(), 2), 2, 2)
        assert report.ok and report.rounds == []  # no rounds: already a core

    def test_path_rounds(self):
        h = build_hypergraph(2, 3, [(0, 1), (1, 2)])
        report = contraction_check(parallel_peel(h, 2), 2, 2)
        assert report.ok
        assert len(report.rounds) == 2
        first = report.rounds[0]
        assert first["vertex_count_before"] == 3
        assert first["deg_ge_k_count"] == 1
        assert first["rho"] == Fraction(1, 3)
        assert first["survivor_count_after"] == 1

    def test_empty_graph(self):
        report = contraction_check(parallel_peel(build_hypergraph(2, 0, []), 2), 2, 2)
        assert report.ok and report.rounds == []

    def test_inconsistent_trace_violates(self):
        # vertex 0 and the single edge go in round 1, vertices 1..4 stay
        # with no edge: 4 vertices of degree >= 2 held up by 1 edge
        trace = PeelingTrace(
            vertex_round=np.array([1, 0, 0, 0, 0]), edge_round=np.array([1])
        )
        report = contraction_check(trace, 2, 2)
        assert report.ok is False
        assert report.violations == ["round 1: k*deg_ge_k = 8 > r*edges = 2"]

    def test_never_violates_on_random(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(5, 80))
            r = int(rng.integers(2, 4))
            c = float(rng.uniform(0.5, 6.0))
            c = min(c, 0.9 * n ** (r - 1))
            h = sample_binomial_hypergraph(
                ModelParams(r=r, n=n, c=c, seed=int(rng.integers(1 << 32)))
            )
            for k in (2, 3):
                report = contraction_check(parallel_peel(h, k), r, k)
                assert report.ok, report.violations


def _has_dense_subset(h, s_max, eps):
    """Any subset of size <= s_max with average degree >= r/(r-1) + eps?

    A density witness stays within one connected component, so enumeration is
    restricted to the subgraph each component induces (oversized ones are
    skipped; they are rare at the c used and the trend assertion carries
    slack).
    """
    target = h.r / (h.r - 1) + eps
    labels = component_labels(h.n, h.edges)
    edge_labels = labels[h.edges[:, 0]]
    for label, size in enumerate(np.bincount(labels)):
        if size < 2:
            continue
        relabel = np.full(h.n, -1, dtype=np.int64)
        relabel[labels == label] = np.arange(size)
        sub = build_hypergraph(h.r, int(size), relabel[h.edges[edge_labels == label]])
        for s in range(2, min(s_max, sub.n) + 1):
            if math.comb(sub.n, s) > 5 * 10**5:
                continue
            t = math.ceil(s * target / h.r - 1e-12)
            if count_dense_subgraphs(sub, s, t) > 0:
                return True
    return False


class TestVanishingTrend:
    def test_dense_subset_frequency_trend(self):
        # frequency of any <=5-subset with avg degree >= r/(r-1)+0.5 should
        # not increase with n (statistical trend, generous slack)
        r, c, eps, s_max = 2, 0.7, 0.5, 5
        freqs = []
        for n in (50, 100, 200):
            trials = 30
            hits = sum(
                _has_dense_subset(
                    sample_binomial_hypergraph(
                        ModelParams(r=r, n=n, c=c, seed=1000 * n + seed)
                    ),
                    s_max,
                    eps,
                )
                for seed in range(trials)
            )
            freqs.append(hits / trials)
        assert freqs[-1] <= freqs[0] + 0.2
