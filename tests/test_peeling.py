"""Tests for parallel peeling and the sequential k-core oracle."""

import itertools

import numpy as np
import pytest

from peelkit import (
    build_hypergraph,
    graph_after_rounds,
    parallel_peel,
    sequential_kcore,
)


def triangle():
    return build_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return build_hypergraph(2, 3, [(0, 1), (1, 2)])


def random_hypergraph(rng, n, r, p):
    pool = list(itertools.combinations(range(n), r))
    take = rng.random(len(pool)) < p
    return build_hypergraph(r, n, [e for e, t in zip(pool, take) if t])


class TestParallelPeel:
    def test_triangle_is_its_own_2core(self):
        trace = parallel_peel(triangle(), 2)
        assert trace.s == 0
        assert trace.core_vertices.tolist() == [0, 1, 2]
        assert trace.core_edges.tolist() == [0, 1, 2]

    def test_path_two_rounds(self):
        trace = parallel_peel(path3(), 2)
        assert trace.s == 2
        assert trace.vertex_round.tolist() == [1, 2, 1]
        assert trace.core_vertices.size == 0
        assert trace.core_edges.size == 0

    def test_single_3edge_one_round(self):
        h = build_hypergraph(3, 3, [(0, 1, 2)])
        trace = parallel_peel(h, 2)
        assert trace.s == 1
        assert trace.vertex_round.tolist() == [1, 1, 1]
        assert trace.core_vertices.size == 0

    def test_empty_graph(self):
        trace = parallel_peel(build_hypergraph(2, 0, []), 2)
        assert trace.s == 0 and trace.core_vertices.size == 0

    def test_isolated_vertices_removed_round_one(self):
        trace = parallel_peel(build_hypergraph(2, 4, []), 1)
        assert trace.s == 1
        assert trace.vertex_round.tolist() == [1, 1, 1, 1]
        assert trace.rounds[0].removed_vertex_count == 4

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            parallel_peel(triangle(), 0)

    def test_edge_removed_in_first_incident_round(self):
        trace = parallel_peel(path3(), 2)
        # both edges lose an endpoint in round 1
        assert trace.edge_round.tolist() == [1, 1]
        assert [r.removed_edge_count for r in trace.rounds] == [2, 0]

    def test_round_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_hypergraph(rng, int(rng.integers(5, 40)), 2, 0.1)
            trace = parallel_peel(h, 2)
            # every vertex gets exactly one round in 0..s (0 = core), and
            # the per-round counts agree with the per-vertex rounds
            per_round = np.bincount(trace.vertex_round, minlength=trace.s + 1)
            assert per_round.size == trace.s + 1
            assert per_round[0] == trace.core_vertices.size
            assert per_round[1:].tolist() == [
                r.removed_vertex_count for r in trace.rounds
            ]

    def test_core_degree_at_least_k(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(8, 50))
            h = random_hypergraph(rng, n, 3, 4.0 / (n * n))
            for k in (2, 3):
                trace = parallel_peel(h, k)
                core_v = set(trace.core_vertices.tolist())
                core_edges = h.edges[trace.core_edges]
                if core_v:
                    deg = {v: 0 for v in core_v}
                    for e in core_edges.tolist():
                        for v in e:
                            deg[v] += 1
                    assert min(deg.values()) >= k

    def test_idempotent_on_core(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            h = random_hypergraph(rng, n, 2, 3.0 / n)
            trace = parallel_peel(h, 2)
            core = build_hypergraph(
                2,
                n,
                [tuple(e) for e in h.edges[trace.core_edges].tolist()],
            )
            again = parallel_peel(core, 2)
            # isolated non-core vertices peel in one round; the core is stable
            assert set(again.core_vertices.tolist()) == set(
                trace.core_vertices.tolist()
            )

    def test_monotone_rounds(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            h = random_hypergraph(rng, n, 2, 2.0 / n)
            trace = parallel_peel(h, 2)
            assert trace.s <= n
            for rec in trace.rounds:
                assert rec.removed_vertex_count >= 1
            counts = [(r.surviving_vertex_count, r.surviving_edge_count)
                      for r in trace.rounds]
            assert counts == sorted(counts, reverse=True)


class TestSequentialOracle:
    def test_triangle(self):
        core_v, core_e = sequential_kcore(triangle(), 2)
        assert core_v.tolist() == [0, 1, 2] and core_e.tolist() == [0, 1, 2]

    def test_path_empty(self):
        core_v, core_e = sequential_kcore(path3(), 2)
        assert core_v.size == 0 and core_e.size == 0

    def test_k4(self):
        h = build_hypergraph(2, 4, list(itertools.combinations(range(4), 2)))
        core_v, _ = sequential_kcore(h, 3)
        assert core_v.tolist() == [0, 1, 2, 3]

    def test_matches_parallel_on_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            r = int(rng.integers(2, 4))
            h = random_hypergraph(rng, n, r, 3.0 / n ** (r - 1))
            for k in (2, 3):
                trace = parallel_peel(h, k)
                core_v, core_e = sequential_kcore(h, k)
                assert core_v.tolist() == trace.core_vertices.tolist()
                assert core_e.tolist() == trace.core_edges.tolist()


class TestGraphAfterRounds:
    def test_round_zero_full(self):
        trace = parallel_peel(path3(), 2)
        v, e = graph_after_rounds(trace, 0)
        assert v.tolist() == [0, 1, 2] and e.tolist() == [0, 1]

    def test_round_one(self):
        trace = parallel_peel(path3(), 2)
        v, e = graph_after_rounds(trace, 1)
        assert v.tolist() == [1] and e.size == 0

    def test_beyond_termination(self):
        trace = parallel_peel(path3(), 2)
        v, e = graph_after_rounds(trace, 99)
        assert v.size == 0 and e.size == 0

    def test_negative_rejected(self):
        trace = parallel_peel(path3(), 2)
        with pytest.raises(ValueError):
            graph_after_rounds(trace, -1)
