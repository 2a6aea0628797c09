"""Tests for the hypergraph data structure and its basic operations."""

import numpy as np
import pytest

from peelkit import (
    DuplicateEdgeError,
    EdgeArityError,
    PeelkitError,
    VertexRangeError,
    average_degree,
    build_hypergraph,
    connected_components,
    induced_subgraph,
    read_hg,
    write_hg,
)


def triangle():
    return build_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


class TestBuild:
    def test_triangle_degrees(self):
        h = triangle()
        assert [h.degree(v) for v in range(3)] == [2, 2, 2]
        assert h.m == 3

    def test_single_hyperedge(self):
        h = build_hypergraph(3, 3, [(0, 1, 2)])
        assert [h.degree(v) for v in range(3)] == [1, 1, 1]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_hypergraph(2, 3, [(0, 1), (0, 1)])

    def test_duplicate_as_set_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_hypergraph(2, 3, [(0, 1), (1, 0)])

    def test_distinct_edges_with_colliding_keys_accepted(self):
        # at n = 2^32 the duplicate check's key c0 + c1*n + c2*n^2 wraps
        # mod 2^64 to c0 + c1*n, so these rows share a key
        h = build_hypergraph(3, 2**32, [(0, 1, 2), (0, 1, 3)])
        assert h.m == 2
        with pytest.raises(DuplicateEdgeError):
            build_hypergraph(3, 2**32, [(0, 1, 2), (0, 1, 3), (2, 1, 0)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(EdgeArityError):
            build_hypergraph(3, 4, [(0, 1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexRangeError):
            build_hypergraph(2, 3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            build_hypergraph(2, 3, [(-1, 1)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(EdgeArityError):
            build_hypergraph(3, 5, [(0, 1)])

    def test_non_integer_id_rejected(self):
        # 1.5 must not be truncated to the edge (0, 1)
        with pytest.raises(PeelkitError, match="integers"):
            build_hypergraph(2, 5, [(0, 1.5)])

    def test_ragged_rows_rejected(self):
        with pytest.raises(EdgeArityError):
            build_hypergraph(3, 5, [(0, 1, 2), (0, 1)])

    def test_id_beyond_int64_rejected(self):
        for big in (2**63, 2**64):
            with pytest.raises(VertexRangeError, match="int64"):
                build_hypergraph(2, 5, [(0, big)])
        with pytest.raises(VertexRangeError, match="int64"):
            build_hypergraph(2, 5, np.array([[0, 2**63]], dtype=np.uint64))

    def test_ndarray_taken_as_is(self):
        arr = np.array([[2, 0], [1, 2]], dtype=np.int32)
        h = build_hypergraph(2, 3, arr)
        assert h.edges.dtype == np.int64 and h.edges.tolist() == [[0, 2], [1, 2]]
        assert arr.tolist() == [[2, 0], [1, 2]]

    def test_r_below_two_rejected(self):
        with pytest.raises(PeelkitError):
            build_hypergraph(1, 3, [(0,)])

    def test_edges_sorted_within(self):
        h = build_hypergraph(3, 5, [(4, 0, 2)])
        assert h.edges.tolist() == [[0, 2, 4]]

    def test_empty(self):
        h = build_hypergraph(2, 4, [])
        assert h.m == 0
        assert [h.degree(v) for v in range(4)] == [0] * 4


class TestDegrees:
    def test_degree_out_of_range(self):
        with pytest.raises(VertexRangeError):
            triangle().degree(3)

    def test_isolated_vertex(self):
        h = build_hypergraph(2, 4, [(0, 1)])
        assert h.degree(3) == 0

    def test_average_degree_triangle(self):
        assert average_degree(triangle()) == 2

    def test_average_degree_single_3edge(self):
        assert average_degree(build_hypergraph(3, 3, [(0, 1, 2)])) == 1

    def test_average_degree_hand_count(self):
        h = build_hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        assert average_degree(h) == pytest.approx(6 / 5)

    def test_average_degree_empty_graph(self):
        assert average_degree(build_hypergraph(2, 0, [])) == 0

    def test_handshake_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            r = int(rng.integers(2, min(n + 1, 5))) if n >= 2 else 2
            import itertools

            pool = list(itertools.combinations(range(n), r))
            take = rng.random(len(pool)) < 0.3
            h = build_hypergraph(r, n, [e for e, t in zip(pool, take) if t])
            degs = h.degrees()
            assert degs.sum() == r * h.m
            assert all(h.degree(v) == degs[v] for v in range(n))


class TestInduced:
    def test_edge_kept(self):
        sub, relabel = induced_subgraph(triangle(), {0, 1})
        assert sub.m == 1 and sub.n == 2
        assert relabel.tolist() == [0, 1]

    def test_single_vertex(self):
        sub, _ = induced_subgraph(triangle(), {0})
        assert sub.m == 0

    def test_partial_edge_dropped(self):
        h = build_hypergraph(3, 3, [(0, 1, 2)])
        sub, _ = induced_subgraph(h, {0, 1})
        assert sub.m == 0

    def test_full_subset_identity(self):
        h = triangle()
        sub, relabel = induced_subgraph(h, range(3))
        assert sub.edges.tolist() == h.edges.tolist()
        assert relabel.tolist() == [0, 1, 2]

    def test_average_degree_consistency(self):
        # avg_degree(H[S]) * |S| = r * (edges inside S)
        h = build_hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, _ = induced_subgraph(h, {0, 1, 2})
        assert average_degree(sub) * sub.n == 2 * sub.m


class TestComponents:
    def test_triangle_one_block(self):
        blocks = connected_components(triangle())
        assert len(blocks) == 1 and blocks[0].tolist() == [0, 1, 2]

    def test_two_blocks(self):
        h = build_hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        blocks = connected_components(h)
        assert sorted(b.tolist() for b in blocks) == [[0, 1, 2], [3, 4, 5]]

    def test_no_edges_singletons(self):
        blocks = connected_components(build_hypergraph(2, 3, []))
        assert sorted(b.tolist() for b in blocks) == [[0], [1], [2]]

    def test_blocks_partition(self):
        rng = np.random.default_rng(5)
        import itertools

        for _ in range(10):
            n = int(rng.integers(3, 25))
            pool = list(itertools.combinations(range(n), 2))
            take = rng.random(len(pool)) < 0.08
            h = build_hypergraph(2, n, [e for e, t in zip(pool, take) if t])
            blocks = connected_components(h)
            seen = np.concatenate(blocks)
            assert sorted(seen.tolist()) == list(range(n))


class TestHgFormat:
    def test_roundtrip(self, tmp_path):
        h = build_hypergraph(3, 6, [(0, 1, 2), (1, 2, 5), (0, 3, 4)])
        path = tmp_path / "g.hg"
        write_hg(h, path)
        h2 = read_hg(path)
        assert h2.r == h.r and h2.n == h.n
        assert h2.edges.tolist() == h.edges.tolist()

    def test_bytes_stable(self, tmp_path):
        h = build_hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
        p1, p2 = tmp_path / "a.hg", tmp_path / "b.hg"
        write_hg(h, p1)
        write_hg(read_hg(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.hg"
        path.write_text("# a comment\n2 3 2\n0 1\n# another\n1 2\n")
        h = read_hg(path)
        assert h.m == 2 and h.n == 3

    def test_bad_edge_count(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 3 5\n0 1\n")
        with pytest.raises(PeelkitError):
            read_hg(path)

    def test_non_integer_token_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("# comment\n3 4 2\n0 1 2\n0 1 x\n")
        with pytest.raises(PeelkitError, match="line 4"):
            read_hg(path)

    def test_non_integer_id_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3 4 2\n0 1 2\n\n0 1 2.5\n")
        with pytest.raises(PeelkitError, match="line 4"):
            read_hg(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3 4 2\n0 1 2\n# c\n0 1\n")
        with pytest.raises(EdgeArityError, match="line 4"):
            read_hg(path)
        # every row short: numpy parses a rectangle of the wrong width
        path.write_text("3 4 2\n0 1\n0 2\n")
        with pytest.raises(EdgeArityError, match="line 2"):
            read_hg(path)

    def test_id_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 3 2\n0 1\n0 9223372036854775808\n")
        with pytest.raises(VertexRangeError, match="line 3"):
            read_hg(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.hg"
        for header in ("2 3\n", "1 3 0\n", "# only a comment\n"):
            path.write_text(header)
            with pytest.raises(PeelkitError):
                read_hg(path)
