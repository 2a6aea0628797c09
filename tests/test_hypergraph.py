"""Tests for the hypergraph data structure and its basic operations."""

import itertools

import numpy as np
import pytest

from peelkit import (
    DuplicateEdgeError,
    EdgeArityError,
    Hypergraph,
    PeelkitError,
    VertexRangeError,
    build_hypergraph,
    read_hg,
    write_hg,
)
from peelkit.hypergraph import _sort_rows, component_labels, id_dtype

from test_components import union_find_roots


def triangle():
    return build_hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


class TestBuild:
    def test_triangle_degrees(self):
        h = triangle()
        assert h.degrees().tolist() == [2, 2, 2]
        assert h.m == 3

    def test_single_hyperedge(self):
        h = build_hypergraph(3, 3, [(0, 1, 2)])
        assert h.degrees().tolist() == [1, 1, 1]

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
        assert h.edges.dtype == np.int32 and h.edges.tolist() == [[0, 2], [1, 2]]
        assert arr.tolist() == [[2, 0], [1, 2]]

    def test_r_below_two_rejected(self):
        with pytest.raises(PeelkitError):
            build_hypergraph(1, 3, [(0,)])

    def test_edges_sorted_within(self):
        h = build_hypergraph(3, 5, [(4, 0, 2)])
        assert h.edges.tolist() == [[0, 2, 4]]

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_every_row_permutation_sorted(self, r):
        rows = list(itertools.permutations([3, 5, 8, 13][:r]))
        cols = [np.array(col) for col in zip(*rows)]
        _sort_rows(cols)
        assert np.stack(cols, axis=1).tolist() == [[3, 5, 8, 13][:r]] * len(rows)
        # one edge per permutation, each on its own r ids
        perms = list(itertools.permutations(range(r)))
        rows = [[10 * i + v for v in perm] for i, perm in enumerate(perms)]
        h = build_hypergraph(r, 10 * len(rows), rows)
        assert h.edges.tolist() == [sorted(row) for row in rows]

    @pytest.mark.parametrize("n, width", [(10, np.int32), (2**31, np.int64)])
    def test_column_major_at_id_width(self, tmp_path, n, width):
        rows = np.array([[4, 0, 2], [1, 3, 2], [0, 1, 9]], dtype=np.int64)
        for edges in (rows, rows.tolist(), np.asfortranarray(rows)):
            h = build_hypergraph(3, n, edges)
            assert h.edges.flags.f_contiguous and h.edges.dtype == width
            assert (np.diff(h.edges, axis=1) > 0).all()
        write_hg(h, tmp_path / "g.hg")
        back = read_hg(tmp_path / "g.hg")
        assert back.edges.flags.f_contiguous and back.edges.dtype == width
        assert back.edges.tolist() == [[0, 2, 4], [1, 2, 3], [0, 1, 9]]

    def test_empty(self):
        h = build_hypergraph(2, 4, [])
        assert h.m == 0
        assert h.degrees().tolist() == [0] * 4


class TestIdWidth:
    """Edges are stored at int32 below n = 2^31 - 1 and at int64 from there,
    whatever the input's width; n itself must fit, as the peel's round
    numbers and degree clamp share the width."""

    @pytest.mark.parametrize(
        "n, width", [(2**31 - 2, np.int32), (2**31 - 1, np.int64), (2**40, np.int64)]
    )
    def test_build_and_read(self, tmp_path, n, width):
        rows = [(n - 1, 0, n - 2), (1, 2, 3)]
        for edges in (rows, np.array(rows, dtype=np.uint64)):
            h = build_hypergraph(3, n, edges)
            assert h.edges.dtype == width
            assert h.edges.tolist() == [[0, n - 2, n - 1], [1, 2, 3]]
        write_hg(h, tmp_path / "g.hg")
        back = read_hg(tmp_path / "g.hg")
        assert back.edges.dtype == width and back.edges.tolist() == h.edges.tolist()

    def test_narrow_input_widened(self):
        h = build_hypergraph(2, 2**31, np.array([[1, 0]], dtype=np.int8))
        assert h.edges.dtype == np.int64 and h.edges.tolist() == [[0, 1]]


class TestDegrees:
    def test_isolated_vertex(self):
        h = build_hypergraph(2, 4, [(0, 1)])
        assert h.degrees()[3] == 0

    def test_degrees_in_either_layout(self):
        h = build_hypergraph(3, 6, [(0, 1, 2), (1, 2, 5), (0, 3, 4)])
        assert h.degrees().tolist() == [2, 2, 2, 1, 1, 1]
        c_order = Hypergraph(r=3, n=6, edges=np.ascontiguousarray(h.edges))
        assert c_order.degrees().tolist() == [2, 2, 2, 1, 1, 1]

    def test_average_degree_triangle(self):
        assert triangle().degrees().mean() == 2

    def test_average_degree_single_3edge(self):
        assert build_hypergraph(3, 3, [(0, 1, 2)]).degrees().mean() == 1

    def test_average_degree_hand_count(self):
        h = build_hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        assert h.degrees().tolist() == [1, 1, 2, 1, 1]
        assert h.degrees().mean() == pytest.approx(6 / 5)

    def test_handshake_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            r = int(rng.integers(2, min(n + 1, 5))) if n >= 2 else 2
            import itertools

            pool = list(itertools.combinations(range(n), r))
            take = rng.random(len(pool)) < 0.3
            edges = [e for e, t in zip(pool, take) if t]
            h = build_hypergraph(r, n, edges)
            degs = h.degrees()
            assert degs.sum() == r * h.m
            assert degs.tolist() == [sum(v in e for e in edges) for v in range(n)]


class TestComponents:
    def test_triangle_one_block(self):
        labels = component_labels(3, triangle().edges)
        assert labels.dtype == id_dtype(3)
        assert labels.tolist() == [0, 0, 0]

    def test_two_blocks(self):
        h = build_hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert component_labels(h.n, h.edges).tolist() == [0, 0, 0, 3, 3, 3]

    def test_no_edges_singletons(self):
        h = build_hypergraph(2, 3, [])
        assert component_labels(h.n, h.edges).tolist() == [0, 1, 2]

    def test_blocks_partition(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            pool = list(itertools.combinations(range(n), 2))
            take = rng.random(len(pool)) < 0.08
            h = build_hypergraph(2, n, [e for e, t in zip(pool, take) if t])
            labels = component_labels(n, h.edges)
            # each vertex labelled by the smallest vertex of its component
            assert labels.dtype == id_dtype(n)
            assert labels.tolist() == union_find_roots(n, h.edges.tolist())


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

    def test_out_of_range_id_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 3 2\n0 1\n# c\n\n0 3\n")
        with pytest.raises(VertexRangeError, match="line 5: edge \\(0, 3\\)"):
            read_hg(path)

    def test_repeated_vertex_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("# c\n3 4 2\n0 1 2  # ok\n\n2 1 2\n")
        with pytest.raises(EdgeArityError, match="line 5: edge \\(1, 2, 2\\)"):
            read_hg(path)

    def test_duplicate_edge_names_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 3\n0 1\n# c\n1 2\n\n1 0\n")
        with pytest.raises(DuplicateEdgeError, match="line 6: duplicate edge \\(0, 1\\)"):
            read_hg(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.hg"
        for header in ("2 3\n", "1 3 0\n", "# only a comment\n"):
            path.write_text(header)
            with pytest.raises(PeelkitError):
                read_hg(path)

    @pytest.mark.parametrize("n", [-5, 2**63], ids=["negative", "2^63"])
    def test_bad_vertex_count_names_header_line(self, tmp_path, n):
        path = tmp_path / "bad.hg"
        path.write_text(f"# c\n\n2 {n} 1\n0 1\n")
        with pytest.raises(PeelkitError) as err:
            read_hg(path)
        assert str(err.value) == (
            f"{path} line 3: vertex count n must be in [0, 2^63), got {n}"
        )

    @pytest.mark.parametrize("data,line", [
        (b"2 3 \xff1\n0 1\n", 1),
        (b"# c\n2 3 2\n0 1\n0 \xff\n", 4),
        (b"2 3 1\n0 1  # \xe9t\xe9\n", 2),
        # past the first chunk that text mode decodes
        (b"2 5000 4999\n" + b"".join(b"0 %d\n" % v for v in range(1, 5000))
         + b"# \xff\n", 5001),
    ], ids=["header", "edge", "comment", "late"])
    def test_non_utf8_names_line(self, tmp_path, data, line):
        path = tmp_path / "bad.hg"
        path.write_bytes(data)
        with pytest.raises(PeelkitError, match=f"line {line}: not UTF-8$"):
            read_hg(path)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_read_like_lf(self, tmp_path, end):
        text = b"# c\n3 6 3\n0 1 2  # e\n\n1 2 5\n0 3 4\n"
        (tmp_path / "lf.hg").write_bytes(text)
        (tmp_path / "other.hg").write_bytes(text.replace(b"\n", end))
        lf, other = read_hg(tmp_path / "lf.hg"), read_hg(tmp_path / "other.hg")
        assert (other.r, other.n) == (lf.r, lf.n)
        assert other.edges.tolist() == lf.edges.tolist()
        assert lf.edges.tolist() == [[0, 1, 2], [1, 2, 5], [0, 3, 4]]

    @pytest.mark.parametrize("data,error,fault", [
        (b"2 3 2\r0 1\r0 x\r", PeelkitError, "line 3: non-integer token in '0 x'"),
        (b"2 3 2\r0 1\r0 1 2\r", EdgeArityError, "line 3: 3 ids, expected r = 2"),
        (b"2 3 2\r0 1\r\r0 3\r", VertexRangeError,
         "line 4: edge \\(0, 3\\) has vertex outside"),
        (b"2 3 2\r0 1\r# c\r0 \xff\r", PeelkitError, "line 4: not UTF-8$"),
    ], ids=["token", "arity", "range", "utf8"])
    def test_cr_only_bad_line_named(self, tmp_path, data, error, fault):
        path = tmp_path / "bad.hg"
        path.write_bytes(data)
        with pytest.raises(error, match=fault):
            read_hg(path)
