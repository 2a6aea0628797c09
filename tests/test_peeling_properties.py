"""Property tests for parallel peeling on arbitrary small hypergraphs,
including n = 0, k = 1 and edge-less graphs, and on sampled supercritical
graphs.  Only k >= 3 (or m >= 2^30) runs the scan kernel, whose late rounds
scan rows of already removed edges; k <= 2 runs the cell kernel, which is
checked against the scan kernel as a reference."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peelkit import (
    Hypergraph,
    ModelParams,
    build_hypergraph,
    compute_threshold_analytic,
    contraction_check,
    graph_after_rounds,
    hypergraph,
    parallel_peel,
    peeling,
    sample_binomial_hypergraph,
    sequential_kcore,
)


@st.composite
def hypergraphs(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 10))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=30)) if pool else []
    return build_hypergraph(r, n, edges)


def replay(h, k):
    """Round-synchronous peeling from scratch with Python sets: the surviving
    (vertices, edges) before round 1 and after every round that removed a
    vertex."""
    edges = h.edges.tolist()
    alive_v, alive_e = set(range(h.n)), set(range(h.m))
    states = [(sorted(alive_v), sorted(alive_e))]
    while True:
        deg = Counter(v for e in alive_e for v in edges[e])
        gone = {v for v in alive_v if deg[v] < k}
        if not gone:
            return states
        alive_v -= gone
        alive_e = {e for e in alive_e if gone.isdisjoint(edges[e])}
        states.append((sorted(alive_v), sorted(alive_e)))


def deg_ge_k(h, k, state):
    verts, eids = state
    deg = Counter(v for e in h.edges[eids].tolist() for v in e)
    return sum(deg[v] >= k for v in verts)


settings_ = settings(max_examples=300, deadline=None)
k_values = st.integers(1, 4)


@settings_
@given(hypergraphs(), k_values)
@example(build_hypergraph(2, 0, []), 1)
@example(build_hypergraph(3, 5, []), 1)
@example(build_hypergraph(3, 5, []), 2)
# vertex 0 shares two edges with vertex 1, whose degree falls 3 -> 1 as 0 goes
@example(build_hypergraph(3, 6, [(0, 1, 2), (0, 1, 3), (1, 4, 5)]), 3)
def test_parallel_matches_sequential(h, k):
    trace = parallel_peel(h, k)
    core_v, core_e = sequential_kcore(h, k)
    assert trace.core_vertices.tolist() == core_v.tolist()
    assert trace.core_edges.tolist() == core_e.tolist()


@settings_
@given(hypergraphs(), k_values)
@example(build_hypergraph(2, 0, []), 1)
@example(build_hypergraph(2, 4, []), 1)
def test_trace_matches_replay(h, k):
    trace = parallel_peel(h, k)
    states = replay(h, k)
    assert trace.s == len(states) - 1
    if trace.s:
        first = contraction_check(trace, h.r, k).rounds[0]
        assert first["deg_ge_k_count"] == deg_ge_k(h, k, states[0])
    for i in range(trace.s + 3):
        v, e = graph_after_rounds(trace, i)
        assert (v.tolist(), e.tolist()) == states[min(i, trace.s)]
    for rec, before, after in zip(trace.rounds, states, states[1:]):
        assert rec.removed_vertex_count == len(before[0]) - len(after[0])
        assert rec.removed_edge_count == len(before[1]) - len(after[1])
        assert rec.surviving_vertex_count == len(after[0])
        assert rec.surviving_edge_count == len(after[1])
        assert rec.surviving_deg_ge_k_count == deg_ge_k(h, k, after)
    assert sum(r.removed_vertex_count for r in trace.rounds) == h.n - trace.core_vertices.size
    assert sum(r.removed_edge_count for r in trace.rounds) == h.m - trace.core_edges.size
    # an edge goes in the first round that removes one of its vertices
    vround = trace.vertex_round.tolist()
    for e, got in zip(h.edges.tolist(), trace.edge_round.tolist()):
        assert got == min((vround[v] for v in e if vround[v]), default=0)


@settings_
@given(hypergraphs(), k_values)
def test_int64_ids_give_the_same_results(h, k):
    """The int64 path, which only n >= 2^31 - 1 would take, run on small
    graphs: it must agree with the int32 one.  The core ids are at id width
    and are the graph after the last round."""
    narrow = parallel_peel(h, k)
    narrow_after = [graph_after_rounds(narrow, i) for i in range(narrow.s + 2)]
    for v, e in narrow_after:
        assert v.dtype == np.int32 and e.dtype == np.int32
    assert_core_is_last_round(narrow, np.int32)
    labels = hypergraph.component_labels(h.n, h.edges)
    assert labels.dtype == np.int32
    wide = Hypergraph(r=h.r, n=h.n, edges=h.edges.astype(np.int64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "id_dtype", lambda n: np.int64)
        mp.setattr(peeling, "id_dtype", lambda n: np.int64)
        trace = parallel_peel(wide, k)
        assert trace.vertex_round.dtype == np.int64
        assert trace.vertex_round.tolist() == narrow.vertex_round.tolist()
        assert trace.edge_round.tolist() == narrow.edge_round.tolist()
        assert_core_is_last_round(trace, np.int64)
        wide_labels = hypergraph.component_labels(h.n, wide.edges)
        assert wide_labels.dtype == np.int64
        assert wide_labels.tolist() == labels.tolist()
        for i, (v, e) in enumerate(narrow_after):
            wide_v, wide_e = graph_after_rounds(trace, i)
            assert wide_v.dtype == np.int64 and wide_e.dtype == np.int64
            assert wide_v.tolist() == v.tolist() and wide_e.tolist() == e.tolist()


def assert_core_is_last_round(trace, dtype):
    core = (trace.core_vertices, trace.core_edges)
    assert core[0].dtype == dtype and core[1].dtype == dtype
    last = graph_after_rounds(trace, trace.s)
    assert core[0].tolist() == last[0].tolist() and core[1].tolist() == last[1].tolist()


@pytest.mark.parametrize("gather_rows", [None, 999])
@pytest.mark.parametrize("n", [2**12, 2**13, 2**14])
@pytest.mark.parametrize("r,k", [(3, 2), (2, 3), (3, 3)])
def test_supercritical_sample_matches_oracles(r, k, n, gather_rows, monkeypatch):
    if gather_rows:  # many gather blocks, the last one partial
        monkeypatch.setattr(peeling, "_GATHER_ROWS", gather_rows)
    c = 1.25 * compute_threshold_analytic(r, k)[2]
    h = sample_binomial_hypergraph(ModelParams(r=r, n=n, c=c, seed=n + r, k=k))
    before = h.edges.tobytes()
    trace = parallel_peel(h, k)
    assert h.edges.tobytes() == before
    assert trace.core_edges.size > 0
    # For k >= 3 the scan kernel keeps the rows of removed edges in its
    # columns until they are at least as many as the live rows.  Replayed on
    # the trace, that rule must leave some round scanning rows of already
    # removed edges.  (k = 2 runs the cell kernel, which scans no rows.)
    rows, dead, scanned_dead = h.m, 0, []
    for rec in trace.rounds:
        scanned_dead.append(dead > 0)
        dead += rec.removed_edge_count
        if 2 * dead >= rows:
            rows, dead = rows - dead, 0
    assert any(scanned_dead)
    core_v, core_e = sequential_kcore(h, k)
    assert np.array_equal(trace.core_vertices, core_v)
    assert np.array_equal(trace.core_edges, core_e)
    states = replay(h, k)
    assert trace.s == len(states) - 1
    for i in range(trace.s + 2):
        v, e = graph_after_rounds(trace, i)
        assert (v.tolist(), e.tolist()) == states[min(i, trace.s)]
    for rec, after in zip(trace.rounds, states[1:]):
        assert rec.surviving_edge_count == len(after[1])


def test_edges_left_unwritten_in_any_layout():
    # a column of a Fortran-ordered edge array is contiguous already
    h = build_hypergraph(3, 7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 2, 4)])
    h = Hypergraph(r=h.r, n=h.n, edges=np.asfortranarray(h.edges))
    before = h.edges.copy()
    trace = parallel_peel(h, 2)
    assert trace.s > 0 and np.array_equal(h.edges, before)


@settings_
@given(hypergraphs(), k_values, st.integers(1, 8))
def test_row_and_column_major_edges_peel_alike(h, k, gather_rows):
    """The peel reads a column-major h.edges in place and copies a row-major
    one; both give the same trace and neither is written."""
    f_order = Hypergraph(r=h.r, n=h.n, edges=np.asfortranarray(h.edges))
    c_order = Hypergraph(r=h.r, n=h.n, edges=np.ascontiguousarray(h.edges))
    before = h.edges.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peeling, "_GATHER_ROWS", gather_rows)
        traces = [parallel_peel(g, k) for g in (f_order, c_order)]
    for g in (f_order, c_order):
        assert np.array_equal(g.edges, before)
    assert traces[0].vertex_round.tolist() == traces[1].vertex_round.tolist()
    assert traces[0].edge_round.tolist() == traces[1].edge_round.tolist()


def test_peel_memory_above_the_edges():
    # Peak numpy allocation of parallel_peel alone, per edge, on top of
    # h.edges.  Private copies of the r columns with sentinel writes took
    # about 39 B/edge; gathering from h.edges in place took about 20.5, and
    # cells that hold the vertex rounds until the end, with no vertex_round
    # array during the rounds, take about 16.6.
    c = 1.25 * compute_threshold_analytic(3, 2)[2]
    h = sample_binomial_hypergraph(ModelParams(r=3, n=2**18, c=c, seed=17, k=2))
    tracemalloc.start()
    try:
        parallel_peel(h, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / h.m < 18, f"{peak / h.m:.1f} B per edge above h.edges"


def test_scan_peel_memory_above_the_edges():
    # The same budget for the scan kernel, which every k >= 3 peel runs: its
    # degrees, state bytes, live edge ids and the trace took about 33.5
    # B/edge above h.edges; degrees that hold the vertex rounds until the
    # end, with no vertex_round array during the rounds, take about 29.6.
    c = 1.25 * compute_threshold_analytic(3, 2)[2]
    h = sample_binomial_hypergraph(ModelParams(r=3, n=2**18, c=c, seed=17, k=3))
    tracemalloc.start()
    try:
        parallel_peel(h, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / h.m < 32, f"{peak / h.m:.1f} B per edge above h.edges"


@settings_
@given(hypergraphs(), st.integers(1, 2), st.integers(1, 8))
def test_cell_kernel_matches_scan_kernel(h, k, gather_rows):
    """For k <= 2 the cell kernel gives the scan kernel's trace, with the
    cells built over many gather blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peeling, "_GATHER_ROWS", gather_rows)
        cell = parallel_peel(h, k)
        mp.setattr(peeling, "_CELL_EDGES", 0)  # every graph takes the scan kernel
        scan = parallel_peel(h, k)
    assert cell.vertex_round.tolist() == scan.vertex_round.tolist()
    assert cell.edge_round.tolist() == scan.edge_round.tolist()


def test_cell_id_sum_carries_past_2_32():
    # Vertex 0 is in 93,000 edges with two leaves each, then in one edge into
    # the 2-core on vertices 1..4.  Its id sum passes 2^32 and carries into
    # the degree bits; round 1 leaves it with that one last edge.
    hub_edges = 93_000
    core = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    leaves = np.arange(5, 5 + 2 * hub_edges).reshape(hub_edges, 2)
    edges = np.column_stack([np.zeros(hub_edges, dtype=np.int64), leaves])
    edges = np.concatenate([core, edges, [(0, 1, 2)]])
    h = build_hypergraph(3, 5 + 2 * hub_edges, edges)
    assert sum(range(4, h.m)) >= 2**32
    trace = parallel_peel(h, 2)
    assert trace.s == 2 and trace.vertex_round[0] == 2
    core_v, core_e = sequential_kcore(h, 2)
    assert trace.core_vertices.tolist() == core_v.tolist() == [1, 2, 3, 4]
    assert trace.core_edges.tolist() == core_e.tolist() == [0, 1, 2, 3]
    states = replay(h, 2)
    assert trace.s == len(states) - 1
    for i in range(trace.s + 1):
        v, e = graph_after_rounds(trace, i)
        assert (v.tolist(), e.tolist()) == states[i]


def test_kernel_choice(monkeypatch):
    """The cell kernel takes k <= 2 below its edge bound; k >= 3, and m at
    or above the bound, take the scan kernel.  k is clamped to m + 1 first,
    so a graph with m <= 1 takes the cell kernel at any k."""
    calls = []

    def spy(name):
        kernel = getattr(peeling, name)

        def run(*args):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(peeling, name, run)

    spy("_cell_peel")
    spy("_scan_peel")
    h = build_hypergraph(3, 7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 2, 4)])
    for k in (1, 2, 3):
        parallel_peel(h, k)
    assert calls == ["_cell_peel", "_cell_peel", "_scan_peel"]
    calls.clear()
    monkeypatch.setattr(peeling, "_CELL_EDGES", h.m)
    parallel_peel(h, 2)
    monkeypatch.setattr(peeling, "_CELL_EDGES", h.m + 1)
    parallel_peel(h, 2)
    assert calls == ["_scan_peel", "_cell_peel"]
    calls.clear()
    for edges in ([], [(0, 1, 2)]):
        small = build_hypergraph(3, 4, edges)
        for k in (3, 10**30):
            trace = parallel_peel(small, k)
            core_v, core_e = sequential_kcore(small, k)
            assert trace.core_vertices.tolist() == core_v.tolist()
            assert trace.core_edges.tolist() == core_e.tolist()
            assert trace.vertex_round.tolist() == [1, 1, 1, 1]
    assert calls == ["_cell_peel"] * 4
