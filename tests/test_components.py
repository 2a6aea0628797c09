"""Component labelling against a union-find oracle, on arbitrary edge lists,
on deep trees and stars at n = 2^16, and on the post-peel probe of a sampled
supercritical trial."""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peelkit
from peelkit import (
    ModelParams,
    compute_threshold_analytic,
    graph_after_rounds,
    parallel_peel,
    run_trial,
    sample_binomial_hypergraph,
)
from peelkit import hypergraph
from peelkit.hypergraph import component_labels, id_dtype


def union_find_roots(n, rows):
    """Smallest vertex of each vertex's component."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for row in rows:
        for u in row[1:]:
            a, b = find(row[0]), find(u)
            parent[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


@st.composite
def edge_lists(draw):
    """(n, (m, r) array): rows of r distinct vertices in any order, repeats
    allowed, rows in any order (not grouped by their last vertex)."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    if n < r:
        return n, np.empty((0, r), dtype=np.int64)
    row = st.permutations(range(n)).map(lambda p: p[:r])
    rows = draw(st.lists(row, max_size=60))
    rows = draw(st.permutations(rows))
    return n, np.array(rows, dtype=np.int64).reshape(len(rows), r)


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.integers(1, 8))
@example((0, np.empty((0, 3), dtype=np.int64)), 1)
@example((7, np.empty((0, 2), dtype=np.int64)), 1)
@example((6, np.array([[5, 4], [0, 5], [3, 2], [2, 1]])), 1)
# a decreasing chain: each row's larger end was hooked by the row before
@example((6, np.array([[4, 5], [3, 4], [2, 3], [1, 2], [0, 1]])), 1)
# the copy of [1, 2] dies (both ends at root 1); then [0, 3] re-points 2,
# hooked earlier in the pass, to 0, and the first [1, 2] joins 1 next pass
@example((4, np.array([[2, 3], [1, 2], [1, 2], [0, 3]])), 1)
# [0, 3, 6] re-points 2 to 0 after [1, 4, 2] hooked it to 1, so the next pass
# finds that row's roots at 1, 1 and 0: it must stay alive and join them
@example((7, np.array([[2, 3, 5], [1, 4, 2], [0, 3, 6]])), 1)
def test_labels_match_union_find(case, block_rows):
    """Also with blocks of a few rows and vertices, so that rows die across
    blocks and pointers are jumped across blocks.  Row-major and
    column-major rows give the same labels, and neither is written."""
    n, edges = case
    expected = union_find_roots(n, edges.tolist())
    for rows in (np.ascontiguousarray(edges), np.asfortranarray(edges)):
        rows.flags.writeable = False
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergraph, "_LABEL_ROWS", block_rows)
            labels = component_labels(n, rows)
        # each vertex labelled by the smallest vertex of its component
        assert labels.dtype == id_dtype(n)
        assert labels.tolist() == expected


def test_trial_probe_matches_union_find():
    n, i_probe = 2**12, 3
    c = 1.25 * compute_threshold_analytic(3, 2)[2]
    params = ModelParams(r=3, n=n, c=c, seed=11, k=2)
    rec = run_trial(params, i_probe)
    h = sample_binomial_hypergraph(params)
    surv_v, surv_e = graph_after_rounds(parallel_peel(h, 2), i_probe)
    roots = union_find_roots(n, h.edges[surv_e].tolist())
    sizes = np.bincount(np.asarray(roots)[surv_v])
    assert surv_e.size > n // 2  # a giant survivor component exists
    assert rec.max_component_after_I == sizes.max()


@pytest.mark.parametrize("c_factor", [0.8, 1.25])
def test_trial_probe_at_every_round(c_factor):
    """run_trial's row equals a union-find over the probe's edges and the
    trace's core counts, for probes before, at and past the last round."""
    n = 2**12
    c = c_factor * compute_threshold_analytic(3, 2)[2]
    params = ModelParams(r=3, n=n, c=c, seed=12, k=2)
    h = sample_binomial_hypergraph(params)
    trace = parallel_peel(h, 2)
    assert trace.s > 3
    for i_probe in (0, 1, 2, 3, trace.s, 30):
        rec = run_trial(params, i_probe)
        surv_v, surv_e = graph_after_rounds(trace, i_probe)
        assert surv_v.dtype == id_dtype(n) and surv_e.dtype == id_dtype(h.m)
        i = min(i_probe, trace.s)
        vr, er = trace.vertex_round, trace.edge_round
        assert np.array_equal(surv_v, np.flatnonzero((vr == 0) | (vr > i)))
        assert np.array_equal(surv_e, np.flatnonzero((er == 0) | (er > i)))
        roots = union_find_roots(n, h.edges[surv_e].tolist())
        sizes = np.bincount(np.asarray(roots)[surv_v], minlength=1)
        assert rec.max_component_after_I == sizes.max()
        assert rec.s == trace.s
        assert rec.core_vertices == trace.core_vertices.size
        assert rec.core_edges == trace.core_edges.size


BIG = 2**16


def assert_matches_union_find(n, edges):
    labels = component_labels(n, edges)
    assert labels.dtype == id_dtype(n)
    assert labels.tolist() == union_find_roots(n, edges.tolist())


def test_shuffled_path():
    rng = np.random.default_rng(5)
    order = rng.permutation(BIG)
    assert_matches_union_find(BIG, np.stack([order[:-1], order[1:]], axis=1))


def test_ascending_path():
    ids = np.arange(BIG)
    assert_matches_union_find(BIG, np.stack([ids[:-1], ids[1:]], axis=1))


def test_shuffled_random_tree():
    # vertex v > 0 hangs off a uniform earlier vertex, then labels are shuffled
    rng = np.random.default_rng(6)
    child = np.arange(1, BIG)
    parent = (rng.random(BIG - 1) * child).astype(np.int64)
    relabel = rng.permutation(BIG)
    edges = np.stack([relabel[parent], relabel[child]], axis=1)
    assert_matches_union_find(BIG, edges[rng.permutation(BIG - 1)])


def test_star_on_largest_vertex_fast():
    # Hooking each root to any smaller root would take n - 1 passes here;
    # hooking it to its row's smallest end takes two.
    leaves = np.arange(BIG - 1)
    edges = np.stack([leaves, np.full(BIG - 1, BIG - 1)], axis=1)
    t0 = time.perf_counter()
    labels = component_labels(BIG, edges)
    assert time.perf_counter() - t0 < 1.0
    assert not labels.any()
    assert_matches_union_find(BIG, edges)


def test_labelling_memory_per_probe_row():
    # Peak numpy allocation of component_labels alone, per row, on the probe
    # rows of one supercritical trial (n = 2^18, 216,502 rows).  Link arrays,
    # two per row, took about 29.2 B/row, and a kept, relabelled copy of the
    # rows about 20.8.  With the rows only read and one alive flag per row it
    # is about 12: 4.8 for the parent array that is returned as the labels,
    # 1 for the flags, the rest block buffers.
    n = 2**18
    c = 1.25 * compute_threshold_analytic(3, 2)[2]
    h = sample_binomial_hypergraph(ModelParams(r=3, n=n, c=c, seed=17, k=2))
    _, surv_e = graph_after_rounds(parallel_peel(h, 2), 30)
    rows = h.edges[surv_e]
    del h, surv_e
    tracemalloc.start()
    try:
        component_labels(n, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(rows) < 15, f"{peak / len(rows):.1f} B per probe row"


def test_sweep_probe_runs_without_scipy(tmp_path):
    """The sweep labels its supercritical probe with scipy unimportable."""
    out = tmp_path / "sweep.csv"
    c = 1.25 * compute_threshold_analytic(3, 2)[2]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from peelkit import cli\n"
        f"sys.exit(cli.main(['sweep', '--r', '3', '--k', '2', '--c', '{c!r}',"
        " '--n-min', '256', '--n-max', '1024', '--points', '3', '--trials', '2',"
        f" '--seed', '5', '--out', {str(out)!r}]))\n"
    )
    src = str(Path(peelkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rows = out.read_text().splitlines()[1:-1]
    # every trial has a core, which the probe labels
    assert len(rows) == 6
    assert all(int(row.split(",")[-1]) > 0 for row in rows)
