"""Component labelling against a union-find oracle, on arbitrary edge lists
and on the post-peel probe of a sampled supercritical trial."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peelkit import (
    ModelParams,
    compute_threshold_analytic,
    graph_after_rounds,
    parallel_peel,
    run_trial,
    sample_binomial_hypergraph,
)
from peelkit.hypergraph import component_labels


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
@given(edge_lists())
@example((0, np.empty((0, 3), dtype=np.int64)))
@example((7, np.empty((0, 2), dtype=np.int64)))
@example((6, np.array([[5, 4], [0, 5], [3, 2], [2, 1]])))
def test_labels_match_union_find(case):
    n, edges = case
    labels = component_labels(n, edges)
    roots = union_find_roots(n, edges.tolist())
    # same partition, numbered by smallest vertex in increasing order
    assert labels.dtype == np.int64
    assert labels.tolist() == np.unique(roots, return_inverse=True)[1].tolist()


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
