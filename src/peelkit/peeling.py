"""Round-synchronous parallel peeling to the k-core, with a per-vertex round
trace, plus a sequential one-vertex-at-a-time k-core oracle.

Each round simultaneously removes every vertex whose current degree is below
k, together with all incident edges; removals are computed from the state at
round start only.  The round count s counts only rounds that removed at least
one vertex, so a graph that already is a k-core has s = 0.

The trace stores, for every vertex and every edge, the round that removed it
(0 = still there in the k-core), plus per-round counts.  The graph after any
number of rounds is one comparison against those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PeelkitError
from .hypergraph import Hypergraph


@dataclass
class RoundRecord:
    index: int  # 1-based round number
    removed_vertex_count: int
    removed_edge_count: int
    surviving_vertex_count: int
    surviving_edge_count: int
    surviving_deg_ge_k_count: int


@dataclass
class PeelingTrace:
    k: int
    initial_deg_ge_k: int
    rounds: list
    vertex_round: np.ndarray  # round that removed each vertex; 0 = in the core
    edge_round: np.ndarray  # round that removed each edge; 0 = in the core

    @property
    def n(self) -> int:
        return self.vertex_round.size

    @property
    def m(self) -> int:
        return self.edge_round.size

    @property
    def s(self) -> int:
        return len(self.rounds)

    @cached_property
    def core_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.vertex_round == 0)

    @cached_property
    def core_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_round == 0)


def parallel_peel(h: Hypergraph, k: int) -> PeelingTrace:
    """Peel h to its k-core, recording the round that removes each vertex
    and edge.

    Vertices of degree 0 (including initially isolated ones) are removed like
    any other vertex of degree < k.  The live edges are kept as r contiguous
    index columns, so a round is one gather per column, one bincount of the
    removed edges' vertices and one compaction.
    """
    if k < 1:
        raise PeelkitError(f"k must be >= 1, got {k}")
    n, m = h.n, h.m
    # int32 ids halve the memory traffic of every gather and compaction.
    idx = np.int32 if max(n, m) < np.iinfo(np.int32).max else np.int64
    # No degree exceeds m, so deg < k is the test deg < min(k, m + 1).  The
    # clamped value fits idx and marks removed vertices as never removable.
    k_eff = min(k, m + 1)
    deg = h.degrees().astype(idx)
    cols = [np.ascontiguousarray(h.edges[:, j], dtype=idx) for j in range(h.r)]
    eids = np.arange(m, dtype=idx)
    vertex_round = np.zeros(n, dtype=idx)
    edge_round = np.zeros(m, dtype=idx)

    removable = deg < k_eff
    alive_count, edge_count = n, m
    trace = PeelingTrace(
        k=k,
        initial_deg_ge_k=n - int(np.count_nonzero(removable)),
        rounds=[],
        vertex_round=vertex_round,
        edge_round=edge_round,
    )
    while True:
        ids = np.flatnonzero(removable)
        if ids.size == 0:
            break
        i = trace.s + 1
        vertex_round[ids] = i
        alive_count -= ids.size
        hit = removable[cols[0]]
        for col in cols[1:]:
            hit |= removable[col]
        hit_pos = np.flatnonzero(hit)
        gone = hit_pos.size
        if gone:
            edge_round[eids[hit_pos]] = i
            deg -= np.bincount(
                np.concatenate([col[hit_pos] for col in cols]), minlength=n
            )
            keep = ~hit
            cols = [col[keep] for col in cols]
            eids = eids[keep]
            edge_count -= gone
        # Park removed vertices at k_eff: all their edges went this round, so
        # no later decrement can make them removable again.
        deg[ids] = k_eff
        np.less(deg, k_eff, out=removable)
        trace.rounds.append(
            RoundRecord(
                index=i,
                removed_vertex_count=ids.size,
                removed_edge_count=gone,
                surviving_vertex_count=alive_count,
                surviving_edge_count=edge_count,
                surviving_deg_ge_k_count=alive_count - int(np.count_nonzero(removable)),
            )
        )
    return trace


def sequential_kcore(h: Hypergraph, k: int):
    """k-core by repeatedly deleting one minimum-degree vertex while the
    minimum degree is below k (bucket-queue schedule).

    Returns (core_vertex_ids, core_edge_ids), both sorted ascending.  Serves
    as an order-independence oracle against parallel_peel.
    """
    if k < 1:
        raise PeelkitError(f"k must be >= 1, got {k}")
    n, m = h.n, h.m
    deg = [0] * n
    inc = [[] for _ in range(n)]
    edges = h.edges.tolist()
    for eid, e in enumerate(edges):
        for v in e:
            deg[v] += 1
            inc[v].append(eid)

    maxdeg = max(deg, default=0)
    buckets = [[] for _ in range(maxdeg + 1)]
    for v in range(n):
        buckets[min(deg[v], maxdeg)].append(v)

    alive_v = [True] * n
    alive_e = [True] * m
    removed = 0
    d = 0
    while removed < n:
        # Find the current minimum occupied bucket below k (lazy deletion).
        while d <= maxdeg and not buckets[d]:
            d += 1
        if d > maxdeg:
            break
        v = buckets[d].pop()
        if not alive_v[v] or deg[v] != d:
            continue  # stale entry
        if d >= k:
            break
        alive_v[v] = False
        removed += 1
        for eid in inc[v]:
            if not alive_e[eid]:
                continue
            alive_e[eid] = False
            for u in edges[eid]:
                if u != v and alive_v[u]:
                    deg[u] -= 1
                    buckets[deg[u]].append(u)
                    if deg[u] < d:
                        d = deg[u]
    core_v = np.flatnonzero(np.array(alive_v, dtype=bool))
    core_e = np.flatnonzero(np.array(alive_e, dtype=bool))
    return core_v, core_e


def graph_after_rounds(trace: PeelingTrace, i: int):
    """Surviving (vertex_ids, edge_ids) after min(i, s) peeling rounds;
    i = 0 returns the whole graph."""
    if i < 0:
        raise PeelkitError(f"round index must be >= 0, got {i}")
    i = min(i, trace.s)
    return (
        np.flatnonzero((trace.vertex_round == 0) | (trace.vertex_round > i)),
        np.flatnonzero((trace.edge_round == 0) | (trace.edge_round > i)),
    )
