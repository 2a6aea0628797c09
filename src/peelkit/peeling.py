"""Round-synchronous parallel peeling to the k-core, with a per-vertex round
trace, plus a sequential one-vertex-at-a-time k-core oracle.

Each round simultaneously removes every vertex whose current degree is below
k, together with all incident edges; removals are computed from the state at
round start only.  The round count s counts only rounds that removed at least
one vertex, so a graph that already is a k-core has s = 0.

The trace stores, for every vertex and every edge, the round that removed it
(0 = still there in the k-core); per-round counts are read from those two
arrays.  The graph after any number of rounds is one comparison against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PeelkitError
from .hypergraph import Hypergraph, id_dtype


# Rows per gather block.  numpy copies an int32 index to intp before it
# gathers; a block's copy stays in cache, where a whole column's would be a
# fresh 8-byte-per-row array in every round.  2^14..2^18 rows time the same.
_GATHER_ROWS = 1 << 16

# One degree in a _cell_peel cell; the id sum sits below it.
_DEG_ONE = 1 << 32
# _cell_peel takes m below this, so that deg * 2^32 + id sum < m * 2^32 +
# m^2 stays below 2^63.
_CELL_EDGES = 1 << 30


@dataclass
class RoundRecord:
    removed_vertex_count: int
    removed_edge_count: int
    surviving_vertex_count: int
    surviving_edge_count: int
    surviving_deg_ge_k_count: int


@dataclass
class PeelingTrace:
    vertex_round: np.ndarray  # round that removed each vertex; 0 = in the core
    edge_round: np.ndarray  # round that removed each edge; 0 = in the core

    @property
    def n(self) -> int:
        return self.vertex_round.size

    @property
    def m(self) -> int:
        return self.edge_round.size

    @cached_property
    def s(self) -> int:
        # every round removes at least one vertex
        return int(self.vertex_round.max(initial=0))

    @cached_property
    def rounds(self) -> list[RoundRecord]:
        """Counts of rounds 1..s, in order."""
        removed_v = np.bincount(self.vertex_round, minlength=self.s + 1)[1:]
        removed_e = np.bincount(self.edge_round, minlength=self.s + 1)[1:]
        alive_v = self.n - np.cumsum(removed_v)
        alive_e = self.m - np.cumsum(removed_e)
        # A round removes exactly the alive vertices of degree < k, so the
        # survivors of round i with degree >= k are the survivors of round
        # i + 1; after the last round every survivor has degree >= k.
        deg_ge_k = np.append(alive_v[1:], alive_v[-1:])
        return [
            RoundRecord(*map(int, row))
            for row in zip(removed_v, removed_e, alive_v, alive_e, deg_ge_k)
        ]

    @cached_property
    def core_vertices(self) -> np.ndarray:
        return _ids(self.vertex_round == 0)

    @cached_property
    def core_edges(self) -> np.ndarray:
        return _ids(self.edge_round == 0)


def parallel_peel(h: Hypergraph, k: int) -> PeelingTrace:
    """Peel h to its k-core, recording the round that removes each vertex
    and edge.

    Vertices of degree 0 (including initially isolated ones) are removed like
    any other vertex of degree < k.  Each round costs O(edges it removes) in
    its bookkeeping: only the removed edges' vertices are updated, and the
    next round's vertices are the ones among those that fell below k.  k is
    clamped to m + 1 first.  For k <= 2 a removed vertex has at most one live
    edge, which a per-vertex (degree, edge-id sum) cell names directly, so a
    round costs O(edges it removes) in all (`_cell_peel`).  For k >= 3, or
    m >= 2^30, each round scans the live rows for the ones that touch a
    removed vertex (`_scan_peel`).  The kernels only run the rounds: the
    columns, edge_round and the decoded trace are made here.  Neither kernel
    writes h.edges.
    """
    if k < 1:
        raise PeelkitError(f"k must be >= 1, got {k}")
    # No degree exceeds m, so a k above m + 1 removes what m + 1 does, and
    # m + 1 fits either kernel's degree type.
    k = min(k, h.m + 1)
    # Read only: a copy is made only for a row-major h.edges.
    cols = [np.ascontiguousarray(h.edges[:, j]) for j in range(h.r)]
    # int32 ids halve the memory traffic of every gather and compaction.  The
    # trace's array outlives the kernel's per-vertex array, so it is allocated
    # first: it takes the memory a previous graph left free.
    edge_round = np.zeros(h.m, dtype=id_dtype(max(h.n, h.m)))
    kernel = _cell_peel if k <= 2 and h.m < _CELL_EDGES else _scan_peel
    # minus the round of each removed vertex, a value >= 0 for a core vertex;
    # it is vertex_round itself when it has edge_round's dtype
    parked = kernel(cols, h.n, k, edge_round)
    np.negative(parked, out=parked)
    np.maximum(parked, 0, out=parked)
    return PeelingTrace(parked.astype(edge_round.dtype, copy=False), edge_round)


def _cell_peel(cols: list, n: int, k: int, edge_round: np.ndarray) -> np.ndarray:
    """The rounds of parallel_peel for k <= 2 and m < _CELL_EDGES.

    Each vertex keeps one int64 cell, deg * 2^32 + (sum of its live edge
    ids), as an invertible Bloom lookup table keeps a count and a key sum
    (Goodrich and Mitzenmacher, 2011).  The id sum may carry into the degree
    bits, but deg <= m < 2^30 keeps the cell below 2^63, and a cell in
    [2^32, 2^33) has degree exactly 1 and holds 2^32 plus the id of its one
    live edge.  deg < k is cell < k * 2^32 for k <= 2, since a
    vertex of degree 0 or 1 has an id sum below 2^30.  A removed vertex's
    cell is parked at minus its round, which as uint64 is above every live
    cell, so the cells hold the vertex rounds at the end; they are returned.
    """
    m = edge_round.size
    bound = np.uint64(k * _DEG_ONE)
    cell = np.zeros(n, dtype=np.int64)
    # one block of 2^32 + id at a time, so that no m-long int64 array is made
    for start in range(0, m, _GATHER_ROWS):
        stop = min(start + _GATHER_ROWS, m)
        val = np.arange(start + _DEG_ONE, stop + _DEG_ONE, dtype=np.int64)
        for col in cols:
            np.add.at(cell, col[start:stop], val)
    removable = cell.view(np.uint64)  # the same cells, parked ones above bound

    ids = np.flatnonzero(removable < bound)  # may repeat a vertex after round 1
    i = 0
    while ids.size:
        i += 1
        # The one live edge of each removed vertex of degree 1.  Both ends of
        # an edge may name it, so repeats are dropped after a sort
        # (np.unique costs 50-80x as much).
        hit = cell[ids]
        hit = hit[hit >= _DEG_ONE]
        hit.sort()
        first = np.ones(hit.size, dtype=bool)
        np.not_equal(hit[1:], hit[:-1], out=first[1:])
        eids = hit[first]
        del hit, first
        eids -= _DEG_ONE
        edge_round[eids] = i
        touched = np.empty((len(cols), eids.size), dtype=cols[0].dtype)
        for col, verts in zip(cols, touched):
            np.take(col, eids, out=verts)
        eids += _DEG_ONE  # what each edge added to its vertices' cells
        for verts in touched:
            np.subtract.at(cell, verts, eids)
        # Park removed vertices at -i: all their edges went this round, so no
        # later update reaches their cells.
        cell[ids] = -i
        del ids, eids
        # Only a vertex whose degree just fell can have become removable.  A
        # column at a time keeps the cell gather to 1/r of the touched
        # entries, which kept the subcritical sweep's RSS down.
        ids = np.concatenate([verts[removable[verts] < bound] for verts in touched])
    return cell


def _scan_peel(cols: list, n: int, k: int, edge_round: np.ndarray) -> np.ndarray:
    """The rounds of parallel_peel for k <= m + 1, by scanning the live rows
    each round; returns the degrees, parked as _cell_peel parks its cells.

    The live edges are read as r contiguous index columns, so a round is one
    blocked gather per column to find the edges it removes.  Degrees, at
    edge_round's dtype, are decremented at the removed edges' vertices only,
    and parked at minus the round.  One state byte per vertex marks it
    removed in this round (1) or in an earlier one (2).  OR-ed over a row it
    is exactly 1 for an edge that goes now and has bit 2 set for the row of
    an edge removed earlier, so no column is ever written.  The first rounds
    gather from the given columns (views of h.edges, as its edges are
    column-major); the live rows are copied into private columns, in `cols`
    itself, only once dead rows are at least as many as live ones.
    """
    one = edge_round.dtype.type(1)  # a typed scalar keeps ufunc.at on its fast path
    deg = np.zeros(n, dtype=edge_round.dtype)
    for col in cols:
        np.add.at(deg, col, one)
    removable = deg.view(f"u{deg.itemsize}")  # parked degrees above k
    eids = None  # edge id of each row once compacted; the row itself before
    seen_buf = np.empty(edge_round.size, dtype=np.uint8)
    tmp = np.empty(_GATHER_ROWS, dtype=np.uint8)
    dead = 0  # rows of removed edges still in cols

    state = np.zeros(n, dtype=np.uint8)
    ids = np.flatnonzero(deg < k)  # may repeat a vertex after round 1
    i = 0
    while ids.size:
        i += 1
        state[ids] = 1
        seen = seen_buf[: cols[0].size]  # OR of the states in each row
        for start in range(0, seen.size, _GATHER_ROWS):
            block = slice(start, start + _GATHER_ROWS)
            out = seen[block]
            np.take(state, cols[0][block], out=out)
            for col in cols[1:]:
                np.take(state, col[block], out=tmp[: out.size])
                out |= tmp[: out.size]
        state[ids] = 2
        hit_pos = np.flatnonzero(seen == 1)
        gone = hit_pos.size
        touched = np.concatenate([col[hit_pos] for col in cols])
        if gone:
            edge_round[hit_pos if eids is None else eids[hit_pos]] = i
            np.subtract.at(deg, touched, one)
            dead += gone
            if 2 * dead >= seen.size:
                keep = seen == 0
                for j, col in enumerate(cols):
                    cols[j] = col[keep]
                del col  # frees the last old column now, not next round
                eids = _ids(keep) if eids is None else eids[keep]
                dead = 0
        # Park removed vertices at -i: all their edges went this round, so no
        # later decrement reaches them.
        deg[ids] = -i
        # Only a vertex whose degree just fell can have become removable.
        ids = touched[removable[touched] < k]
    return deg


def sequential_kcore(h: Hypergraph, k: int):
    """k-core by deleting one vertex of degree < k at a time, from a worklist
    seeded with those vertices; deleting one kills its live edges, and a
    neighbour joins exactly when its degree falls to k - 1, the rule by which
    parallel_peel picks a round's vertices.

    Returns (core_vertex_ids, core_edge_ids), both sorted ascending.  Serves
    as an order-independence oracle against parallel_peel.
    """
    if k < 1:
        raise PeelkitError(f"k must be >= 1, got {k}")
    deg = [0] * h.n
    inc = [[] for _ in range(h.n)]
    edges = h.edges.tolist()
    for eid, e in enumerate(edges):
        for v in e:
            deg[v] += 1
            inc[v].append(eid)
    alive_e = [True] * h.m
    work = [v for v in range(h.n) if deg[v] < k]
    while work:
        for eid in inc[work.pop()]:
            if alive_e[eid]:
                alive_e[eid] = False
                for u in edges[eid]:
                    deg[u] -= 1
                    if deg[u] == k - 1:
                        work.append(u)
    # A deleted vertex fell below k and stays there; the others never did.
    core_v = np.flatnonzero(np.array(deg, dtype=np.int64) >= k)
    core_e = np.flatnonzero(np.array(alive_e, dtype=bool))
    return core_v, core_e


def graph_after_rounds(trace: PeelingTrace, i: int):
    """Surviving (vertex_ids, edge_ids) after i peeling rounds; i = 0 returns
    the whole graph, and any i >= s the core.  The ids are ascending, vertex
    ids at id_dtype(n) and edge ids at id_dtype(m)."""
    if i < 0:
        raise PeelkitError(f"round index must be >= 0, got {i}")
    return tuple(
        _ids((rounds == 0) | (rounds > i))
        for rounds in (trace.vertex_round, trace.edge_round)
    )


def _ids(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask) at id_dtype(mask.size), found one gather block at
    a time so that no full-length intp array is made."""
    out = np.empty(np.count_nonzero(mask), dtype=id_dtype(mask.size))
    pos = 0
    for start in range(0, mask.size, _GATHER_ROWS):
        block = np.flatnonzero(mask[start : start + _GATHER_ROWS])
        block += start
        out[pos : pos + block.size] = block
        pos += block.size
    return out
