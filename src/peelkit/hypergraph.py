"""Static r-uniform hypergraphs with array-backed degree queries.

Vertices are dense integer ids 0..n-1.  Edges are stored as an (m, r) int64
array with each row sorted ascending; the row order of the input is preserved,
so reading a file and writing it back is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cc

from .errors import DuplicateEdgeError, EdgeArityError, PeelkitError, VertexRangeError


@dataclass(eq=False)
class Hypergraph:
    """Simple r-uniform hypergraph (no multi-edges, no repeated vertices in an edge)."""

    r: int
    n: int
    edges: np.ndarray  # shape (m, r), rows sorted ascending

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array of length n."""
        if self.m == 0:
            return np.zeros(self.n, dtype=np.int64)
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} not in [0, {self.n})")
        return int(self.degrees()[v])


def build_hypergraph(r: int, n: int, edges) -> Hypergraph:
    """Validate and build a simple r-uniform hypergraph.

    Rejects edges with repeated vertices, out-of-range ids, and duplicate
    edges; each failure raises a distinct exception type.
    """
    if r < 2:
        raise PeelkitError(f"uniformity r must be >= 2, got {r}")
    if n < 0:
        raise PeelkitError(f"vertex count n must be >= 0, got {n}")
    arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, r)
    if arr.ndim != 2 or arr.shape[1] != r:
        raise EdgeArityError(f"edges must be {r}-tuples, got shape {arr.shape}")
    if arr.shape[0] > 0:
        if arr.min() < 0 or arr.max() >= n:
            bad = arr[((arr < 0) | (arr >= n)).any(axis=1)][0]
            raise VertexRangeError(f"edge {tuple(bad)} has vertex outside [0, {n})")
        arr = np.sort(arr, axis=1)
        if (arr[:, 1:] == arr[:, :-1]).any():
            bad = arr[(arr[:, 1:] == arr[:, :-1]).any(axis=1)][0]
            raise EdgeArityError(f"edge {tuple(bad)} repeats a vertex")
        order = np.lexsort(arr.T[::-1])
        srt = arr[order]
        dup = (srt[1:] == srt[:-1]).all(axis=1)
        if dup.any():
            bad = srt[1:][dup][0]
            raise DuplicateEdgeError(f"duplicate edge {tuple(bad)}")
    return Hypergraph(r=r, n=n, edges=arr)


def average_degree(h: Hypergraph) -> float:
    """r * |E| / n; defined as 0 for n = 0."""
    if h.n == 0:
        return 0.0
    return h.r * h.m / h.n


def induced_subgraph(h: Hypergraph, subset) -> tuple[Hypergraph, np.ndarray]:
    """Hypergraph induced on `subset`, with vertices relabeled to 0..|S|-1.

    Returns (subgraph, relabel) where relabel[i] is the original id of the
    subgraph's vertex i (ascending).
    """
    subset = np.unique(np.asarray(list(subset), dtype=np.int64))
    if subset.size and (subset[0] < 0 or subset[-1] >= h.n):
        raise VertexRangeError("subset contains ids outside [0, n)")
    keep = np.zeros(h.n, dtype=bool)
    keep[subset] = True
    if h.m:
        inside = keep[h.edges].all(axis=1)
        old_to_new = np.full(h.n, -1, dtype=np.int64)
        old_to_new[subset] = np.arange(subset.size)
        new_edges = old_to_new[h.edges[inside]]
    else:
        new_edges = np.empty((0, h.r), dtype=np.int64)
    sub = Hypergraph(r=h.r, n=int(subset.size), edges=new_edges)
    return sub, subset


def connected_components(h: Hypergraph) -> list[np.ndarray]:
    """Partition of [0, n) into components; vertices are connected iff they
    share a chain of edges.  Isolated vertices form singletons."""
    labels = component_labels(h.n, h.edges)
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[order], return_index=True)
    return [np.sort(b) for b in np.split(order, starts[1:])]


def component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Component label per vertex for the graph linking each edge's vertices."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if edges.shape[0] == 0:
        return np.arange(n, dtype=np.int64)
    # Path-connect the vertices of every edge; enough for connectivity.
    rows = edges[:, :-1].ravel()
    cols = edges[:, 1:].ravel()
    adj = coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
    )
    _, labels = _cc(adj, directed=False)
    return labels.astype(np.int64)


def write_hg(h: Hypergraph, path) -> None:
    """Write the text .hg format: 'r n m' header then one edge per line."""
    with open(path, "w", newline="") as f:
        f.write(f"{h.r} {h.n} {h.m}\n")
        for row in h.edges:
            f.write(" ".join(str(v) for v in row))
            f.write("\n")


def read_hg(path) -> Hypergraph:
    """Read the text .hg format; '#'-prefixed lines are comments."""
    header = None
    edges = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = [int(x) for x in line.split()]
            except ValueError:
                raise PeelkitError(
                    f"{path} line {lineno}: non-integer token in {line!r}"
                ) from None
            if header is None:
                if len(parts) != 3:
                    raise PeelkitError(f"bad .hg header: {line!r}")
                header = parts
            else:
                edges.append(parts)
    if header is None:
        raise PeelkitError("empty .hg file")
    r, n, m = header
    if len(edges) != m:
        raise PeelkitError(f"header declares {m} edges, file has {len(edges)}")
    return build_hypergraph(r, n, edges)
