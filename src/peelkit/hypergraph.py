"""Static r-uniform hypergraphs with array-backed degree queries.

Vertices are dense integer ids 0..n-1.  Edges are stored as an (m, r) int64
array with each row sorted ascending; the row order of the input is preserved,
so reading a file and writing it back is byte-stable.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cc

from .errors import DuplicateEdgeError, EdgeArityError, PeelkitError, VertexRangeError

# Rows per write_hg block; at r = 3 and 7-digit ids its digit arrays take
# about 3 MB, and larger blocks were slower (cache misses).
_WRITE_BLOCK_ROWS = 1 << 14
_DECIMAL = re.compile(r"[+-]?[0-9]+")


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

    `edges` is an (m, r) integer ndarray, taken as it is, or any iterable of
    r-tuples.  Rejects rows of the wrong length, non-integer ids, ids outside
    [0, n), edges with repeated vertices and duplicate edges; each failure
    raises a `PeelkitError` subclass.
    """
    if r < 2:
        raise PeelkitError(f"uniformity r must be >= 2, got {r}")
    if not 0 <= n < 1 << 63:
        raise PeelkitError(f"vertex count n must be in [0, 2^63), got {n}")
    arr = _id_array(edges, r)
    if arr.shape[0] > 0:
        if arr.min() < 0 or arr.max() >= n:
            bad = arr[((arr < 0) | (arr >= n)).any(axis=1)][0]
            raise VertexRangeError(
                f"edge {tuple(bad.tolist())} has vertex outside [0, {n})"
            )
        arr = np.sort(arr, axis=1)
        repeats = (arr[:, 1:] == arr[:, :-1]).any(axis=1)
        if repeats.any():
            bad = arr[repeats.argmax()]
            raise EdgeArityError(f"edge {tuple(bad.tolist())} repeats a vertex")
        first = _first_distinct([arr[:, j] for j in range(r)], n)
        if first is not None and first.size < arr.shape[0]:
            dup = np.ones(arr.shape[0], dtype=bool)
            dup[first] = False
            bad = arr[dup.argmax()]
            raise DuplicateEdgeError(f"duplicate edge {tuple(bad.tolist())}")
    return Hypergraph(r=r, n=n, edges=arr)


def _id_array(edges, r: int) -> np.ndarray:
    """`edges` as an (m, r) int64 array, rejecting ragged or short rows and
    ids that are not integers or do not fit int64."""
    if isinstance(edges, np.ndarray):
        arr = edges
    else:
        try:
            arr = np.asarray(list(edges))
        except ValueError:  # numpy refuses rows of unequal length
            raise EdgeArityError(
                f"edges must be {r}-tuples; rows differ in length"
            ) from None
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, r)
    if arr.ndim != 2 or arr.shape[1] != r:
        raise EdgeArityError(f"edges must be {r}-tuples, got shape {arr.shape}")
    if arr.size == 0:
        return np.empty((0, r), dtype=np.int64)
    # numpy holds ids past int64 as uint64, float64 or objects
    if arr.dtype.kind in "ufO":
        try:
            bad = [v for v in (arr.min(), arr.max()) if not -(1 << 63) <= v < 1 << 63]
        except TypeError:  # objects that do not compare with ints
            bad = []
        if bad:
            raise VertexRangeError(f"vertex id {bad[0]} does not fit int64")
    if arr.dtype.kind not in "iu":
        raise PeelkitError(f"vertex ids must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def _first_distinct(cols: list, n: int):
    """Indices, ascending, of the first occurrence of each distinct row, or
    None when all rows are distinct.

    The key sum_j cols[j] * n^j wraps mod 2^64, so equal rows get equal keys
    but distinct rows may collide.  No equal neighbours among the sorted keys
    proves the rows distinct; otherwise the rows whose key repeats are
    compared exactly.
    """
    key = np.zeros(cols[0].size, dtype=np.uint64)
    for col in reversed(cols):
        key *= np.uint64(n)
        key += col.astype(np.uint64)
    sorted_key = np.sort(key)
    repeated = sorted_key[1:][sorted_key[1:] == sorted_key[:-1]]
    if repeated.size == 0:
        return None
    tied = np.flatnonzero(np.isin(key, repeated))
    rows = np.stack([col[tied] for col in cols], axis=1)
    _, first = np.unique(rows, axis=0, return_index=True)
    keep = np.ones(key.size, dtype=bool)
    keep[tied] = False
    keep[tied[first]] = True
    return np.flatnonzero(keep)


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
    """Write the text .hg format: 'r n m' header then one edge per line, its
    ids in decimal separated by single spaces."""
    with open(path, "wb") as f:
        f.write(f"{h.r} {h.n} {h.m}\n".encode())
        for start in range(0, h.m, _WRITE_BLOCK_ROWS):
            f.write(_decimal_lines(h.edges[start : start + _WRITE_BLOCK_ROWS]))


def _decimal_lines(rows: np.ndarray) -> bytes:
    """ASCII lines for a block of non-negative int64 rows.

    One divide by a power-of-ten vector gives quot[..., j], the id without its
    last width-1-j digits.  Digit j is quot[..., j] - 10 * quot[..., j-1],
    which lies in 0..9 and so is exact in wrapping uint8 arithmetic; it is a
    leading zero exactly when quot[..., j] == 0 (never for the last digit).
    """
    width = len(str(int(rows.max())))
    quot = rows[:, :, None] // 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    q8 = quot.astype(np.uint8)
    text = np.empty(quot.shape[:2] + (width + 1,), dtype=np.uint8)
    np.add(q8, ord("0"), out=text[..., :width])
    text[..., 1:width] -= 10 * q8[..., :-1]
    text[..., width] = ord(" ")
    text[:, -1, width] = ord("\n")
    keep = np.ones(text.shape, dtype=bool)
    np.not_equal(quot[..., :-1], 0, out=keep[..., : width - 1])
    return text[keep].tobytes()


def read_hg(path) -> Hypergraph:
    """Read the text .hg format: an 'r n m' header, then one edge of r
    decimal ids per line.  '#' starts a comment that runs to the end of the
    line; blank lines are skipped.  Errors name the file line at fault."""
    with open(path) as f:
        for lineno, line in enumerate(iter(f.readline, ""), 1):
            header = _line_ints(line, f"{path} line {lineno}")
            if header:
                break
        else:
            raise PeelkitError(f"{path}: empty .hg file")
        if len(header) != 3 or header[0] < 2:
            raise PeelkitError(
                f"{path} line {lineno}: bad .hg header {line.strip()!r}, "
                "expected 'r n m' with r >= 2"
            )
        r, n, m = header
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # numpy < 2 parsed "1.5" as 1 with a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                arr = np.loadtxt(f, dtype=np.int64, comments="#", ndmin=2)
        except (ValueError, DeprecationWarning):
            arr = None
    if arr is None or (arr.size and arr.shape[1] != r):
        raise _bad_edge_line(path, lineno, r)
    if arr.size == 0:
        arr = arr.reshape(0, r)
    if arr.shape[0] != m:
        raise PeelkitError(
            f"{path}: header declares {m} edges, file has {arr.shape[0]}"
        )
    return build_hypergraph(r, n, arr)


def _line_ints(line: str, where: str) -> list[int]:
    """The decimal integers on one .hg line, its comment stripped."""
    tokens = line.split("#", 1)[0].split()
    if not all(_DECIMAL.fullmatch(t) for t in tokens):
        raise PeelkitError(f"{where}: non-integer token in {line.strip()!r}")
    return [int(t) for t in tokens]


def _bad_edge_line(path, header_line: int, r: int) -> PeelkitError:
    """The error for the first edge line that is not r int64 ids.  Only the
    error path re-reads the file line by line."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if lineno <= header_line:
                continue
            where = f"{path} line {lineno}"
            try:
                ids = _line_ints(line, where)
            except PeelkitError as err:
                return err
            if ids and len(ids) != r:
                return EdgeArityError(f"{where}: {len(ids)} ids, expected r = {r}")
            bad = [v for v in ids if not -(1 << 63) <= v < 1 << 63]
            if bad:
                return VertexRangeError(
                    f"{where}: vertex id {bad[0]} does not fit int64"
                )
    return PeelkitError(f"{path}: unreadable edge lines")
