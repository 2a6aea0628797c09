"""Static r-uniform hypergraphs with array-backed degree queries.

Vertices are dense integer ids 0..n-1.  Edges are stored as an (m, r)
column-major array, so each of the r id columns is contiguous, at the
narrowest id width, `id_dtype(n)`: int32 when n < 2^31 - 1, else int64.
Each row is sorted ascending; the row order of the input is preserved, so
reading a file and writing it back is byte-stable.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateEdgeError, EdgeArityError, PeelkitError, VertexRangeError

# Rows per write_hg block; at r = 3 and 7-digit ids its digit planes and
# their keep masks take 0.8 MB; of 2^12 to 2^16 rows, 2^14 and 2^15 ran
# fastest.
_WRITE_BLOCK_ROWS = 1 << 14
# Rows per _sort_rows block, so that its exchange buffer stays small.
_SORT_ROWS = 1 << 16
# Rows (and vertices) per component_labels block: its gathers, compares and
# index casts stay in cache.
_LABEL_ROWS = 1 << 15
_DECIMAL = re.compile(r"[+-]?[0-9]+")
# Names that np.loadtxt opens through a decompressor.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def id_dtype(n: int) -> type:
    """The id width for vertices 0..n-1: int32 when n < 2^31 - 1, else int64.

    The bound keeps n itself representable.  The same rule with max(n, m)
    sizes the peel's edge ids, degrees and round numbers, so its degree clamp
    m + 1 and its round numbers (at most n) fit the same width.
    """
    return np.int32 if n < np.iinfo(np.int32).max else np.int64


@dataclass(eq=False)
class Hypergraph:
    """Simple r-uniform hypergraph (no multi-edges, no repeated vertices in an edge).

    `edges` has shape (m, r) and dtype `id_dtype(n)`, each row ascending.  It
    is column-major (order="F"), so each id column is a contiguous view that
    the peel gathers from in place.
    """

    r: int
    n: int
    edges: np.ndarray  # (m, r), id_dtype(n), column-major, rows ascending

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array of length n."""
        # a view, not an r * m copy, for column-major edges
        flat = self.edges.ravel(order="K")
        return np.bincount(flat, minlength=self.n).astype(np.int64, copy=False)


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
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        row = ((arr < 0) | (arr >= n)).any(axis=1).argmax()
        raise _row_error(
            VertexRangeError, arr, row, f"edge {{}} has vertex outside [0, {n})"
        )
    # ids are in [0, n) now, so narrowing cannot wrap; the copy is private
    arr = arr.astype(id_dtype(n), order="F")
    _sort_rows([arr[:, j] for j in range(r)])
    if arr.shape[0] > 0:
        repeats = (arr[:, 1:] == arr[:, :-1]).any(axis=1)
        if repeats.any():
            raise _row_error(
                EdgeArityError, arr, repeats.argmax(), "edge {} repeats a vertex"
            )
        first = _first_distinct([arr[:, j] for j in range(r)], n)
        if first is not None and first.size < arr.shape[0]:
            dup = np.ones(arr.shape[0], dtype=bool)
            dup[first] = False
            raise _row_error(DuplicateEdgeError, arr, dup.argmax(), "duplicate edge {}")
    return Hypergraph(r=r, n=n, edges=arr)


def _sort_rows(cols: list) -> None:
    """Sort each row of the equal-length columns `cols` ascending, in place,
    by an odd-even transposition network of column minima and maxima: r
    alternating layers of compare-exchanges sort r entries.  The network runs
    block by block, so its exchange buffer is one block long."""
    r = len(cols)
    lo = np.empty(min(cols[0].size, _SORT_ROWS), dtype=cols[0].dtype)
    for begin in range(0, cols[0].size, _SORT_ROWS):
        block = [col[begin : begin + _SORT_ROWS] for col in cols]
        out = lo[: block[0].size]
        for start in range(r):
            for a in range(start % 2, r - 1, 2):
                np.minimum(block[a], block[a + 1], out=out)
                np.maximum(block[a], block[a + 1], out=block[a + 1])
                block[a][...] = out


def _row_error(cls, arr: np.ndarray, row, template: str) -> PeelkitError:
    """`cls` error for edge row `row`, which it keeps as `err.row` so that
    read_hg can name the file line."""
    err = cls(template.format(tuple(arr[row].tolist())))
    err.row = int(row)
    return err


def _id_array(edges, r: int) -> np.ndarray:
    """`edges` as an (m, r) integer array, not copied if it already is one,
    rejecting ragged or short rows and ids that are not integers or do not
    fit int64."""
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
    return arr


def _first_distinct(cols: list, n: int):
    """Indices, ascending, of the first occurrence of each distinct row, or
    None when all rows are distinct.

    The key sum_j cols[j] * n^j wraps mod 2^64, so equal rows get equal keys
    but distinct rows may collide.  No equal neighbours among the sorted keys
    proves the rows distinct; otherwise the rows whose key repeats are
    compared exactly.
    """
    key = _row_keys(cols, n)
    key.sort()
    repeated = key[1:][key[1:] == key[:-1]]
    if repeated.size == 0:
        return None
    key = _row_keys(cols, n)  # rare: some key repeats, so find its rows
    tied = np.flatnonzero(np.isin(key, repeated))
    rows = np.stack([col[tied] for col in cols], axis=1)
    _, first = np.unique(rows, axis=0, return_index=True)
    keep = np.ones(key.size, dtype=bool)
    keep[tied] = False
    keep[tied[first]] = True
    return np.flatnonzero(keep)


def _row_keys(cols: list, n: int) -> np.ndarray:
    """sum_j cols[j] * n^j mod 2^64 per row, built in one uint64 array with
    no converted copy of a column."""
    key = np.zeros(cols[0].size, dtype=np.uint64)
    for col in reversed(cols):
        key *= np.uint64(n)
        np.add(key, col, out=key, dtype=np.uint64, casting="unsafe")
    return key


def component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Component label per vertex for the graph linking each edge's vertices:
    the smallest vertex of its component, at dtype `id_dtype(n)`.

    This is min-root hooking (Liu and Tarjan, SOSA 2019, after Shiloach and
    Vishkin) on the rows themselves, which are only read.  One flag per row
    marks it alive.  A pass gathers each alive row's roots block by block,
    kills the row if they are all one root and hooks every one of them to
    the row's smallest (`np.minimum.at`); then every pointer jumps to its
    root.  A pointer set in a pass is backed by a row that stays alive, and
    a row is killed only when its ends already point into one tree, so no
    connection is lost.  Pointers only go down, so a component's smallest
    vertex is its root, and the pointers left are the labels.
    """
    parent = np.arange(n, dtype=id_dtype(n))
    cols = [edges[:, j] for j in range(edges.shape[1])]
    alive = np.ones(edges.shape[0], dtype=bool)
    while alive.any():
        _hook(parent, cols, alive)
        _jump(parent)
    return parent


def _hook(parent: np.ndarray, cols: list, alive: np.ndarray) -> None:
    """One hooking pass over the alive rows: kill each row whose ends' roots
    are all equal, and set parent[root] = min(parent[root], smallest root of
    the row) for each root of every other row.

    Every pointer points at a root when the pass starts, and only those roots
    are ever re-pointed, so every gathered value is a root of the pass start.
    """
    size = min(alive.size, _LABEL_ROWS)
    roots = np.empty((len(cols), size), dtype=parent.dtype)
    lows = np.empty(size, dtype=parent.dtype)
    same = np.empty(size, dtype=bool)
    for start in range(0, alive.size, _LABEL_ROWS):
        flags = alive[start : start + _LABEL_ROWS]
        rows = np.flatnonzero(flags)
        if rows.size == 0:
            continue
        block = roots[:, : rows.size]
        for col, out in zip(cols, block):
            np.take(parent, col[start : start + _LABEL_ROWS][rows], out=out)
        one = same[: rows.size]
        one[...] = True
        for out in block[1:]:
            one &= out == block[0]
        flags[rows[one]] = False
        low = lows[: rows.size]
        np.minimum.reduce(block, axis=0, out=low)
        for out in block:
            np.minimum.at(parent, out, low)


def _jump(parent: np.ndarray) -> None:
    """Point every vertex at its root, in place.  Blocks go in increasing
    order, so the vertices before a block (all pointers go down) already
    point at roots, and pointer doubling inside the block soon ends."""
    grand = np.empty(min(parent.size, _LABEL_ROWS), dtype=parent.dtype)
    for start in range(0, parent.size, _LABEL_ROWS):
        block = parent[start : start + _LABEL_ROWS]
        out = grand[: block.size]
        while True:
            np.take(parent, block, out=out)
            if np.array_equal(out, block):
                break
            block[...] = out


def write_hg(h: Hypergraph, path) -> None:
    """Write the text .hg format: 'r n m' header then one edge per line, its
    ids in decimal separated by single spaces."""
    with open(path, "wb") as f:
        f.write(f"{h.r} {h.n} {h.m}\n".encode())
        for start in range(0, h.m, _WRITE_BLOCK_ROWS):
            # a row-major copy: its ravel lists the block's ids in line order
            rows = np.ascontiguousarray(h.edges[start : start + _WRITE_BLOCK_ROWS])
            f.write(_decimal_lines(rows))


def _decimal_lines(rows: np.ndarray) -> bytes:
    """ASCII lines for a block of non-negative integer rows, built one digit
    plane at a time.

    The block's ids, in line order, are the columns of two (width + 1)-row
    arrays: plane j of `text` holds every id's digit j, most significant
    first, and the last plane its separator (' ', or '\n' after a row's last
    id).  quot_j = ids // 10**(width-1-j) divides by one scalar at the ids' own
    dtype, which numpy vectorizes.  Digit j is quot_j - 10 * quot_(j-1), which
    lies in 0..9 and so is exact in wrapping uint8 arithmetic; it is a leading
    zero exactly when quot_j == 0 (never for the last digit).  One compress of
    the transposed planes interleaves them into the lines.
    """
    ids = rows.ravel()
    width = len(str(int(ids.max())))
    text = np.empty((width + 1, ids.size), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    high = np.zeros(ids.size, dtype=np.uint8)  # quot_(j-1) mod 256; 0 for j = 0
    for j, digit in enumerate(text[:width]):
        quot = ids // ids.dtype.type(10 ** (width - 1 - j))
        np.not_equal(quot, 0, out=keep[j])
        low = quot.astype(np.uint8)
        np.subtract(low, 10 * high, out=digit)
        digit += ord("0")
        high = low
    keep[width - 1 :] = True  # the last digit (a lone 0 too) and the separator
    text[width] = ord(" ")
    text[width, rows.shape[1] - 1 :: rows.shape[1]] = ord("\n")
    return text.T[keep.T].tobytes()


def read_hg(path) -> Hypergraph:
    """Read the text .hg format: an 'r n m' header, then one edge of r
    decimal ids per line.  A line ends at '\n', '\r\n' or '\r'; '#' starts a
    comment that runs to the end of the line; blank lines are skipped.
    Errors name the file line at fault."""
    with contextlib.closing(_edge_lines(path, 0)) as lines:
        lineno, line = next(lines, (None, None))
    if line is None:
        raise PeelkitError(f"{path}: empty .hg file")
    header = _line_ints(line, f"{path} line {lineno}")
    if len(header) != 3 or header[0] < 2:
        raise PeelkitError(
            f"{path} line {lineno}: bad .hg header {line.strip()!r}, "
            "expected 'r n m' with r >= 2"
        )
    r, n, m = header
    # numpy reads the edge lines faster from the path than from a handle, but
    # it opens a path by its suffix, so a .gz name would be read as gzip
    if str(path).endswith(_COMPRESSED_SUFFIXES):
        source = open(path, encoding="utf-8")
    else:
        source = contextlib.nullcontext(path)
    try:
        with source as lines, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy < 2 parsed "1.5" as 1 with a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            arr = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2,
                             skiprows=lineno, encoding="utf-8")
    except (ValueError, DeprecationWarning):  # UnicodeDecodeError is one
        arr = None
    if arr is None or (arr.size and arr.shape[1] != r):
        raise _bad_edge_line(path, lineno, r)
    if arr.size == 0:
        arr = arr.reshape(0, r)
    if arr.shape[0] != m:
        raise PeelkitError(
            f"{path}: header declares {m} edges, file has {arr.shape[0]}"
        )
    try:
        return build_hypergraph(r, n, arr)
    except PeelkitError as err:
        # an error with no row is about the header's n
        row = getattr(err, "row", None)
        if row is not None:
            lineno = next(itertools.islice(_edge_lines(path, lineno), row, None))[0]
        raise type(err)(f"{path} line {lineno}: {err}") from None


def _edge_lines(path, header_line: int):
    """(lineno, line) of each edge line after the header; comment-only and
    blank lines hold no edge.  Lines are split as np.loadtxt splits them, at
    '\n', '\r\n' or '\r'; a line that is not UTF-8 raises a PeelkitError
    naming it.  Only the header and the error paths read lines this way."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line.encode()
            except UnicodeEncodeError:  # an escaped byte that is not UTF-8
                raise PeelkitError(f"{path} line {lineno}: not UTF-8") from None
            if lineno > header_line and line.split("#", 1)[0].strip():
                yield lineno, line


def _line_ints(line: str, where: str) -> list[int]:
    """The decimal integers on one .hg line, its comment stripped."""
    tokens = line.split("#", 1)[0].split()
    if not all(_DECIMAL.fullmatch(t) for t in tokens):
        raise PeelkitError(f"{where}: non-integer token in {line.strip()!r}")
    return [int(t) for t in tokens]


def _bad_edge_line(path, header_line: int, r: int) -> PeelkitError:
    """The error for the first edge line that is not r int64 ids."""
    for lineno, line in _edge_lines(path, header_line):
        where = f"{path} line {lineno}"
        try:
            ids = _line_ints(line, where)
        except PeelkitError as err:
            return err
        if len(ids) != r:
            return EdgeArityError(f"{where}: {len(ids)} ids, expected r = {r}")
        bad = [v for v in ids if not -(1 << 63) <= v < 1 << 63]
        if bad:
            return VertexRangeError(f"{where}: vertex id {bad[0]} does not fit int64")
    return PeelkitError(f"{path}: unreadable edge lines")
