"""Round-trip tests for the .hg text format: write_hg matches a per-row
reference writer byte for byte, and read_hg gives the hypergraph back, with
comment and blank lines anywhere."""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peelkit import build_hypergraph, hypergraph, read_hg, write_hg


def reference_hg(h) -> bytes:
    rows = [" ".join(map(str, row)) for row in h.edges.tolist()]
    lines = [f"{h.r} {h.n} {h.m}"] + rows
    return "".join(line + "\n" for line in lines).encode()


def ids_below(n):
    """Ids in [0, n), with every decimal width below n equally likely."""
    top = len(str(n - 1))
    return st.integers(1, top).flatmap(
        lambda w: st.integers(0 if w == 1 else 10 ** (w - 1), min(10**w, n) - 1)
    )


@st.composite
def hypergraphs(draw):
    r = draw(st.integers(2, 6))
    n = draw(st.one_of(st.integers(0, 2 * r), st.integers(0, 2**62)))
    if n <= 2 * r:
        pool = list(itertools.combinations(range(n), r))
        edges = (
            draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
            if pool
            else []
        )
    else:
        row = st.lists(ids_below(n), min_size=r, max_size=r, unique=True)
        edges = draw(st.lists(row, unique_by=frozenset, max_size=12))
    return build_hypergraph(r, n, edges)


# one row per decimal width 1..19, up to n - 1 = 2^62 - 1
EVERY_WIDTH = build_hypergraph(
    2, 2**62, [(10**w - 1, 10**w) for w in range(19)] + [(2**62 - 2, 2**62 - 1)]
)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
@example(EVERY_WIDTH)
@example(build_hypergraph(2, 0, []))
@example(build_hypergraph(6, 10, []))
def test_write_matches_reference_and_read_inverts(tmp_path_factory, h):
    path = tmp_path_factory.getbasetemp() / "prop.hg"
    write_hg(h, path)
    assert path.read_bytes() == reference_hg(h)
    back = read_hg(path)
    assert (back.r, back.n) == (h.r, h.n)
    # ids at int32 below n = 2^31 - 1, at int64 from there on
    width = np.int32 if h.n < 2**31 - 1 else np.int64
    assert back.edges.dtype == width and back.edges.shape == (h.m, h.r)
    assert back.edges.tolist() == h.edges.tolist()


FILLERS = ["\n", "  \t\n", "# comment\n", "#\n", "#1 2 3\n", "   # indented\n"]


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.data())
def test_comments_and_blank_lines_are_skipped(tmp_path_factory, h, data):
    # filler lines before the header and after every line, and sometimes a
    # comment after a line's tokens
    lines = reference_hg(h).decode().splitlines()
    text = []
    for line in [None] + lines:
        if line is not None:
            inline = data.draw(st.sampled_from(["", " # note", "\t#x 1"]))
            text.append(line + inline + "\n")
        text += data.draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    path = tmp_path_factory.getbasetemp() / "commented.hg"
    path.write_text("".join(text))
    back = read_hg(path)
    assert (back.r, back.n) == (h.r, h.n)
    assert back.edges.tolist() == h.edges.tolist()


def test_write_spans_several_blocks(tmp_path):
    # m above the block size and not a multiple of it; ids widen across blocks
    m = 2 * hypergraph._WRITE_BLOCK_ROWS + 7
    ids = np.arange(0, 37 * m, 37, dtype=np.int64)
    h = build_hypergraph(3, 37 * m + 2, np.stack([ids, ids + 1, ids + 2], axis=1))
    path = tmp_path / "big.hg"
    write_hg(h, path)
    assert path.read_bytes() == reference_hg(h)
    assert np.array_equal(read_hg(path).edges, h.edges)
