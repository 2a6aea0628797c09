"""Round-trip tests for the .hg text format: write_hg matches a per-row
reference writer byte for byte, and read_hg gives the hypergraph back, with
comment and blank lines anywhere."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peelkit import (
    ModelParams,
    PeelkitError,
    build_hypergraph,
    compute_threshold_analytic,
    hypergraph,
    read_hg,
    sample_binomial_hypergraph,
    write_hg,
)


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


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".lzma", ".xz"])
def test_plain_file_named_like_a_compressed_one(tmp_path, suffix):
    # np.loadtxt opens a path with these suffixes through a decompressor
    path = tmp_path / f"plain.hg{suffix}"
    path.write_text("2 3 1\n0 1\n")
    assert read_hg(path).edges.tolist() == [[0, 1]]
    path.write_text("2 3 2\n0 1\n0 x\n")
    with pytest.raises(PeelkitError, match="line 3: non-integer token"):
        read_hg(path)


def test_write_spans_several_blocks(tmp_path):
    # m above the block size and not a multiple of it; ids widen across blocks
    m = 2 * hypergraph._WRITE_BLOCK_ROWS + 7
    ids = np.arange(0, 37 * m, 37, dtype=np.int64)
    h = build_hypergraph(3, 37 * m + 2, np.stack([ids, ids + 1, ids + 2], axis=1))
    path = tmp_path / "big.hg"
    write_hg(h, path)
    assert path.read_bytes() == reference_hg(h)
    assert np.array_equal(read_hg(path).edges, h.edges)


@pytest.mark.parametrize("n", [2**31 - 2, 2**62], ids=["int32", "int64"])
def test_write_mixes_every_width_in_each_block(tmp_path, n):
    # every decimal width from 1 digit to that of n - 1, zeros included, in
    # each of two blocks, the second one partial
    rng = np.random.default_rng(3)
    top = len(str(n - 1))
    count = 3 * hypergraph._WRITE_BLOCK_ROWS // 2
    # ids of width w lie in [low[w], high[w])
    low = np.array([0, 0] + [10 ** (w - 1) for w in range(2, top + 1)], dtype=np.int64)
    high = np.array([0] + [min(10**w, n) for w in range(1, top + 1)], dtype=np.int64)
    width = rng.integers(1, top + 1, size=(count, 3))
    ids = rng.integers(low[width], high[width])
    ids[::5, 0] = 0
    ids.sort(axis=1)
    ids = np.unique(ids[(ids[:, 0] < ids[:, 1]) & (ids[:, 1] < ids[:, 2])], axis=0)
    rng.shuffle(ids)
    h = build_hypergraph(3, n, ids)
    assert h.edges.dtype == hypergraph.id_dtype(n)
    assert h.m > hypergraph._WRITE_BLOCK_ROWS
    for start in (0, hypergraph._WRITE_BLOCK_ROWS):
        block = h.edges[start : start + hypergraph._WRITE_BLOCK_ROWS]
        assert (block == 0).any()
        widths = {len(str(x)) for x in np.unique(block).tolist()}
        assert widths == set(range(1, top + 1))
    path = tmp_path / "widths.hg"
    write_hg(h, path)
    assert path.read_bytes() == reference_hg(h)


def test_write_memory_budget(tmp_path):
    # Peak numpy allocation of write_hg at the size of the hg_roundtrip
    # benchmark (r = 3, n = 2^20, 0.8 c_hat; m = 688,078): digit planes per block take about 1.9 MB, where
    # formatting all (row, id, digit) triples of a block at once took 4.8 MB;
    # formatting the whole edge array at once would take tens of MB.
    c = 0.8 * compute_threshold_analytic(3, 2)[2]
    h = sample_binomial_hypergraph(ModelParams(r=3, n=2**20, c=c, seed=2531))
    tracemalloc.start()
    try:
        write_hg(h, tmp_path / "big.hg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, f"{peak / 1e6:.1f} MB"
