"""Seeded sweeps over n: sample, peel, measure round counts and post-peel
component sizes, write CSV, and fit the round-count growth laws.

Every trial's seed is derived from (master_seed, grid index, trial index), so
rows are reproducible individually and a sweep's output bytes are a pure
function of its config.
"""

from __future__ import annotations

import ctypes
import math
import platform
from dataclasses import dataclass

import numpy as np

from .errors import PeelkitError
from .hypergraph import component_labels, id_dtype
from .models import ModelParams, mix_seed, sample_binomial_hypergraph
from .peeling import graph_after_rounds, parallel_peel

CSV_HEADER = "r,k,c,n,trial,seed,rounds,core_vertices,core_edges,max_component_after_I"
CSV_FOOTER = "#done"
_BLOCK = 1 << 14
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameters in glibc's malloc.h
_MMAP_THRESHOLD = 4 << 20  # above every per-block buffer, below the n-sized arrays
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # glibc's own ratio when it raises them


def _pin_mmap_threshold() -> None:
    """Serve allocations of _MMAP_THRESHOLD bytes or more from their own
    mappings, which free() returns to the system, unless a free chunk of the
    heap already holds them.  Process-wide, and the same on every call.

    glibc raises its mmap threshold to the size of each freed mapping, up to
    32 MiB, and serves smaller allocations from its heap after that.  The heap
    keeps freed memory resident, so once a trial had freed its arrays the
    next trials' arrays went to the heap, and their peak RSS depended on where
    earlier allocations had left holes: a sweep to n = 2^22 peaked at 175 MB
    or at 195-213 MB depending on its seed.  A fixed threshold turns that off.
    It also stops glibc from raising the trim threshold, so that is set too:
    at glibc's default of 128 KiB the heap gave back and refaulted the
    smaller arrays and per-block buffers it still serves, and a sweep ran
    10-15 % slower.  A higher trim threshold is faster still, but the free
    heap it keeps then serves arrays above the mmap threshold again.  Trials
    call this, not the import: a `gen` -> `peel` cycle at n = 2^20, which
    does not repeat trials, ran about 20 % slower with the threshold pinned.
    """
    if platform.libc_ver()[0] == "glibc":
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@dataclass
class SweepConfig:
    r: int
    k: int
    c: float
    n_min: int
    n_max: int
    points: int
    trials: int
    master_seed: int
    i_probe: int = 30
    out: str | None = None

    def __post_init__(self):
        if self.n_min < 10:
            raise PeelkitError(f"n_min must be >= 10, got {self.n_min}")
        if self.points < 3:
            raise PeelkitError(f"points must be >= 3, got {self.points}")
        if self.trials < 1:
            raise PeelkitError(f"trials must be >= 1, got {self.trials}")
        _check_i_probe(self.i_probe)
        for name, n in (("n_min", self.n_min), ("n_max", self.n_max)):
            if n >= 1 << 63:
                raise PeelkitError(f"{name} = {n} is not below 2^63, the bound on n")
        # n_max == n_min is a deliberate one-n sweep; any other range must
        # give `points` increasing n (a reversed one gives only n_min), or the
        # growth fit fails after the sweep.
        grid = self.n_grid()
        if self.n_max != self.n_min and len(grid) < self.points:
            raise PeelkitError(
                f"n grid {grid} from n_min={self.n_min}, n_max={self.n_max}, "
                f"points={self.points} does not have {self.points} distinct "
                f"increasing values"
            )

    def n_grid(self) -> list[int]:
        """The distinct increasing n of a geometric grid from n_min to n_max,
        both ends exact.  Points are rounded as Python ints: past 2^53 a
        float is not n_max, and int64 would wrap at 2^63."""
        inner = np.geomspace(self.n_min, self.n_max, self.points)[1:-1]
        out = [self.n_min]
        for n in [*(min(round(x), self.n_max) for x in inner.tolist()), self.n_max]:
            if n > out[-1]:
                out.append(n)
        return out


@dataclass
class TrialRecord:
    n: int
    trial_index: int
    seed: int
    s: int
    core_vertices: int
    core_edges: int
    max_component_after_I: int


@dataclass
class FitResult:
    model: str  # "loglog" or "log"
    slope: float
    intercept: float
    residual_rms: float
    correlation: float


def run_trial(params: ModelParams, i_probe: int) -> TrialRecord:
    """Sample one instance, peel it, and measure the trace.

    The trace is released before the probe's rows are copied out of the
    graph, and the graph before the probe's component labelling, so only one
    graph-sized working set is alive at a time: the probe's edge rows, which
    the labelling only reads.  The rows are released before the components
    are counted.  A trial pins glibc's mmap threshold for the rest of the
    process (`_pin_mmap_threshold`).
    """
    if params.k is None:
        raise PeelkitError("params.k is required for a trial")
    _check_i_probe(i_probe)
    _pin_mmap_threshold()
    h = sample_binomial_hypergraph(params)
    trace = parallel_peel(h, params.k)
    s = trace.s
    core_vertices = int(np.count_nonzero(trace.vertex_round == 0))
    core_edges = int(np.count_nonzero(trace.edge_round == 0))
    surv_v, surv_e = graph_after_rounds(trace, i_probe)
    probe_vertices = surv_v.size
    del trace, surv_v
    # Copied column by column into a column-major array, whose columns the
    # labelling reads in place; the row ids go to intp one block at a time.
    probe_edges = np.empty((surv_e.size, h.r), dtype=id_dtype(h.n), order="F")
    for start in range(0, surv_e.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = surv_e[block].astype(np.intp)
        for j in range(h.r):
            np.take(h.edges[:, j], rows, out=probe_edges[block, j], mode="clip")
    del h, surv_e
    if probe_vertices == 0:
        max_comp = 0
    else:
        labels = component_labels(params.n, probe_edges)
        del probe_edges
        # A vertex outside the probe has no probe edge, so it is a singleton,
        # and the probe's largest component has at least one vertex.
        max_comp = int(np.bincount(labels).max())
    return TrialRecord(
        n=params.n,
        trial_index=0,
        seed=params.seed,
        s=s,
        core_vertices=core_vertices,
        core_edges=core_edges,
        max_component_after_I=max_comp,
    )


def _check_i_probe(i_probe: int) -> None:
    if i_probe < 0:
        raise PeelkitError(f"i_probe must be >= 0, got {i_probe}")


def trial_seed(master_seed: int, n_index: int, trial_index: int) -> int:
    """Per-trial seed: splitmix64 mix of the master seed and a combined
    (grid-point, trial) index."""
    return mix_seed(master_seed, (n_index << 32) | trial_index)


def sweep(config: SweepConfig) -> list[TrialRecord]:
    """Run the full grid; returns records ordered by (n, trial) and, when
    config.out is set, writes the CSV with header and '#done' footer."""
    records = []
    for n_index, n in enumerate(config.n_grid()):
        for t in range(config.trials):
            seed = trial_seed(config.master_seed, n_index, t)
            params = ModelParams(r=config.r, n=n, c=config.c, seed=seed, k=config.k)
            rec = run_trial(params, config.i_probe)
            rec.trial_index = t
            records.append(rec)
    if config.out is not None:
        write_sweep_csv(records, config, config.out)
    return records


def write_sweep_csv(records: list[TrialRecord], config: SweepConfig, path) -> None:
    # a float's repr reads back exactly; a numpy scalar's is np.float64(...)
    c = repr(float(config.c))
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            f.write(
                f"{config.r},{config.k},{c},{rec.n},{rec.trial_index},"
                f"{rec.seed},{rec.s},{rec.core_vertices},{rec.core_edges},"
                f"{rec.max_component_after_I}\n"
            )
        f.write(CSV_FOOTER + "\n")


def read_sweep_csv(path) -> list[TrialRecord]:
    """Parse a sweep CSV, which holds one sweep.  A missing '#done' footer
    marks a truncated file.  A PeelkitError names the line of a row that is
    not 10 fields with decimal integers from n on, a first row whose r or k is
    not a decimal integer or whose c is not a float, a row whose r,k,c text
    differs from the first row's, and a non-blank line after '#done'."""
    records = []
    done = False
    first = None  # the first row's r,k,c text
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise PeelkitError(f"unexpected CSV header: {header!r}")
        for lineno, line in enumerate(f, 2):
            line = line.strip()
            if not line:
                continue
            if done:
                raise PeelkitError(f"{path} line {lineno}: line after '{CSV_FOOTER}': {line!r}")
            if line == CSV_FOOTER:
                done = True
                continue
            fields = line.split(",")
            # columns n..max_component_after_I, in TrialRecord's field order
            if len(fields) != 10 or not all(v.isdecimal() for v in fields[3:]):
                raise PeelkitError(
                    f"{path} line {lineno}: not 10 fields with integers from n on: {line!r}"
                )
            rkc = ",".join(fields[:3])
            if first is None:
                first = rkc
                if not (fields[0].isdecimal() and fields[1].isdecimal() and _is_float(fields[2])):
                    raise PeelkitError(
                        f"{path} line {lineno}: r and k must be integers and c a float: {line!r}"
                    )
            elif rkc != first:
                raise PeelkitError(
                    f"{path} line {lineno}: r,k,c {rkc!r} differ from the first row's "
                    f"{first!r}; a CSV holds one sweep"
                )
            records.append(TrialRecord(*map(int, fields[3:])))
    if not done:
        raise PeelkitError(f"{path}: missing '#done' footer (truncated sweep?)")
    return records


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _mean_s_by_n(records: list[TrialRecord]):
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.s)
    ns = sorted(by_n)
    means = [float(np.mean(by_n[n])) for n in ns]
    return np.array(ns, dtype=float), np.array(means)


def fit_growth(
    records: list[TrialRecord], model: str, drop_smallest: int = 0
) -> FitResult:
    """Least-squares fit of mean round count against ln ln n ("loglog") or
    ln n ("log"), natural logs.

    drop_smallest removes that many of the smallest n values before fitting
    (used for the supercritical fit, where small-n transients bias the slope).
    """
    if model not in ("loglog", "log"):
        raise PeelkitError(f"unknown growth model {model!r}")
    if drop_smallest < 0:
        raise PeelkitError(f"drop_smallest must be >= 0, got {drop_smallest}")
    ns, means = _mean_s_by_n(records)
    ns, means = ns[drop_smallest:], means[drop_smallest:]
    if ns.size < 3:
        raise PeelkitError(f"need >= 3 distinct n values, have {ns.size}")
    if model == "loglog":
        if ns.min() < 16:
            raise PeelkitError("loglog fit needs all n >= 16 (ln ln n > 0)")
        x = np.log(np.log(ns))
    else:
        x = np.log(ns)
    if np.ptp(x) == 0:
        raise PeelkitError("degenerate design matrix: all x equal")
    slope, intercept = np.polyfit(x, means, 1)
    resid = means - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    if np.std(means) == 0:
        corr = 0.0
    else:
        corr = float(np.corrcoef(x, means)[0, 1])
    return FitResult(
        model=model,
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
        correlation=corr,
    )


def component_growth_check(records: list[TrialRecord], c_const: float):
    """Pass iff at every n, at least 95% of trials have
    max_component_after_I <= c_const * ln n.

    Returns (passed, stats) where stats maps n -> (fraction_ok, max_seen).
    """
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.max_component_after_I)
    stats = {}
    passed = True
    for n in sorted(by_n):
        sizes = by_n[n]
        limit = c_const * math.log(n)
        frac = sum(1 for v in sizes if v <= limit) / len(sizes)
        stats[n] = (frac, max(sizes))
        if frac < 0.95:
            passed = False
    return passed, stats
