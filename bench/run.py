#!/usr/bin/env python3
"""peelkit benchmark: seeded sweeps and .hg round trips, timed end to end
and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run times whole operations through the entry points users
call (experiments.sweep, cli.main) for about S seconds and reports the
end-to-end metrics.  With --trace 1 it runs operation 0 untraced, traced and
untraced again; during the traced pass the functions those entry points call
are wrapped in spans, and the run reports per-layer metrics.  Both modes check
the outputs outside the timed window.  The last stdout line is one JSON
object; the full result, with provenance and spans, goes to bench/out/.
See bench/README.md.
"""

from __future__ import annotations

import os

# One process and no extra threads, so a run measures one core's work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

I_PROBE = 30
TRIALS = 1  # trials per grid point in one sweep operation (3 grid points)
SETUP_REPEATS = 5
WARMUP_N = 2**14
CHECK_N = 2**12  # size of the per-run oracle cross-check instance
SIGMAS = 6.0


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" or "hg"
    r: int
    k: int
    c_factor: float  # c = c_factor * analytic threshold c_{r,k}
    n_min: int  # the cli cycle's n
    n_max: int


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "sweep_sub": Workload("sweep", 3, 2, 0.8, 2**20, 2**22),
    "sweep_super": Workload("sweep", 3, 2, 1.25, 2**20, 2**22),
    "hg_roundtrip": Workload("hg", 3, 2, 0.8, 2**20, 2**20),
}

# Span name -> per-layer time metric.  Spans inside the traced wall whose name
# is not listed here (the sweep loop, run_trial's own code, the run root) are
# glue.
LAYER_OF_SPAN = {
    "models.sample": "models.sample_s",
    "peeling.peel": "peeling.peel_s",
    "peeling.probe": "peeling.probe_s",
    "hypergraph.components": "hypergraph.components_s",
    "hypergraph.write": "hypergraph.write_s",
    "hypergraph.read": "hypergraph.read_s",
    "cli.main": "cli.self_s",
    "cli.gen": "cli.self_s",
    "cli.peel": "cli.self_s",
    "experiments.csv_write": "experiments.csv_write_s",
}

END_TO_END_UNITS = {"wall_s": "s", "edges_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "models.sample_s": "s",
    "models.edges": "count",
    "models.edges_per_s": "1/s",
    "peeling.peel_s": "s",
    "peeling.rounds": "count",
    "peeling.edge_scans": "count",
    "peeling.edge_scans_per_s": "1/s",
    "peeling.probe_s": "s",
    "hypergraph.components_s": "s",
    "hypergraph.component_edges": "count",
    "hypergraph.write_s": "s",
    "hypergraph.read_s": "s",
    "hypergraph.hg_bytes": "B",
    "hypergraph.io_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "experiments.csv_write_s": "s",
    "experiments.glue_s": "s",
    "experiments.traced_wall_s": "s",
    "experiments.trace_overhead_s": "s",
    "density.contraction_s": "s",
    "density.violations": "count",
    "thresholds.analytic_s": "s",
}


class Tracer:
    """In-memory spans: name, start, end, parent index, trial id and counts.
    Also keeps every (h, k, trace) that parallel_peel returned under it, for
    the output checks."""

    def __init__(self):
        self.spans: list[dict] = []
        self.instances: list[tuple] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trial=None):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "name": name,
            "parent": parent,
            "trial": trial if trial is not None or parent is None else self.spans[parent]["trial"],
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


class Checks:
    """Failed output checks and raised operations, each charged to one
    operation (None: the whole run)."""

    def __init__(self):
        self.failures: list[tuple] = []
        self.count = 0

    def expect(self, ok, op, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append((op, what))

    def guard(self, op, what: str, fn, *args):
        """fn(*args), or None with a failure charged to op if it raises."""
        try:
            return fn(*args)
        except Exception as e:  # noqa: BLE001  (any exception is a failed operation)
            self.count += 1
            self.failures.append((op, f"{what} raised {type(e).__name__}: {e}"))
            return None

    def failed_units(self, units: list[int]) -> int:
        """Units (sweep rows, cli cycles) of the operations with a failure;
        units[j] is operation j's."""
        ops = {op for op, _ in self.failures}
        if None in ops:
            return sum(units)
        return sum(units[j] for j in ops)


def derive_seed(*parts) -> int:
    """Input seed for one operation, independent of the program's own seeding."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


def sha256_of(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def import_peelkit():
    """Import peelkit from this checkout's src/."""
    if not (SRC / "peelkit" / "__init__.py").is_file():
        sys.exit(f"bench: peelkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    pk = importlib.import_module("peelkit")
    if Path(pk.__file__).resolve().parent != (SRC / "peelkit").resolve():
        sys.exit(f"bench: imported peelkit from {pk.__file__}, not {SRC}")
    return pk


pk = import_peelkit()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from peelkit import cli, experiments, hypergraph, models, peeling  # noqa: E402


# ---------------------------------------------------------------------------
# The workloads' calls, and the spans around the layers they reach.


def sweep_config(w: Workload, c: float, master_seed: int, out: Path, n_max=None):
    """The workload's sweep; n_max=n_min keeps only the first row, whose seed
    depends only on its grid index."""
    return experiments.SweepConfig(
        r=w.r, k=w.k, c=c, n_min=w.n_min, n_max=w.n_max if n_max is None else n_max,
        points=3, trials=TRIALS, master_seed=master_seed,
        i_probe=I_PROBE, out=str(out),
    )


def cli_argvs(w: Workload, c: float, n: int, seed: int, hg: Path, rounds: Path):
    gen = ["gen", "--r", str(w.r), "--n", str(n), "--c", repr(c),
           "--seed", str(seed), "--out", str(hg)]
    peel = ["peel", "--input", str(hg), "--k", str(w.k), "--trace", str(rounds)]
    return gen, peel


def entry_cli(gen_argv, peel_argv) -> str:
    """The user's gen -> peel cycle through cli.main; returns the peel line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(gen_argv)
        rc = rc or cli.main(peel_argv)
    if rc:
        raise RuntimeError(f"cli exited {rc}")
    return buf.getvalue().splitlines()[-1]


def edge_scans(trace) -> int:
    """Edges alive at the start of each round, summed: the work the kernel's
    per-round edge scan does, computed from the trace's survivor counts."""
    if trace.s == 0 or trace.m == 0:
        return 0
    return trace.m + sum(rec.surviving_edge_count for rec in trace.rounds[:-1])


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Wrap each function experiments.sweep and cli.main call in a span, at
    the module attribute the caller looks it up by, for the block's duration.
    experiments imports its callees by name; cli reaches them through their
    modules and finds _cmd_gen / _cmd_peel when cli.main builds its parser."""

    def peeled(a, trace):
        tr.instances.append((a["h"], a["k"], trace))
        return {"rounds": trace.s, "edge_scans": edge_scans(trace)}

    def sampled(a, h):
        return {"edges": h.m}

    # (module, attribute, span name, trial id from the arguments, counts from
    # the arguments and the result)
    hooks = [
        (experiments, "sweep", "experiments.sweep", None, None),
        (experiments, "run_trial", "experiments.trial", lambda a: a["params"].seed, None),
        (experiments, "sample_binomial_hypergraph", "models.sample", None, sampled),
        (experiments, "parallel_peel", "peeling.peel", None, peeled),
        (experiments, "graph_after_rounds", "peeling.probe", None, None),
        (experiments, "component_labels", "hypergraph.components", None,
         lambda a, _: {"component_edges": len(a["edges"])}),
        (experiments, "write_sweep_csv", "experiments.csv_write", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "_cmd_gen", "cli.gen", None, None),
        (cli, "_cmd_peel", "cli.peel", None, None),
        (models, "sample_binomial_hypergraph", "models.sample", None, sampled),
        (peeling, "parallel_peel", "peeling.peel", None, peeled),
        (hypergraph, "write_hg", "hypergraph.write", None,
         lambda a, _: {"hg_bytes": os.path.getsize(a["path"])}),
        (hypergraph, "read_hg", "hypergraph.read", None,
         lambda a, _: {"hg_bytes": os.path.getsize(a["path"])}),
    ]

    def wrap(fn, name, trial_of, counts_of):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            with tr.span(name, trial_of(a) if trial_of else None) as rec:
                out = fn(*args, **kwargs)
                if counts_of:
                    rec.update(counts_of(a, out))
            return out

        return spanned

    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in hooks]
    try:
        for mod, attr, name, trial_of, counts_of in hooks:
            setattr(mod, attr, wrap(getattr(mod, attr), name, trial_of, counts_of))
        yield tr
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Output checks.


def expected_edges(r: int, n: int, c: float) -> tuple[float, float]:
    """Mean and standard deviation of m ~ Binomial(C(n, r), c/n^(r-1))."""
    total = float(math.comb(n, r))
    p = c / float(n) ** (r - 1)
    return total * p, math.sqrt(total * p * (1.0 - p))


def check_instance(chk: Checks, op, c: float, h, k: int, trace) -> tuple[float, int]:
    """Checks on one sampled-and-peeled instance; returns the seconds that
    contraction_check took and its number of violations."""
    tag = f"r={h.r} n={h.n} m={h.m}"
    mean, sd = expected_edges(h.r, h.n, c)
    chk.expect(abs(h.m - mean) <= SIGMAS * sd, op, f"{tag}: m not within 6 sigma of {mean:.1f}")
    in_core = np.zeros(h.n, dtype=bool)
    in_core[trace.core_vertices] = True
    inside = in_core[h.edges].all(axis=1) if h.m else np.zeros(0, dtype=bool)
    chk.expect(np.array_equal(np.flatnonzero(inside), trace.core_edges), op,
               f"{tag}: core edges are not exactly the edges inside the core")
    core_deg = np.bincount(h.edges[trace.core_edges].ravel(), minlength=h.n)
    chk.expect(bool((core_deg[trace.core_vertices] >= k).all()), op,
               f"{tag}: a core vertex has degree < k inside the core")
    t0 = time.perf_counter()
    report = pk.contraction_check(trace, h.r, k)
    elapsed = time.perf_counter() - t0
    chk.expect(report.ok, op, f"{tag}: contraction violations {report.violations[:3]}")
    return elapsed, len(report.violations)


def union_find_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Component of each vertex as its smallest member (reference oracle)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for row in edges.tolist():
        a = find(row[0])
        for u in row[1:]:
            b = find(u)
            if a != b:
                lo, hi = min(a, b), max(a, b)
                parent[hi] = lo
                a = lo
    return np.array([find(v) for v in range(n)], dtype=np.int64)


def min_member_labels(labels: np.ndarray) -> np.ndarray:
    first = np.full(labels.max() + 1, labels.size, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(labels.size))
    return first[labels]


def check_oracles(chk: Checks, bench: "Bench") -> None:
    """One n = CHECK_N instance drawn from the run's seed, against the
    reference implementations and the .hg round trip."""
    w = bench.w
    params = models.ModelParams(r=w.r, n=CHECK_N, c=bench.c, k=w.k,
                                seed=derive_seed(bench.name, bench.seed, "cross"))
    h = models.sample_binomial_hypergraph(params)
    trace = peeling.parallel_peel(h, w.k)
    check_instance(chk, None, bench.c, h, w.k, trace)
    cv, ce = peeling.sequential_kcore(h, w.k)
    chk.expect(np.array_equal(cv, trace.core_vertices) and np.array_equal(ce, trace.core_edges),
               None, "parallel_peel differs from sequential_kcore")
    sv, se = peeling.graph_after_rounds(trace, trace.s)
    chk.expect(np.array_equal(sv, trace.core_vertices) and np.array_equal(se, trace.core_edges),
               None, "graph_after_rounds(trace, s) is not the core")
    sv, se = peeling.graph_after_rounds(trace, 0)
    chk.expect(sv.size == h.n and se.size == h.m, None, "graph_after_rounds(trace, 0) is not the graph")
    got = min_member_labels(hypergraph.component_labels(h.n, h.edges))
    chk.expect(np.array_equal(got, union_find_labels(h.n, h.edges)), None,
               "component_labels differs from union-find")
    path = bench.tmp / "roundtrip.hg"
    hypergraph.write_hg(h, path)
    chk.expect(np.array_equal(hypergraph.read_hg(path).edges, h.edges), None,
               "read_hg(write_hg(h)) changed the edges")


def same_rows(a: list, b: list) -> bool:
    """Sweep rows (TrialRecords) or cli peel lines (strings) are equal."""
    if len(a) != len(b):
        return False
    if a and isinstance(a[0], str):
        return a == b
    fields = ("n", "trial_index", "seed", "s", "core_vertices", "core_edges", "max_component_after_I")
    return all(getattr(x, f) == getattr(y, f) for x, y in zip(a, b) for f in fields)


def parse_peel_line(line: str) -> dict:
    """'s=.. core_vertices=.. core_edges=..' as a dict of ints."""
    return {key: int(val) for key, val in (item.split("=") for item in line.split())}


# ---------------------------------------------------------------------------
# Runs.


@dataclass
class Op:
    seed: int
    wall_s: float
    rows: list  # TrialRecord per sweep row, or [peel line] for a cli cycle
    digest: str


SETUP_CHILD = """
import contextlib, io, sys
src, kind, r, k, factor, n, seed, i_probe, tmp = sys.argv[1:]
sys.path.insert(0, src)
import peelkit
from peelkit import cli, experiments, models
r, k, n, seed = int(r), int(k), int(n), int(seed)
c = float(factor) * peelkit.compute_threshold_analytic(r, k)[2]
if kind == "sweep":
    experiments.run_trial(models.ModelParams(r=r, n=n, c=c, seed=seed, k=k), int(i_probe))
else:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["gen", "--r", str(r), "--n", str(n), "--c", repr(c), "--seed", str(seed),
                  "--out", tmp + "/setup.hg"])
        cli.main(["peel", "--input", tmp + "/setup.hg", "--k", str(k), "--trace", tmp + "/setup.csv"])
"""


class Bench:
    def __init__(self, name: str, seed: int, tmp: Path):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.c = None

    def setup(self) -> tuple[float, float]:
        """Set up SETUP_REPEATS times in fresh processes: interpreter start,
        import of peelkit, the threshold, and one warm-up trial (a cli cycle
        for hg workloads) at n=WARMUP_N.  Returns the median wall time of
        those, and the median in-process time of the threshold; then warms up
        this process the same way."""
        w = self.w
        walls, analytic = [], []
        for i in range(SETUP_REPEATS):
            argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), w.kind, str(w.r), str(w.k),
                    repr(w.c_factor), str(WARMUP_N), str(derive_seed(self.name, self.seed, "setup", i)),
                    str(I_PROBE), str(self.tmp)]
            t0 = time.perf_counter()
            subprocess.run(argv, check=True, cwd=ROOT)
            walls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            c_hat = pk.compute_threshold_analytic(w.r, w.k)[2]
            analytic.append(time.perf_counter() - t0)
        self.c = w.c_factor * c_hat
        seed = derive_seed(self.name, self.seed, "warmup")
        if w.kind == "sweep":
            experiments.run_trial(models.ModelParams(r=w.r, n=WARMUP_N, c=self.c, seed=seed, k=w.k), I_PROBE)
        else:
            entry_cli(*cli_argvs(w, self.c, WARMUP_N, seed, self.tmp / "warmup.hg", self.tmp / "warmup.csv"))
        return statistics.median(walls), statistics.median(analytic)

    def op_seed(self, j: int) -> int:
        return derive_seed(self.name, self.seed, "op", j)

    def units(self) -> int:
        """Units of one operation: its sweep rows, or one cli cycle."""
        if self.w.kind == "hg":
            return 1
        return len(sweep_config(self.w, 1.0, 0, self.tmp).n_grid()) * TRIALS

    def expected_m(self) -> float:
        if self.w.kind == "hg":
            return expected_edges(self.w.r, self.w.n_min, self.c)[0]
        ns = sweep_config(self.w, self.c, 0, self.tmp).n_grid()
        return sum(expected_edges(self.w.r, n, self.c)[0] for n in ns) * TRIALS

    def paths(self, tag):
        return tuple(self.tmp / f"{tag}{x}" for x in (".csv", ".hg", "-rounds.csv"))

    def run_op(self, seed: int, n_max=None) -> Op:
        """One operation through the user's entry point, timed.  n_max=n_min
        makes a sweep operation its first row only."""
        w = self.w
        csv, hg, rounds = self.paths("op")
        if w.kind == "sweep":
            config = sweep_config(w, self.c, seed, csv, n_max)
            t0 = time.perf_counter()
            rows = experiments.sweep(config)
            wall = time.perf_counter() - t0
            return Op(seed, wall, rows, sha256_of(csv))
        gen, peel = cli_argvs(w, self.c, w.n_min, seed, hg, rounds)
        t0 = time.perf_counter()
        rows = [entry_cli(gen, peel)]
        wall = time.perf_counter() - t0
        return Op(seed, wall, rows, sha256_of(hg, rounds))

    def check_op(self, chk: Checks, j: int, op: Op) -> None:
        """Checks on the output files of operation j, which it then deletes."""
        csv, hg, rounds = self.paths("op")
        if self.w.kind == "sweep":
            back = chk.guard(j, "read_sweep_csv", experiments.read_sweep_csv, csv)
            chk.expect(back is not None and same_rows(back, op.rows), j,
                       "sweep CSV rows differ from the returned records")
        else:
            with open(hg) as f:
                r, n, m = (int(x) for x in f.readline().split())
            mean, sd = expected_edges(r, n, self.c)
            chk.expect((r, n) == (self.w.r, self.w.n_min) and abs(m - mean) <= SIGMAS * sd, j,
                       f".hg header {r} {n} {m} off the model")
            peel = parse_peel_line(op.rows[0])
            lines = rounds.read_text().splitlines()
            last = lines[-1].split(",")
            chk.expect(len(lines) == peel["s"] + 1 and lines[0].startswith("round,")
                       and (peel["s"] == 0 or [int(x) for x in last[3:5]]
                            == [peel["core_vertices"], peel["core_edges"]]), j,
                       f"per-round CSV of {len(lines) - 1} rounds does not end in the core of {op.rows[0]!r}")
        for p in (csv, hg, rounds):
            p.unlink(missing_ok=True)

    def check_instances(self, chk: Checks, j: int, tr: Tracer, seed: int) -> tuple[float, int]:
        """Instance checks on what the traced operation j peeled; for a cli
        cycle, the .hg file read back must be the model's instance for the
        seed.  Returns contraction_check's seconds and violations."""
        chk.expect(len(tr.instances) >= 1, j, "no peeled instance was captured")
        if self.w.kind == "hg" and tr.instances:
            params = models.ModelParams(r=self.w.r, n=self.w.n_min, c=self.c, seed=seed)
            fresh = models.sample_binomial_hypergraph(params)
            chk.expect(np.array_equal(fresh.edges, tr.instances[0][0].edges), j,
                       "the .hg file read back is not the sampled instance")
        found = [check_instance(chk, j, self.c, h, k, trace) for h, k, trace in tr.instances]
        return sum(f[0] for f in found), sum(f[1] for f in found)


def run_timed(bench: Bench, seconds: float, chk: Checks):
    """Operations through the entry points until their times add up to
    `seconds`; then deep checks outside the timed window."""
    ops: list = []  # Op, or None where the operation raised
    spent = 0.0
    while spent < seconds:
        j, seed = len(ops), bench.op_seed(len(ops))
        t0 = time.perf_counter()
        op = chk.guard(j, f"operation {j}", bench.run_op, seed)
        spent += time.perf_counter() - t0
        ops.append(op)
        if op is not None:
            chk.guard(j, "output check", bench.check_op, chk, j, op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Regenerate operation 0 (a sweep: its first row) through the entry point
    # with spans, and check the instances it peeled.
    if ops[0] is not None:
        tr = Tracer()
        with instrument(tr):
            again = chk.guard(0, "regeneration", bench.run_op, ops[0].seed,
                              bench.w.n_min if bench.w.kind == "sweep" else None)
        if again is not None:
            chk.guard(0, "output check", bench.check_op, chk, 0, again)
            chk.expect(same_rows(again.rows, ops[0].rows[:len(again.rows)]), 0,
                       "regenerated rows differ from the timed run's")
            if bench.w.kind == "hg":
                chk.expect(again.digest == ops[0].digest, 0, "regenerated output bytes differ")
            chk.guard(0, "instance checks", bench.check_instances, chk, 0, tr, ops[0].seed)
    chk.guard(None, "oracle checks", check_oracles, chk, bench)

    walls = [o.wall_s for o in ops if o is not None] or [spent]
    metrics = {
        "wall_s": statistics.median(walls),
        "edges_per_s": statistics.median(bench.expected_m() / t for t in walls),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"op_walls_s": walls, "digests": [[o.seed, o.digest] for o in ops if o is not None]}
    return metrics, [bench.units()] * len(ops), detail


def run_traced(bench: Bench, chk: Checks, analytic_s: float):
    """Operation 0 four times: a warm-up at the workload's n, untraced,
    traced, untraced.  Trace overhead is the traced wall time minus the mean
    of the two untraced ones around it."""
    seed = bench.op_seed(0)
    tr = Tracer()
    ops = []
    for j, traced in enumerate((False, False, True, False)):
        if traced:
            with instrument(tr), tr.span("bench.traced", seed):
                op = chk.guard(j, f"pass {j}", bench.run_op, seed)
        else:
            op = chk.guard(j, f"pass {j}", bench.run_op, seed)
        ops.append(op)
        if op is not None:
            chk.guard(j, "output check", bench.check_op, chk, j, op)
    done = [o for o in ops if o is not None]
    chk.expect(all(same_rows(o.rows, done[0].rows) and o.digest == done[0].digest for o in done),
               None, "the passes disagree on rows or output bytes")
    contraction_s, violations = chk.guard(2, "instance checks", bench.check_instances,
                                          chk, 2, tr, seed) or (0.0, 0)
    chk.guard(None, "oracle checks", check_oracles, chk, bench)

    selfs = tr.self_times()
    traced_s = tr.spans[0]["end"] - tr.spans[0]["start"]
    m = {name: 0.0 for name in set(LAYER_OF_SPAN.values())}
    glue = 0.0
    for s, self_s in zip(tr.spans, selfs):
        metric = LAYER_OF_SPAN.get(s["name"])
        if metric is None:
            glue += self_s
        else:
            m[metric] += self_s
    counted = sum(m.values()) + glue
    chk.expect(abs(counted - traced_s) <= 1e-9 * max(1.0, traced_s), None,
               f"layer self times sum to {counted}, traced wall is {traced_s}")

    def total(span_name, key):
        return sum(s.get(key, 0) for s in tr.spans if s["name"] == span_name)

    def ratio(a, b):
        return a / b if b else 0.0

    hg_bytes = total("hypergraph.write", "hg_bytes") + total("hypergraph.read", "hg_bytes")
    io_s = m["hypergraph.write_s"] + m["hypergraph.read_s"]
    untraced = [o.wall_s for o in (ops[1], ops[3]) if o is not None]
    m.update({
        "models.edges": total("models.sample", "edges"),
        "models.edges_per_s": ratio(total("models.sample", "edges"), m["models.sample_s"]),
        "peeling.rounds": total("peeling.peel", "rounds"),
        "peeling.edge_scans": total("peeling.peel", "edge_scans"),
        "peeling.edge_scans_per_s": ratio(total("peeling.peel", "edge_scans"), m["peeling.peel_s"]),
        "hypergraph.component_edges": total("hypergraph.components", "component_edges"),
        "hypergraph.hg_bytes": hg_bytes,
        "hypergraph.io_mb_per_s": ratio(hg_bytes / 1e6, io_s),
        "experiments.glue_s": glue,
        "experiments.traced_wall_s": traced_s,
        "experiments.trace_overhead_s": traced_s - statistics.mean(untraced) if untraced else 0.0,
        "density.contraction_s": contraction_s,
        "density.violations": violations,
        "thresholds.analytic_s": analytic_s,
    })
    t_ref = tr.spans[0]["start"]
    spans = [dict(s, start=s["start"] - t_ref, end=s["end"] - t_ref, self_s=self_s)
             for s, self_s in zip(tr.spans, selfs)]
    detail = {"pass_walls_s": [o and o.wall_s for o in ops],
              "digests": [[seed, o.digest] for o in done], "spans": spans}
    return m, [bench.units()] * len(ops), detail


# ---------------------------------------------------------------------------
# Provenance and output.


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    src = hashlib.sha256()
    for p in sorted((SRC / "peelkit").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        with open("/proc/meminfo") as f:
            mem_kb = int(next(l for l in f if l.startswith("MemTotal")).split()[1])
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except (OSError, StopIteration, ValueError):
        mem_kb, cpu = None, ""
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "mem_total_mb": mem_kb / 1024 if mem_kb else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [Path(sys.executable).name] + sys.argv,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, tmp)
        setup_s, analytic_s = bench.setup()
        chk = Checks()
        if args.trace:
            metrics, units, detail = run_traced(bench, chk, analytic_s)
            names = PER_LAYER_UNITS
        else:
            metrics, units, detail = run_timed(bench, args.seconds, chk)
            metrics["setup_s"] = setup_s
            names = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = sum(units), chk.failed_units(units)
    for op, what in chk.failures:
        print(f"CHECK FAILED (op {op}): {what}", file=sys.stderr)
    result = {
        "correct": not chk.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    record = dict(result, failed_frac=failed / attempted, checks_run=chk.count,
                  failures=[[op, what] for op, what in chk.failures],
                  setup_s=setup_s, c=bench.c, provenance=provenance(args), **detail)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, unit in names.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"{args.workload} failed_frac = {failed}/{attempted}; {chk.count} checks; result in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
