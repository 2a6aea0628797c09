"""Seeded sweeps over n: sample, peel, measure round counts and post-peel
component sizes, write CSV, and fit the round-count growth laws.

Every trial's seed is derived from (master_seed, grid index, trial index), so
rows are reproducible individually and a sweep's output bytes are a pure
function of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PeelkitError
from .hypergraph import component_labels
from .models import ModelParams, mix_seed, sample_binomial_hypergraph
from .peeling import graph_after_rounds, parallel_peel

CSV_HEADER = "r,k,c,n,trial,seed,rounds,core_vertices,core_edges,max_component_after_I"
CSV_FOOTER = "#done"


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
        grid = np.geomspace(self.n_min, self.n_max, self.points)
        out = []
        for n in np.rint(grid).astype(np.int64):
            if not out or n > out[-1]:
                out.append(int(n))
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
    rounds_removed_counts: list = field(default_factory=list)


@dataclass
class FitResult:
    model: str  # "loglog" or "log"
    slope: float
    intercept: float
    residual_rms: float
    correlation: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "slope": self.slope,
            "intercept": self.intercept,
            "residual_rms": self.residual_rms,
            "correlation": self.correlation,
        }


def run_trial(params: ModelParams, i_probe: int = 30) -> TrialRecord:
    """Sample one instance, peel it, and measure the trace."""
    if params.k is None:
        raise PeelkitError("params.k is required for a trial")
    h = sample_binomial_hypergraph(params)
    trace = parallel_peel(h, params.k)
    surv_v, surv_e = graph_after_rounds(trace, i_probe)
    if surv_v.size == 0:
        max_comp = 0
    else:
        labels = component_labels(h.n, h.edges[surv_e])
        max_comp = int(np.bincount(labels[surv_v]).max())
    return TrialRecord(
        n=params.n,
        trial_index=0,
        seed=params.seed,
        s=trace.s,
        core_vertices=int(trace.core_vertices.size),
        core_edges=int(trace.core_edges.size),
        max_component_after_I=max_comp,
        rounds_removed_counts=[r.removed_vertex_count for r in trace.rounds],
    )


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
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            f.write(
                f"{config.r},{config.k},{config.c!r},{rec.n},{rec.trial_index},"
                f"{rec.seed},{rec.s},{rec.core_vertices},{rec.core_edges},"
                f"{rec.max_component_after_I}\n"
            )
        f.write(CSV_FOOTER + "\n")


def read_sweep_csv(path) -> list[TrialRecord]:
    """Parse a sweep CSV; a missing '#done' footer marks a truncated file."""
    records = []
    done = False
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise PeelkitError(f"unexpected CSV header: {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line == CSV_FOOTER:
                done = True
                break
            parts = line.split(",")
            records.append(
                TrialRecord(
                    n=int(parts[3]),
                    trial_index=int(parts[4]),
                    seed=int(parts[5]),
                    s=int(parts[6]),
                    core_vertices=int(parts[7]),
                    core_edges=int(parts[8]),
                    max_component_after_I=int(parts[9]),
                )
            )
    if not done:
        raise PeelkitError(f"{path}: missing '#done' footer (truncated sweep?)")
    return records


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
    ns, means = _mean_s_by_n(records)
    if drop_smallest:
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
