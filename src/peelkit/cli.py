"""Command-line entry points: gen, peel, threshold, verify, sweep, fit."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import density, experiments, hypergraph, models, peeling, thresholds
from .errors import PeelkitError


def _cmd_gen(args) -> int:
    params = models.ModelParams(r=args.r, n=args.n, c=args.c, seed=args.seed)
    h = models.sample_binomial_hypergraph(params)
    hypergraph.write_hg(h, args.out)
    print(f"wrote {args.out}: r={h.r} n={h.n} m={h.m}")
    return 0


def _cmd_peel(args) -> int:
    h = hypergraph.read_hg(args.input)
    trace = peeling.parallel_peel(h, args.k)
    print(
        f"s={trace.s} core_vertices={trace.core_vertices.size} "
        f"core_edges={trace.core_edges.size}"
    )
    if args.trace:
        with open(args.trace, "w", newline="") as f:
            f.write(
                "round,removed_vertices,removed_edges,surviving_vertices,"
                "surviving_edges,deg_ge_k\n"
            )
            for i, rec in enumerate(trace.rounds, 1):
                f.write(
                    f"{i},{rec.removed_vertex_count},"
                    f"{rec.removed_edge_count},{rec.surviving_vertex_count},"
                    f"{rec.surviving_edge_count},{rec.surviving_deg_ge_k_count}\n"
                )
    return 0


def _cmd_threshold(args) -> int:
    res = thresholds.threshold_report(
        args.r,
        args.k,
        method=args.method,
        tol=args.tol,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
    )
    print(json.dumps(dataclasses.asdict(res)))
    return 0


def _cmd_verify(args) -> int:
    h = hypergraph.read_hg(args.input)
    trace = peeling.parallel_peel(h, args.k)
    contraction = density.contraction_check(trace, h.r, args.k)

    s = args.s if args.s is not None else min(3, h.n)
    t = args.t if args.t is not None else math.ceil(1.5 * s)
    if args.c is not None:
        c = args.c
    else:
        # Infer the density constant from the realized edge count.
        c = (
            h.m / math.comb(h.n, h.r) * models.density_scale(h.n, h.r)
            if h.n >= h.r
            else 0.0
        )
    exact = density.count_dense_subgraphs(h, s, t, budget=args.budget)
    bound = density.expected_count_bound(h.n, s, t, c, h.r)
    max_size = min(args.max_size, h.n)
    witness, max_avg = density.max_density_subgraph_bruteforce(
        h, max_size, budget=args.budget
    )
    reports = {
        "density": dict(s=s, t=t, exact_count=exact, bound=bound,
                        max_avg_degree=max_avg, witness=witness),
        "contraction": {"ok": contraction.ok, **dataclasses.asdict(contraction)},
    }
    print(json.dumps(reports, default=float))  # float() writes the Fractions
    return 0


def _cmd_sweep(args) -> int:
    config = experiments.SweepConfig(
        r=args.r,
        k=args.k,
        c=args.c,
        n_min=args.n_min,
        n_max=args.n_max,
        points=args.points,
        trials=args.trials,
        master_seed=args.seed,
        i_probe=args.i_probe,
        out=args.out,
    )
    records = experiments.sweep(config)
    print(f"wrote {args.out}: {len(records)} trials over {len(config.n_grid())} n values")
    return 0


def _cmd_fit(args) -> int:
    records = experiments.read_sweep_csv(args.infile)
    res = experiments.fit_growth(records, args.model, drop_smallest=args.drop_smallest)
    print(json.dumps(dataclasses.asdict(res)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="peelkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample H_r(n, c/n^(r-1)) and write a .hg file")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--c", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    pe = sub.add_parser("peel", help="parallel-peel a .hg file to its k-core")
    pe.add_argument("--input", required=True)
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--trace", default=None, help="optional per-round CSV")
    pe.set_defaults(func=_cmd_peel)

    th = sub.add_parser("threshold", help="k-core emergence threshold c_{r,k}")
    th.add_argument("--r", type=int, required=True)
    th.add_argument("--k", type=int, required=True)
    th.add_argument("--method", choices=("analytic", "empirical", "both"), default="analytic")
    th.add_argument("--tol", type=float, default=None, help="default: each search's own")
    th.add_argument("--n", type=int, default=10**5)
    th.add_argument("--trials", type=int, default=9)
    th.add_argument("--seed", type=int, default=0)
    th.set_defaults(func=_cmd_threshold)

    ve = sub.add_parser("verify", help="density and contraction reports for a .hg file")
    ve.add_argument("--input", required=True)
    ve.add_argument("--k", type=int, required=True)
    ve.add_argument("--max-size", type=int, default=6, dest="max_size")
    ve.add_argument("--s", type=int, default=None)
    ve.add_argument("--t", type=int, default=None)
    ve.add_argument("--c", type=float, default=None, help="density constant for the bound (default: inferred)")
    ve.add_argument("--budget", type=int, default=density.DEFAULT_BUDGET)
    ve.set_defaults(func=_cmd_verify)

    sw = sub.add_parser("sweep", help="seeded sweep over an n grid, CSV output")
    sw.add_argument("--r", type=int, required=True)
    sw.add_argument("--k", type=int, required=True)
    sw.add_argument("--c", type=float, required=True)
    sw.add_argument("--n-min", type=int, required=True, dest="n_min")
    sw.add_argument("--n-max", type=int, required=True, dest="n_max")
    sw.add_argument("--points", type=int, required=True)
    sw.add_argument("--trials", type=int, required=True)
    sw.add_argument("--seed", type=int, required=True)
    sw.add_argument("--i-probe", type=int, default=experiments.SweepConfig.i_probe, dest="i_probe")
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=_cmd_sweep)

    fi = sub.add_parser("fit", help="fit a growth law to a sweep CSV")
    fi.add_argument("--in", required=True, dest="infile")
    fi.add_argument("--model", choices=("loglog", "log"), required=True)
    fi.add_argument("--drop-smallest", type=int, default=0, dest="drop_smallest")
    fi.set_defaults(func=_cmd_fit)

    return p


def main(argv=None) -> int:
    """Run one subcommand.  A `PeelkitError` (bad input, a budget overrun)
    or an `OSError` (a missing file or directory) exits with status 2 and
    one argparse-style line on stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PeelkitError, OSError) as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
