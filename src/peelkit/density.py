"""Desk-scale verification tools: exact dense-subgraph counting, the
first-moment bound it is checked against, brute-force maximum-density search,
and the deterministic per-round contraction inequalities of a peeling trace.

"Subgraph with s vertices and at least t edges" means: a vertex subset of
size s inducing at least t edges (induced edge count), which is the densest
reading and matches the choose-vertices-then-choose-edges structure of the
first-moment bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceededError, PeelkitError
from .hypergraph import Hypergraph
from .models import density_scale
from .peeling import PeelingTrace

DEFAULT_BUDGET = 10**8


@dataclass
class ContractionReport:
    violations: list = field(default_factory=list)
    # one dict per round: vertex_count_before, edge_count_before,
    # deg_ge_k_count, rho (a Fraction) and survivor_count_after
    rounds: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def expected_count_bound(n: int, s: int, t: int, c: float, r: int) -> float:
    """First-moment upper bound C(n,s) * C(s^r,t) * p^t with p = c/n^(r-1).

    The pool of possible edges inside s vertices is s^r, as in the bound's
    standard form.  Evaluated in log-space; may exceed 1 (it bounds an
    expectation).
    """
    if not 1 <= s <= n:
        raise PeelkitError(f"need 1 <= s <= n, got s={s}, n={n}")
    if not c >= 0:  # NaN too
        raise PeelkitError(f"c must be >= 0, got {c}")
    if t < 0:
        raise PeelkitError(f"need t >= 0, got {t}")
    p = c / density_scale(n, r)
    if p > 1.0:
        raise PeelkitError(f"p = {p} exceeds 1")
    pool = s**r
    if t > pool:
        return 0.0
    log_bound = _log_comb(n, s) + _log_comb(pool, t)
    if t > 0:
        if p == 0.0:
            return 0.0
        log_bound += t * math.log(p)
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _edges_by_max_vertex(h: Hypergraph):
    """by_max[v] = list of edges (as tuples) whose largest vertex is v, and
    suffix[v] = number of edges whose largest vertex is >= v."""
    by_max = [[] for _ in range(h.n)]
    for row in h.edges.tolist():
        by_max[row[-1]].append(row)
    suffix = [0] * (h.n + 1)
    for v in range(h.n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + len(by_max[v])
    return by_max, suffix


def count_dense_subgraphs(
    h: Hypergraph, s: int, t: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact number of s-vertex subsets inducing at least t edges.

    Enumerates subsets in increasing-vertex DFS order with two exact
    shortcuts: a branch dies once even taking every remaining edge cannot
    reach t, and once t is already met all completions are counted
    combinatorially.
    """
    if not 0 <= s <= h.n:
        raise PeelkitError(f"need 0 <= s <= n, got s={s}, n={h.n}")
    total_subsets = math.comb(h.n, s)
    if total_subsets > budget:
        raise BudgetExceededError(
            f"C({h.n},{s}) = {total_subsets} exceeds budget {budget}",
            required=total_subsets,
        )
    if t <= 0:
        return total_subsets
    by_max, suffix = _edges_by_max_vertex(h)
    chosen = [False] * h.n
    n = h.n

    def rec(start: int, size: int, ecount: int) -> int:
        remaining = s - size
        if remaining == 0:
            return 1 if ecount >= t else 0
        if ecount >= t:
            return math.comb(n - start, remaining)
        total = 0
        for v in range(start, n - remaining + 1):
            if ecount + suffix[v] < t:
                break  # suffix is non-increasing; later v can only do worse
            gained = 0
            for e in by_max[v]:
                if all(chosen[u] for u in e[:-1]):
                    gained += 1
            chosen[v] = True
            total += rec(v + 1, size + 1, ecount + gained)
            chosen[v] = False
        return total

    return rec(0, 0, 0)


def max_density_subgraph_bruteforce(
    h: Hypergraph, max_size: int, budget: int = DEFAULT_BUDGET
):
    """Exact maximizer of r * (induced edges) / |S| over non-empty subsets
    with |S| <= max_size.

    Returns (witness, max_avg_degree) with max_avg_degree an exact Fraction.
    Ties go to the smaller subset, then to the lexicographically first one
    (guaranteed by strict-improvement updates over the enumeration order).
    """
    if not 1 <= max_size <= h.n:
        raise PeelkitError(f"need 1 <= max_size <= n, got {max_size}, n={h.n}")
    total = sum(math.comb(h.n, j) for j in range(1, max_size + 1))
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {total} subsets exceeds budget {budget}", required=total
        )
    by_max, _ = _edges_by_max_vertex(h)
    chosen = [False] * h.n
    best = {"witness": None, "e": 0, "s": 1}
    stack = []

    def rec(start: int, left: int, ecount: int):
        if left == 0:
            # Strict improvement only: with sizes enumerated ascending and
            # subsets in lexicographic order, ties keep the smallest,
            # lexicographically first witness.
            if best["witness"] is None or ecount * best["s"] > best["e"] * len(stack):
                best.update(witness=tuple(stack), e=ecount, s=len(stack))
            return
        for v in range(start, h.n - left + 1):
            gained = 0
            for e in by_max[v]:
                if all(chosen[u] for u in e[:-1]):
                    gained += 1
            chosen[v] = True
            stack.append(v)
            rec(v + 1, left - 1, ecount + gained)
            stack.pop()
            chosen[v] = False

    for size in range(1, max_size + 1):
        rec(0, size, 0)
    return best["witness"], Fraction(h.r * best["e"], best["s"])


def contraction_check(trace: PeelingTrace, r: int, k: int) -> ContractionReport:
    """Per-round deterministic inequalities of the peeling process:
    (i) k * |{deg >= k}| <= r * |E| at the start of every round, and
    (ii) survivors of a round <= vertices of degree >= k at its start.

    Both are theorems of the peeling process, but the trace derives each
    round's deg >= k count from the next round's survivor count, so (ii)
    holds by construction.  Only (i) can flag a trace whose rounds do not
    fit together, such as one with survivors left of degree >= k and no
    edges to hold them.  Violations are collected in the report rather than
    raised.
    """
    report = ContractionReport()
    v_before = trace.n
    e_before = trace.m
    dgk_before = trace.rounds[0].surviving_vertex_count if trace.s else trace.n
    for i, rec in enumerate(trace.rounds, 1):
        rho = Fraction(dgk_before, v_before) if v_before else Fraction(0)
        report.rounds.append(
            dict(vertex_count_before=v_before, edge_count_before=e_before,
                 deg_ge_k_count=dgk_before, rho=rho,
                 survivor_count_after=rec.surviving_vertex_count)
        )
        if k * dgk_before > r * e_before:
            report.violations.append(
                f"round {i}: k*deg_ge_k = {k * dgk_before} > "
                f"r*edges = {r * e_before}"
            )
        if rec.surviving_vertex_count > dgk_before:
            report.violations.append(
                f"round {i}: survivors {rec.surviving_vertex_count} > "
                f"deg_ge_k at start {dgk_before}"
            )
        v_before = rec.surviving_vertex_count
        e_before = rec.surviving_edge_count
        dgk_before = rec.surviving_deg_ge_k_count
    return report
