"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two large sweeps (sub- and supercritical, n = 2^12 .. 2^22) are shared
across criteria via module-scoped fixtures.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

import peelkit as pk

pytestmark = pytest.mark.slow

R, K = 3, 2
N_MIN, N_MAX, POINTS, TRIALS = 2**12, 2**22, 11, 20
I_PROBE = 30
MASTER_SEED = 2024


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{desc}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def c_hat():
    _, _, c = pk.compute_threshold_analytic(R, K)
    return c


@pytest.fixture(scope="module")
def small_instances():
    """500 (hypergraph, k, trace) triples spanning r in {2,3,4}, k in {2,3}."""
    combos = [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
    out = []
    rng = np.random.default_rng(7)
    for r, k in combos:
        _, _, c_crit = pk.compute_threshold_analytic(r, k)
        for mult in (0.5, 1.5):
            for _ in range(50):
                n = int(rng.integers(20, 201))
                c = mult * c_crit
                if c / n ** (r - 1) > 1.0:
                    c = float(n ** (r - 1))
                params = pk.ModelParams(
                    r=r, n=n, c=c, seed=int(rng.integers(1 << 63)), k=k
                )
                h = pk.sample_binomial_hypergraph(params)
                out.append((h, k, pk.parallel_peel(h, k)))
    assert len(out) == 500
    return out


@pytest.fixture(scope="module")
def sub_config(tmp_path_factory, c_hat):
    out = tmp_path_factory.mktemp("sweeps") / "subcritical.csv"
    return pk.SweepConfig(
        r=R, k=K, c=0.8 * c_hat, n_min=N_MIN, n_max=N_MAX, points=POINTS,
        trials=TRIALS, master_seed=MASTER_SEED, i_probe=I_PROBE, out=str(out),
    )


@pytest.fixture(scope="module")
def super_config(tmp_path_factory, c_hat):
    out = tmp_path_factory.mktemp("sweeps") / "supercritical.csv"
    return pk.SweepConfig(
        r=R, k=K, c=1.25 * c_hat, n_min=N_MIN, n_max=N_MAX, points=POINTS,
        trials=TRIALS, master_seed=MASTER_SEED, i_probe=I_PROBE, out=str(out),
    )


@pytest.fixture(scope="module")
def sub_records(sub_config):
    return pk.sweep(sub_config)


@pytest.fixture(scope="module")
def super_records(super_config):
    return pk.sweep(super_config)


def _mean_s(records, n):
    vals = [r.s for r in records if r.n == n]
    return float(np.mean(vals))


def test_criterion_1_order_invariance(small_instances):
    t0 = time.time()
    mismatches = 0
    for h, k, trace in small_instances:
        core_v, core_e = pk.sequential_kcore(h, k)
        if (
            core_v.tolist() != trace.core_vertices.tolist()
            or core_e.tolist() != trace.core_edges.tolist()
        ):
            mismatches += 1
    elapsed = time.time() - t0
    _report(
        1,
        "order-invariance of the k-core",
        mismatches == 0 and elapsed < 60,
        f"{mismatches} mismatches over 500 instances, {elapsed:.1f}s",
    )


def test_criterion_2_contraction_invariants(small_instances):
    violations = []
    for h, k, trace in small_instances:
        report = pk.contraction_check(trace, h.r, k)
        violations.extend(report.violations)
    _report(
        2,
        "deterministic contraction invariants",
        not violations,
        f"{len(violations)} violations over 500 traces",
    )


def test_criterion_3_threshold_cross_validation():
    t0 = time.time()
    c23, _ = pk.compute_threshold_empirical(2, 3, n=10**5, trials=9,
                                            tol=0.02, seed=101)
    _, _, c23_analytic = pk.compute_threshold_analytic(2, 3)
    ok23 = abs(c23 - c23_analytic) <= 0.05 * c23_analytic

    c32, _ = pk.compute_threshold_empirical(3, 2, n=10**5, trials=9,
                                            tol=0.02, seed=101)
    x_star, lam, c32_mapped = pk.compute_threshold_analytic(3, 2)
    mapping_ok = abs(c32 - c32_mapped) <= 0.05 * c32_mapped
    if not mapping_ok:
        # refutation branch: the unmapped value must explain the data instead
        assert abs(c32 - lam) <= 0.05 * lam, (
            f"empirical {c32} matches neither {c32_mapped} nor {lam}"
        )
    elapsed = time.time() - t0
    _report(
        3,
        "threshold cross-validation",
        ok23 and mapping_ok and elapsed < 600,
        f"c(2,3)={c23:.4f} vs {c23_analytic:.4f}; c(3,2)={c32:.4f} vs "
        f"{c32_mapped:.4f}, (r-1)! mapping "
        f"{'validated' if mapping_ok else 'REFUTED'}; {elapsed:.1f}s",
    )


def test_criterion_4_subcritical_loglog_growth(sub_records):
    t0 = time.time()
    _, a_star = pk.coefficients(R, K)
    fit_ll = pk.fit_growth(sub_records, "loglog")
    fit_l = pk.fit_growth(sub_records, "log")
    delta = _mean_s(sub_records, N_MAX) - _mean_s(sub_records, N_MIN)
    ok_slope = fit_ll.slope <= a_star + 0.5
    ok_flat = delta <= 4.0
    ok_rms = fit_ll.residual_rms <= fit_l.residual_rms
    elapsed = time.time() - t0
    _report(
        4,
        "subcritical log log growth",
        ok_slope and ok_flat and ok_rms and elapsed < 1800,
        f"(a) loglog slope {fit_ll.slope:.3f} <= {a_star + 0.5:.3f}: "
        f"{'ok' if ok_slope else 'VIOLATED'}; "
        f"(b) delta mean s {delta:.2f} <= 4: {'ok' if ok_flat else 'VIOLATED'}; "
        f"(c) rms loglog {fit_ll.residual_rms:.3f} <= log "
        f"{fit_l.residual_rms:.3f}: {'ok' if ok_rms else 'VIOLATED'}",
    )


def test_criterion_5_supercritical_log_growth(super_records):
    t0 = time.time()
    fit = pk.fit_growth(super_records, "log", drop_smallest=2)
    ratio = _mean_s(super_records, N_MAX) / _mean_s(super_records, N_MIN)
    ok = fit.slope >= 0.2 and fit.correlation >= 0.95 and ratio >= 1.6
    elapsed = time.time() - t0
    _report(
        5,
        "supercritical log growth",
        ok and elapsed < 1800,
        f"log slope {fit.slope:.3f} >= 0.2; corr {fit.correlation:.4f} >= 0.95; "
        f"mean-s ratio {ratio:.2f} >= 1.6",
    )


def test_criterion_6_first_moment_bound():
    t0 = time.time()
    n, r, c, seeds = 30, 2, 1.0, 300
    failures = []
    detail = []
    counts_by_s = {s: [] for s in (3, 4, 5, 6)}
    for seed in range(seeds):
        h = pk.sample_binomial_hypergraph(pk.ModelParams(r=r, n=n, c=c, seed=seed))
        for s in counts_by_s:
            t = math.ceil(1.5 * s)
            counts_by_s[s].append(pk.count_dense_subgraphs(h, s, t))
    for s, counts in counts_by_s.items():
        t = math.ceil(1.5 * s)
        bound = pk.expected_count_bound(n, s, t, c, r)
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1)) / math.sqrt(seeds)
        detail.append(f"s={s}: mean {mean:.4g} vs bound {bound:.4g}")
        if mean > bound + 3 * se:
            failures.append(s)
    elapsed = time.time() - t0
    _report(
        6,
        "first-moment bound at desk scale",
        not failures and elapsed < 600,
        "; ".join(detail) + f"; {elapsed:.1f}s",
    )


def test_criterion_7_component_sizes(sub_records):
    passed, stats = pk.component_growth_check(sub_records, 10.0)
    worst = max(v for _, v in stats.values())
    _report(
        7,
        "post-peel component sizes O(log n)",
        passed,
        f"largest component after {I_PROBE} rounds: {worst}; "
        f"limit at n_max: {10.0 * math.log(N_MAX):.0f}",
    )


def test_criterion_8_determinism(
    sub_config, super_config, sub_records, super_records, tmp_path
):
    ok = True
    details = []
    for config in (sub_config, super_config):
        rerun = pk.SweepConfig(
            r=config.r, k=config.k, c=config.c, n_min=config.n_min,
            n_max=config.n_max, points=config.points, trials=config.trials,
            master_seed=config.master_seed, i_probe=config.i_probe,
            out=str(tmp_path / ("rerun_" + config.out.rsplit("/", 1)[-1])),
        )
        pk.sweep(rerun)
        with open(config.out, "rb") as f1, open(rerun.out, "rb") as f2:
            same = f1.read() == f2.read()
        ok = ok and same
        details.append(f"{config.out.rsplit('/', 1)[-1]}: "
                       f"{'identical' if same else 'DIFFERS'}")
    _report(8, "byte-identical sweep reruns", ok, "; ".join(details))
