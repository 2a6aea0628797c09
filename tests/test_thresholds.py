"""Tests for Poisson tails, the threshold objective, and the growth
coefficients."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

from peelkit import (
    BracketError,
    PeelkitError,
    approach_rate,
    coefficients,
    compute_threshold_analytic,
    compute_threshold_empirical,
    poisson_tail,
    predicted_rounds,
    round_recurrence,
    threshold_objective,
    threshold_report,
    thresholds,
)


class TestPoissonTail:
    def test_tail_at_zero_is_one(self):
        assert poisson_tail(0.7, 0) == 1.0
        assert poisson_tail(31.2, 0) == 1.0

    def test_closed_forms(self):
        assert poisson_tail(1.0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-14)
        assert poisson_tail(2.0, 2) == pytest.approx(1 - 3 * math.exp(-2), abs=1e-14)

    def test_against_scipy_sf(self):
        for x in (0.1, 0.9, 3.35, 12.0, 50.0):
            for j in (1, 2, 5, 17, 50):
                assert poisson_tail(x, j) == pytest.approx(
                    stats.poisson.sf(j - 1, x), abs=1e-12
                )

    def test_monotone_in_j_and_x(self):
        xs = [0.3, 1.0, 4.0, 9.0]
        for x in xs:
            tails = [poisson_tail(x, j) for j in range(8)]
            assert tails == sorted(tails, reverse=True)
        for j in (1, 3, 6):
            vals = [poisson_tail(x, j) for x in xs]
            assert vals == sorted(vals)

    def test_pmf_identity(self):
        for x in (0.5, 2.0, 7.3):
            for j in range(6):
                pmf = math.exp(-x) * x**j / math.factorial(j)
                assert poisson_tail(x, j) - poisson_tail(x, j + 1) == pytest.approx(
                    pmf, abs=1e-12
                )

    def test_negative_rate_rejected(self):
        with pytest.raises(PeelkitError):
            poisson_tail(-1.0, 2)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
    def test_rate_not_finite_and_non_negative_rejected(self, x):
        with pytest.raises(PeelkitError, match=f"got {x}$"):
            poisson_tail(x, 2)


class TestObjective:
    def test_value_r2_k2(self):
        assert threshold_objective(1.0, 2, 2) == pytest.approx(
            1 / (1 - math.exp(-1)), abs=1e-12
        )

    def test_r2_k2_infimum_at_zero(self):
        # x/(1 - e^-x) -> 1 as x -> 0: no interior minimum, so (2,2) excluded
        vals = [threshold_objective(x, 2, 2) for x in (1.0, 0.1, 0.01, 0.001)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == pytest.approx(1.0, abs=1e-2)

    def test_matches_grid_minimum(self):
        grid = np.linspace(1e-3, 20, 20000)
        vals = [threshold_objective(float(x), 2, 3) for x in grid]
        gm = min(vals)
        _, lam, _ = compute_threshold_analytic(2, 3)
        assert lam <= gm  # refined minimum can only improve on the grid
        assert abs(lam - gm) < 1e-3

    def test_domain_error(self):
        with pytest.raises(PeelkitError):
            threshold_objective(0.0, 2, 3)
        with pytest.raises(PeelkitError):
            threshold_objective(-2.0, 3, 2)


class TestAnalytic:
    def test_r2_k3(self):
        x_star, lam, c = compute_threshold_analytic(2, 3)
        assert lam == pytest.approx(3.3510, abs=2e-4)
        assert c == pytest.approx(lam)  # (r-1)! = 1

    def test_r3_k2_stationarity(self):
        # the minimizer solves e^x = 1 + 2x
        x_star, lam, c = compute_threshold_analytic(3, 2)
        root = optimize.brentq(lambda x: math.exp(x) - 1 - 2 * x, 0.5, 3.0)
        assert x_star == pytest.approx(root, abs=1e-6)
        assert lam == pytest.approx(
            root / (1 - math.exp(-root)) ** 2, abs=1e-9
        )
        assert lam == pytest.approx(2.4554, abs=2e-4)
        assert c == pytest.approx(2 * lam)

    def test_excluded_pair(self):
        with pytest.raises(PeelkitError):
            compute_threshold_analytic(2, 2)

    def test_golden_vs_grid(self):
        for r, k in [(2, 3), (3, 2), (3, 3), (4, 2)]:
            x_star, lam, _ = compute_threshold_analytic(r, k, tol=1e-8)
            grid = np.logspace(-3, math.log10(50), 1000)
            vals = [threshold_objective(float(x), r, k) for x in grid]
            assert lam <= min(vals) + 1e-7

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_not_positive_rejected(self, tol):
        with pytest.raises(PeelkitError, match="tol must be > 0"):
            compute_threshold_analytic(3, 2, tol=tol)

    def test_tol_not_finite_rejected(self):
        with pytest.raises(PeelkitError, match="^tol must be finite, got inf$"):
            compute_threshold_analytic(3, 2, tol=math.inf)

    def test_c_hat_r3_k2_pinned(self):
        # bench/ and the acceptance sweeps derive their c from this value
        assert compute_threshold_analytic(3, 2)[2] == 4.910814964568256

    @pytest.mark.parametrize(
        "r, k", [(r, k) for r in range(2, 7) for k in range(2, 7) if (r, k) != (2, 2)]
    )
    def test_x_star_is_a_minimum(self, r, k):
        x_star, lam, _ = compute_threshold_analytic(r, k)
        for x in (x_star * (1 - 1e-6), x_star * (1 + 1e-6)):
            assert threshold_objective(x, r, k) > lam

    def test_tol_below_float_spacing_returns(self):
        # the bracket stops shrinking at float spacing, long before 1e-20
        t0 = time.perf_counter()
        x_fine = compute_threshold_analytic(3, 2, tol=1e-20)[0]
        assert time.perf_counter() - t0 < 1.0
        assert x_fine == pytest.approx(compute_threshold_analytic(3, 2, tol=1e-12)[0], abs=1e-9)


class TestRecurrence:
    # sigma* and mu at 1.25 c_hat, from a direct iteration of the recurrence
    TABLE = [
        (3, 2, 0.74240, 0.4025),
        (2, 3, 0.71509, 0.3823),
        (4, 2, 0.86752, 0.3191),
        (3, 3, 0.91309, 0.2500),
    ]

    @pytest.mark.parametrize("r, k, sigma_star, mu", TABLE)
    def test_approach_rate_at_1_25_c_hat(self, r, k, sigma_star, mu):
        c = 1.25 * compute_threshold_analytic(r, k)[2]
        rho, sigma, slope = approach_rate(r, k, c)
        assert round(sigma, 5) == sigma_star
        assert round(slope, 4) == mu
        # the fixed point is where round_recurrence settles
        rhos, sigmas = round_recurrence(r, k, c, 200)
        assert rhos[-1] == pytest.approx(rho, abs=1e-12)
        assert sigmas[-1] == pytest.approx(sigma, abs=1e-12)
        x = c / math.factorial(r - 1) * rho ** (r - 1)
        assert rho == pytest.approx(poisson_tail(x, k - 1), abs=1e-12)

    @pytest.mark.parametrize("r, k", [(r, k) for r, k, _, _ in TABLE])
    def test_sigma_falls_to_zero_below_c_hat(self, r, k):
        c = 0.8 * compute_threshold_analytic(r, k)[2]
        rho, sigma = round_recurrence(r, k, c, 40)
        assert rho.shape == sigma.shape == (41,)
        assert rho[0] == sigma[0] == 1.0
        assert (sigma <= rho).all()
        live = sigma[sigma > 0]
        assert (np.diff(live) < 0).all()
        assert sigma[-1] == 0.0

    @pytest.mark.parametrize("share", [0.5, 0.8])
    @pytest.mark.parametrize("r, k", [(r, k) for r, k, _, _ in TABLE])
    def test_log_sigma_ratio_tends_to_the_branching_factor(self, r, k, share):
        # Below c_hat, ln sigma_(i+1) / ln sigma_i -> (r-1)(k-1): the doubly
        # exponential fall behind the ln ln n / ln((r-1)(k-1)) law, not the
        # k(r-1)/r of the a* law.  Over the last three ratios before sigma
        # drops below float64 tiny, the gap shrinks at every step and ends
        # within 2 %; its last values run from 1.997 at (3, 2), 0.5 c_hat to
        # 3.933 at (3, 3), 0.8 c_hat.
        c = share * compute_threshold_analytic(r, k)[2]
        sigma = round_recurrence(r, k, c, 64)[1][1:]
        logs = np.log(sigma[sigma >= np.finfo(np.float64).tiny])
        assert 4 <= logs.size < sigma.size
        gap = np.abs(logs[1:] / logs[:-1] - (r - 1) * (k - 1))[-3:]
        assert (np.diff(gap) < 0).all()
        assert gap[-1] <= 0.02 * (r - 1) * (k - 1)

    def test_first_round_keeps_degree_k(self):
        # after round 1 the vertices of Po(lam) degree >= k survive
        rho, sigma = round_recurrence(3, 2, 6.0, 1)
        assert sigma[1] == pytest.approx(1 - math.exp(-3.0) * 4.0)
        assert rho[1] == pytest.approx(1 - math.exp(-3.0))

    def test_no_core_at_or_below_c_hat_rejected(self):
        c_hat = compute_threshold_analytic(3, 2)[2]
        for c in (c_hat, 0.5 * c_hat, math.nan):
            with pytest.raises(PeelkitError, match="not above c_hat"):
                approach_rate(3, 2, c)

    def test_bad_arguments_rejected(self):
        for args in ((1, 2, 1.0, 3), (3, 1, 1.0, 3), (3, 2, -1.0, 3), (3, 2, 1.0, -1)):
            with pytest.raises(PeelkitError):
                round_recurrence(*args)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_recurrence_c_not_finite_and_non_negative_rejected(self, c):
        with pytest.raises(PeelkitError, match=f"c={c} "):
            round_recurrence(3, 2, c, 3)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_approach_rate_c_not_finite_and_above_c_hat_rejected(self, c):
        with pytest.raises(PeelkitError, match=f"c = {c} is not above c_hat"):
            approach_rate(3, 2, c)


class TestPredictedRounds:
    # P(s > 10) at (3, 2), 0.8 c_hat: 1 - exp(-n * sigma_10) from
    # round_recurrence, at n = 2^14 and 2^16..2^20
    P10 = [(14, 0.038), (16, 0.142), (17, 0.264), (18, 0.458), (19, 0.706), (20, 0.914)]

    @pytest.mark.parametrize("log2_n, p10", P10)
    def test_tail_at_round_10(self, log2_n, p10):
        c = 0.8 * compute_threshold_analytic(3, 2)[2]
        mean, tail = predicted_rounds(3, 2, c, 2**log2_n)
        assert round(tail[10], 3) == p10
        assert (np.diff(tail) <= 0).all() and tail[-1] > 0
        assert mean == pytest.approx(tail.sum(), abs=1e-12)

    def test_mean_is_the_sum_of_the_recurrence_terms(self):
        c = 0.8 * compute_threshold_analytic(3, 2)[2]
        n = 2**20
        mean, tail = predicted_rounds(3, 2, c, n)
        assert round(mean, 3) == 10.914
        sigma = round_recurrence(3, 2, c, tail.size + 5)[1]
        terms = [-math.expm1(-n * x) for x in sigma]
        assert tail.tolist() == pytest.approx(terms[: tail.size], rel=1e-12, abs=0)
        # the first term left out no longer moves the sum
        assert mean + terms[tail.size] == mean

    def test_no_edges_takes_one_round(self):
        mean, tail = predicted_rounds(3, 2, 0.0, 2**20)
        assert mean == 1.0 and tail.tolist() == [1.0]

    def test_at_or_above_c_hat_rejected(self):
        c_hat = compute_threshold_analytic(3, 2)[2]
        for c in (c_hat, 1.25 * c_hat, math.nan):
            with pytest.raises(PeelkitError, match="not below c_hat"):
                predicted_rounds(3, 2, c, 2**20)

    def test_n_outside_float_range_rejected(self):
        for n in (-1, 2**1024, math.nan):
            with pytest.raises(PeelkitError, match="n must be in"):
                predicted_rounds(3, 2, 1.0, n)


class TestCoefficients:
    def test_r3_k2(self):
        a, a_star = coefficients(3, 2)
        assert a == pytest.approx(1 / math.log(2))
        assert a_star == pytest.approx(1 / math.log(4 / 3))

    def test_r2_k3(self):
        a, a_star = coefficients(2, 3)
        assert a == pytest.approx(1 / math.log(2))
        assert a_star == pytest.approx(1 / math.log(3 / 2))

    def test_excluded_pair(self):
        with pytest.raises(PeelkitError):
            coefficients(2, 2)

    def test_a_le_a_star_grid(self):
        for r in range(2, 11):
            for k in range(2, 11):
                if (r, k) == (2, 2):
                    continue
                a, a_star = coefficients(r, k)
                assert a > 0 and a_star > 0
                assert a <= a_star + 1e-12


class TestEmpirical:
    def test_bad_bracket(self, monkeypatch):
        # both ends of [0.25, 8 * (r-1)! * k] on one side cannot separate phases
        for above, end in ((True, "lower"), (False, "upper")):
            monkeypatch.setattr(thresholds, "_is_supercritical", lambda *a: above)
            with pytest.raises(BracketError, match=f"^{end} bracket"):
                compute_threshold_empirical(2, 3, n=2000, trials=3, tol=0.2, seed=1)

    def test_no_trials_rejected(self):
        with pytest.raises(PeelkitError, match="trials must be >= 1, got 0"):
            compute_threshold_empirical(2, 3, n=2000, trials=0)

    @pytest.mark.parametrize("tol", [0.0, -0.1, math.nan])
    def test_tol_not_positive_rejected(self, tol):
        with pytest.raises(PeelkitError, match="tol must be > 0"):
            compute_threshold_empirical(2, 3, n=2000, trials=3, tol=tol)

    def test_tol_not_finite_rejected(self):
        with pytest.raises(PeelkitError, match="^tol must be finite, got inf$"):
            compute_threshold_empirical(2, 3, n=2000, trials=3, tol=math.inf)

    @pytest.mark.parametrize("r, k", [(2, 2), (2, 1), (1, 3)])
    def test_pairs_without_a_threshold_rejected_as_by_the_analytic_search(self, r, k):
        # the same check and text as compute_threshold_analytic, before any sampling
        with pytest.raises(PeelkitError) as analytic:
            compute_threshold_analytic(r, k)
        with pytest.raises(PeelkitError) as empirical:
            compute_threshold_empirical(r, k, n=2000, trials=3, tol=0.1)
        assert type(empirical.value) is PeelkitError
        assert str(empirical.value) == str(analytic.value) == (
            f"threshold undefined for r={r}, k={k}"
        )

    def test_small_scale_estimate(self):
        # coarse n: just check the bisection lands in the right region
        c, (lo, hi) = compute_threshold_empirical(
            2, 3, n=20000, trials=5, tol=0.05, seed=2
        )
        assert lo < c < hi
        assert abs(c - 3.3509) < 0.12 * 3.3509

    def test_report_passes_tol_to_the_empirical_search(self):
        res = threshold_report(
            2, 3, method="empirical", tol=0.1, n=2000, trials=3, seed=1
        )
        lo, hi = res.c_empirical_interval
        assert lo < res.c_empirical < hi
        assert hi - lo <= 0.1 * res.c_empirical
        # the default bracket (0.02) is narrower than the one asked for
        assert hi - lo > 0.02 * res.c_empirical

    def test_report_unknown_method_rejected(self):
        with pytest.raises(PeelkitError, match="analytic, empirical or both"):
            threshold_report(3, 2, method="analytc")

    def test_report_bundle(self):
        res = threshold_report(3, 2, method="analytic")
        d = dataclasses.asdict(res)
        assert d["c_analytic"] == pytest.approx(4.9108, abs=1e-3)
        assert d["a_star"] == pytest.approx(3.4761, abs=1e-3)
        assert d["c_empirical"] is None
