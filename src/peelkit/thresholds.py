"""Critical density for k-core emergence in H_r(n, c/n^(r-1)), and the
round-count growth coefficients.

The analytic threshold comes from minimizing f(x) = x / P(Po(x) >= k-1)^(r-1)
over x > 0; the minimum value is the critical expected vertex degree, and
multiplying by (r-1)! maps it into the c of p = c/n^(r-1) (a vertex's expected
degree is C(n-1, r-1) * p ~ c/(r-1)!).  That mapping is cross-validated by an
empirical bisection that classifies sampled-and-peeled instances as sub- or
supercritical.

All logarithms are natural, both here and in the growth-law fits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, PeelkitError
from .models import ModelParams, mix_seed, sample_binomial_hypergraph
from .peeling import parallel_peel

# An instance is supercritical when its median core holds over this share
# of the n vertices.
_CORE_FRAC = 0.01
# Relative bracket width of the empirical threshold by default.
_EMPIRICAL_TOL = 0.02


@dataclass
class ThresholdResult:
    r: int
    k: int
    x_star: float | None = None
    lambda_star: float | None = None
    c_analytic: float | None = None
    c_empirical: float | None = None
    c_empirical_interval: tuple | None = None
    a: float | None = None
    a_star: float | None = None
    mapping_validated: bool | None = None


def poisson_tail(x: float, j: int) -> float:
    """P(Poisson(x) >= j) by stable summation of the smaller tail.

    Absolute error below 1e-12 for x <= 50, j <= 50.
    """
    if not 0 <= x < math.inf:  # NaN too
        raise PeelkitError(f"Poisson rate must be finite and >= 0, got {x}")
    if j <= 0:
        return 1.0
    if x == 0.0:
        return 0.0
    if x >= j:
        # Lower tail P(< j) is the smaller side; subtract it from 1.
        term = math.exp(-x)
        cdf = term
        for i in range(1, j):
            term *= x / i
            cdf += term
        return 1.0 - cdf
    # Upper tail summed directly, starting from the term at j.
    term = _poisson_pmf(x, j)
    total = 0.0
    i = j
    while term > 0.0:
        total += term
        i += 1
        term *= x / i
        if term < total * 1e-18:
            total += term
            break
    return total


def round_recurrence(
    r: int, k: int, c: float, rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rho, sigma): arrays over rounds i = 0..rounds of the branching-process
    recurrence of the parallel peel on H_r(n, c/n^(r-1)).

    rho_0 = 1, x_i = lam * rho_{i-1}^(r-1) with lam = c/(r-1)!, rho_i =
    P(Po(x_i) >= k-1) and sigma_i = P(Po(x_i) >= k) (sigma_0 = 1).  sigma_i
    is the expected share of vertices alive after round i.
    """
    if r < 2 or k < 2 or rounds < 0 or not 0 <= c < math.inf:  # NaN too
        raise PeelkitError(
            f"need r, k >= 2, 0 <= c < inf and rounds >= 0, got r={r} k={k} c={c} "
            f"rounds={rounds}"
        )
    lam = c / math.factorial(r - 1)
    rho, sigma = np.ones(rounds + 1), np.ones(rounds + 1)
    for i in range(1, rounds + 1):
        x = lam * rho[i - 1] ** (r - 1)
        rho[i], sigma[i] = poisson_tail(x, k - 1), poisson_tail(x, k)
    return rho, sigma


def approach_rate(r: int, k: int, c: float) -> tuple[float, float, float]:
    """(rho*, sigma*, mu) for c above the threshold: the recurrence's largest
    fixed point, the core share sigma* it gives, and mu, the map's slope
    P(Po(x*) = k-2) * lam * (r-1) * rho*^(r-2) there, by which the excess
    survivors shrink per round.

    The fixed point's x* is the largest root of threshold_objective(x) = lam;
    the objective rises past its minimum and exceeds x, so the root lies in
    [x_star, lam] and is found by bisection.
    """
    x_star, _, c_hat = compute_threshold_analytic(r, k)
    if not c_hat < c < math.inf:  # NaN too
        raise PeelkitError(f"no core: c = {c} is not above c_hat = {c_hat:.6g} and finite")
    lam = c / math.factorial(r - 1)
    x = _bisect(lambda x: threshold_objective(x, r, k) >= lam, x_star, lam, 0.0)
    rho = poisson_tail(x, k - 1)
    pmf = _poisson_pmf(x, k - 2)
    return rho, poisson_tail(x, k), pmf * lam * (r - 1) * rho ** (r - 2)


def predicted_rounds(r: int, k: int, c: float, n: int) -> tuple[float, np.ndarray]:
    """(E[s], P(s > i) for i = 0, 1, ...): the round count s of the parallel
    peel on H_r(n, c/n^(r-1)) below the threshold, with no fitted parameter.

    s > i exactly when a vertex is alive after round i.  Once n * sigma_i is
    O(1) the survivors are rare and apart, so their count is close to
    Poisson(n * sigma_i): P(s > i) = 1 - exp(-n * sigma_i), and E[s] is the
    sum of these terms.  The sum stops at the first term below the float
    spacing of the terms before it; sigma_i falls doubly exponentially, so
    no later term counts either.
    """
    c_hat = compute_threshold_analytic(r, k)[2]
    if not c < c_hat:  # NaN too
        raise PeelkitError(f"c = {c} is not below c_hat = {c_hat:.6g}")
    if not 0 <= n <= sys.float_info.max:
        raise PeelkitError(f"n must be in [0, {sys.float_info.max:g}], got {n}")
    rounds = 16
    while True:
        _, sigma = round_recurrence(r, k, c, rounds)
        tail = -np.expm1(-float(n) * sigma)
        before = np.concatenate(([0.0], np.cumsum(tail)[:-1]))
        stop = np.flatnonzero(tail < np.spacing(before))
        if stop.size:
            return float(before[stop[0]]), tail[: stop[0]]
        rounds *= 2


def threshold_objective(x: float, r: int, k: int) -> float:
    """x / P(Po(x) >= k-1)^(r-1); its minimum over x > 0 is the critical
    expected vertex degree."""
    if x <= 0:
        raise PeelkitError(f"objective defined for x > 0, got {x}")
    tail = poisson_tail(x, k - 1)
    if tail <= 0.0:
        return math.inf
    return x / tail ** (r - 1)


def coefficients(r: int, k: int) -> tuple[float, float]:
    """(a, a_star) with a = 1/ln((r-1)(k-1)) and a_star = 1/ln(k(r-1)/r),
    natural logs; undefined at (r, k) = (2, 2)."""
    if r < 2 or k < 2:
        raise PeelkitError(f"need r, k >= 2, got r={r} k={k}")
    if r == 2 and k == 2:
        raise PeelkitError("(r, k) = (2, 2) is excluded: both denominators are ln 1")
    a = 1.0 / math.log((r - 1) * (k - 1))
    a_star = 1.0 / math.log(k * (r - 1) / r)
    return a, a_star


def _poisson_pmf(x: float, j: int) -> float:
    """P(Poisson(x) = j) for x > 0."""
    return math.exp(-x + j * math.log(x) - math.lgamma(j + 1))


def _bisect(above, lo: float, hi: float, tol: float) -> float:
    """The point on [lo, hi] where `above` turns true, given false at lo and
    true at hi: the upper end of the bracket once it is no wider than `tol`,
    or once it stops shrinking, when its width is down to float spacing."""
    while tol < hi - lo:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _check_search(r: int, k: int, tol: float) -> None:
    """Reject what neither threshold search takes: an (r, k) without a
    threshold, or a `tol` that is not finite and > 0."""
    if r < 2 or k < 2 or (r, k) == (2, 2):
        raise PeelkitError(f"threshold undefined for r={r}, k={k}")
    if not tol > 0:  # NaN too
        raise PeelkitError(f"tol must be > 0, got {tol}")
    if tol == math.inf:
        raise PeelkitError(f"tol must be finite, got {tol}")


def compute_threshold_analytic(r: int, k: int, tol: float = 1e-9):
    """Minimize the threshold objective: returns (x_star, lambda_star,
    c_analytic) with c_analytic = (r-1)! * lambda_star.

    The objective x / rho(x)^(r-1), rho(x) = P(Po(x) >= k-1), falls and then
    rises; x_star is where the sign of its derivative, that of rho(x) - (r-1)
    * x * P(Po(x) = k-2), turns non-negative, found by bisection on [1e-3, 50]
    to interval width `tol` (finite, > 0), or to float spacing.
    """
    _check_search(r, k, tol)

    def rising(x: float) -> bool:
        return poisson_tail(x, k - 1) - (r - 1) * x * _poisson_pmf(x, k - 2) >= 0

    if rising(1e-3) or not rising(50.0):
        raise BracketError(
            f"no interior minimum of the threshold objective for r={r}, k={k} "
            "on (1e-3, 50]"
        )
    x_star = _bisect(rising, 1e-3, 50.0, tol)
    lambda_star = threshold_objective(x_star, r, k)
    return x_star, lambda_star, math.factorial(r - 1) * lambda_star


def _is_supercritical(r: int, k: int, c: float, n: int, trials: int, seed: int) -> bool:
    """Median core size over `trials` sampled instances exceeds _CORE_FRAC * n."""
    sizes = []
    for t in range(trials):
        params = ModelParams(r=r, n=n, c=c, seed=mix_seed(seed, t))
        h = sample_binomial_hypergraph(params)
        trace = parallel_peel(h, k)
        sizes.append(trace.core_vertices.size)
    return float(np.median(sizes)) > _CORE_FRAC * n


def compute_threshold_empirical(
    r: int,
    k: int,
    n: int = 10**5,
    trials: int = 9,
    tol: float = _EMPIRICAL_TOL,
    seed: int = 0,
):
    """Bisection estimate of the critical c on [0.25, 8 * (r-1)! * k]: at each
    candidate, sample and peel `trials` instances and classify supercritical
    iff the median core exceeds _CORE_FRAC * n.

    Returns (c_mid, (c_lo, c_hi)) with final bracket width <= tol * c_mid.
    Finite-size rounding stays below tol for n >= 1e5 at the (r, k) pairs
    exercised here.
    """
    _check_search(r, k, tol)
    if trials < 1:
        raise PeelkitError(f"trials must be >= 1, got {trials}")
    c_lo, c_hi = 0.25, 8.0 * math.factorial(r - 1) * k
    if _is_supercritical(r, k, c_lo, n, trials, seed):
        raise BracketError(f"lower bracket c={c_lo} already supercritical")
    if not _is_supercritical(r, k, c_hi, n, trials, seed):
        raise BracketError(f"upper bracket c={c_hi} still subcritical")
    step = 0
    while c_hi - c_lo > tol * 0.5 * (c_lo + c_hi):
        mid = 0.5 * (c_lo + c_hi)
        step += 1
        if _is_supercritical(r, k, mid, n, trials, seed + step):
            c_hi = mid
        else:
            c_lo = mid
    return 0.5 * (c_lo + c_hi), (c_lo, c_hi)


def threshold_report(
    r: int,
    k: int,
    method: str = "both",
    tol: float | None = None,
    n: int = 10**5,
    trials: int = 9,
    seed: int = 0,
) -> ThresholdResult:
    """Bundle analytic and/or empirical thresholds plus the growth
    coefficients into one result.

    A `tol` that is given reaches every search that runs; None leaves each
    search its own default (1e-9 analytic, _EMPIRICAL_TOL empirical).
    """
    if method not in ("analytic", "empirical", "both"):
        raise PeelkitError(f"method must be analytic, empirical or both, got {method!r}")
    res = ThresholdResult(r=r, k=k)
    res.a, res.a_star = coefficients(r, k)
    given = {} if tol is None else {"tol": tol}
    if method in ("analytic", "both"):
        res.x_star, res.lambda_star, res.c_analytic = compute_threshold_analytic(
            r, k, **given
        )
    if method in ("empirical", "both"):
        res.c_empirical, res.c_empirical_interval = compute_threshold_empirical(
            r, k, n=n, trials=trials, seed=seed, **given
        )
    if res.c_analytic is not None and res.c_empirical is not None:
        res.mapping_validated = (
            abs(res.c_empirical - res.c_analytic) <= 0.05 * res.c_analytic
        )
    return res
