"""Independent brute-force oracles, coded directly from the defining formulas.

These deliberately avoid the library's vectorized paths (plain Python loops,
``math`` instead of numpy reductions) so that agreement is meaningful. The
exception is :func:`run_table_oracle`, the harness's per-replication loop,
kept as the reference its block form must reproduce.
"""
import math

import numpy as np

from tailshift.ar_fit import DegenerateDataError, fit_ar
from tailshift.experiments import KCell, TableResult
from tailshift.kernel import tail_grid
from tailshift.null_dist import analytic_quantile
from tailshift.tail_core import nonneg_view
from tailshift.variates import replication_rng, simulate


def hill_oracle(values, k):
    """Mean positive part of log(x) - log(k+1-th largest), direct sum."""
    srt = sorted(values, reverse=True)
    threshold = srt[k]
    total = 0.0
    for v in values:
        if v > threshold:
            total += math.log(v) - math.log(threshold)
    return total / k


def cusum_oracle(values, k, phi):
    """Raw CUSUM statistic, first maximizer and the deviation profile.

    Direct from the display formula. The profile lets callers distinguish a
    clear-cut maximizer from an exact-arithmetic tie: float noise in the last
    ulp can legitimately move the argmax between tied locations.
    """
    n = len(values)
    srt = sorted(values, reverse=True)
    threshold = srt[k - 1]

    def transform(v):
        if v <= 0.0:
            arg = -math.inf
        else:
            arg = math.log(v) - math.log(threshold) if threshold > 0 else math.inf
        if phi == "indicator":
            return 1.0 if arg > 0 else 0.0
        return max(arg, 0.0)

    vals = [transform(v) for v in values]
    total = sum(vals)
    devs = []
    running = 0.0
    for l in range(1, n + 1):
        running += vals[l - 1]
        devs.append(abs(running - l / n * total))
    best = max(devs)
    best_l = devs.index(best) + 1
    return best / math.sqrt(k), best_l, devs


def kolmogorov_cdf(x):
    """CDF of sup|Brownian bridge|, summed until the next term drops below 1e-16.

    Uses the alternating series ``1 - 2 sum_j (-1)**(j+1) exp(-2 j^2 x^2)``
    for ``x >= 1`` and its theta-dual ``(sqrt(2 pi) / x) sum_j
    exp(-(2j-1)^2 pi^2 / (8 x^2))`` below, where the alternating form loses
    all precision to cancellation.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        acc = 0.0
        j = 1
        while True:
            term = math.exp(-2.0 * j * j * x * x)
            if term < 1e-16:
                break
            acc += term if j % 2 == 1 else -term
            j += 1
        return max(0.0, 1.0 - 2.0 * acc)
    acc = 0.0
    j = 1
    while True:
        term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * x * x))
        if term < 1e-16 * max(acc, 1.0):
            break
        acc += term
        j += 1
    return min(1.0, math.sqrt(2.0 * math.pi) / x * acc)


def kolmogorov_quantile(level):
    """Quantile of sup|Brownian bridge| by bisection of :func:`kolmogorov_cdf` on [0.05, 5] to 1e-9."""
    lo, hi = 0.05, 5.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def yule_walker_oracle(x, p):
    """AR(p) Yule-Walker coefficients on raw autocovariances by a hand Levinson-Durbin recursion.

    Independent of ``scipy.linalg.solve_toeplitz``, which the library calls.
    """
    n = x.size
    acov = np.array([float(np.dot(x[: n - h], x[h:])) / n for h in range(p + 1)])
    coef = np.zeros(p)
    err = acov[0]
    for m in range(1, p + 1):
        kappa = acov[m] - float(np.dot(coef[: m - 1], acov[m - 1: 0: -1]))
        kappa /= err
        coef[m - 1] = kappa
        if m > 1:
            coef[: m - 1] -= kappa * coef[m - 2:: -1]
        err *= 1.0 - kappa * kappa
    return coef


def pareto_sample(rng, n, alpha):
    """Exact Pareto draws with survival x**(-alpha), x >= 1, by inverse transform."""
    u = rng.random(n)
    u[u == 0.0] = 0.5  # probability-zero guard
    return u ** (-1.0 / alpha)


class OracleDegenerate(Exception):
    """The change test has no outcome for this (series, k)."""


def tail_test_oracle(values, k, phi, adjust):
    """Statistic, maximizer, alpha_hat, scaling and lag-1 inflations of one test, by loops.

    Raises :class:`OracleDegenerate` for the documented degeneracies: fewer
    than ``max(4, k + 2)`` values, a zero (k+1)-th largest value, and an
    infinite ``alpha_hat`` under the log-excess scaling. Log excesses are
    ``log(v / threshold)``, the form the library evaluates, and every sum is
    a left-to-right running sum, so on series shorter than 8 (where numpy's
    sum is also a plain left fold) the statistic matches to the bit.
    ``chi_hat`` is None when ``alpha_hat`` is infinite.
    """
    n = len(values)
    if n < max(4, k + 2):
        raise OracleDegenerate(f"n = {n} < max(4, k + 2) at k = {k}")
    srt = sorted(values, reverse=True)
    threshold, floor = srt[k - 1], srt[k]
    if floor <= 0.0:
        raise OracleDegenerate(f"(k+1)-th largest value is 0 at k = {k}")
    hill_sum = 0.0
    for v in values:
        if v > floor:
            hill_sum += math.log(v / floor)
    alpha_hat = k / hill_sum if hill_sum > 0.0 else math.inf
    if phi == "log_excess" and math.isinf(alpha_hat):
        raise OracleDegenerate(f"alpha_hat is infinite at k = {k}")

    excess = [math.log(v / threshold) if v > threshold else 0.0 for v in values]
    vals = excess if phi == "log_excess" else [1.0 if v > threshold else 0.0 for v in values]
    total = 0.0
    for value in vals:
        total += value
    best, best_l, running = -1.0, 0, 0.0
    for l in range(1, n + 1):
        running += vals[l - 1]
        dev = abs(running - l / n * total)
        if dev > best:
            best, best_l = dev, l
    out = {"statistic": best / math.sqrt(k), "l_hat": best_l, "alpha_hat": alpha_hat,
           "omega_hat": None, "chi_hat": None}

    if adjust == "iid":
        out["scale"] = 1.0 if phi == "indicator" else alpha_hat / math.sqrt(2.0)
        return out
    joint = sum(1 for i in range(n - 1) if values[i] > threshold and values[i + 1] > threshold)
    cross = 0.0
    for i in range(n - 1):
        cross += excess[i] * excess[i + 1]
    out["omega_hat"] = 2.0 * joint / k
    if math.isfinite(alpha_hat):
        out["chi_hat"] = 2.0 * alpha_hat * cross / k
    if phi == "indicator":
        out["scale"] = 1.0 / math.sqrt(1.0 + out["omega_hat"])
    else:
        out["scale"] = alpha_hat / math.sqrt(2.0 + out["chi_hat"])
    return out


def run_table_oracle(spec):
    """``experiments.run_table`` as one kernel pass and one accumulation per replication.

    The block harness must reproduce it bit for bit: the same streams, the
    same rows and the same running sums, added one replication at a time.
    """
    ks = np.asarray(spec.k_grid)
    n_k = ks.size
    rejects = np.zeros(n_k, dtype=np.int64)
    sq_err = np.zeros(n_k)
    ok_count = np.zeros(n_k, dtype=np.int64)
    alpha_sum = np.zeros(n_k)
    critical = analytic_quantile(1.0 - spec.level)

    for r in range(spec.replications):
        rng = replication_rng(spec.seed, r)
        series = simulate(spec.model, spec.n, rng, spec.change)
        if spec.test == "ar_residual":
            try:
                series = fit_ar(series, spec.ar_order, spec.ar_method).residuals
            except DegenerateDataError:  # an error at every k
                continue
        v = nonneg_view(series)
        grid = tail_grid(v, ks, spec.phi, spec.adjust)
        ok = ~grid.degenerate
        ok_count += ok
        rejects += (grid.scale * grid.statistic >= critical) & ok
        np.add(alpha_sum, grid.alpha_hat, out=alpha_sum, where=ok)
        if spec.change is not None:
            np.add(sq_err, (grid.l_hat / v.size - spec.change.tau) ** 2, out=sq_err, where=ok)

    rows = []
    for j, k in enumerate(spec.k_grid):
        ok = int(ok_count[j])
        rows.append(
            KCell(
                k=k,
                reject_count=int(rejects[j]),
                rejection_rate=int(rejects[j]) / spec.replications,
                mse_tau=(float(sq_err[j]) / ok if spec.change is not None and ok else None),
                mean_alpha_hat=(float(alpha_sum[j]) / ok if ok else float("nan")),
                error_count=spec.replications - ok,
            )
        )
    return TableResult(spec=spec, rows=tuple(rows))
