"""Independent reference for the benchmark's output checks.

Everything here is coded from the defining formulas with plain Python loops
and ``math``; it imports nothing from ``tailshift``. Agreement with the
package is therefore evidence, not an echo:

- threshold: the k-th largest absolute value; exceedance is strict,
- deviation process ``D(l) = S_l - (l / n) S_n`` of the transformed values,
  statistic ``max_l |D(l)| / sqrt(k)`` with the first maximiser ``l_hat``,
- Hill: mean positive part of ``log X_i - log X_(k+1)`` over the sample,
- lag-1 inflations ``omega_hat = (2/k) sum I_i I_{i+1}`` and
  ``chi_hat = (2 alpha_hat / k) sum L_i L_{i+1}``,
- critical values: quantiles of ``K(x) = 1 - 2 sum (-1)^(j+1) exp(-2 j^2 x^2)``,
- AR(1) least squares without intercept and its one-step residuals,
- the simulation designs' paths, rebuilt from the documented stream split
  ``SeedSequence((seed, r))`` -> Philox and the t law ``Z / sqrt(W / nu)``.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

AR_BURNIN = 1000


class Degenerate(Exception):
    """The requested statistic is undefined for this sample (documented degeneracy)."""


def kolmogorov_cdf(x: float) -> float:
    """Alternating series for the CDF of sup|Brownian bridge|; accurate for x >= 1."""
    acc = 0.0
    for j in range(1, 200):
        term = math.exp(-2.0 * j * j * x * x)
        acc += term if j % 2 else -term
        if term < 1e-17:
            break
    return 1.0 - 2.0 * acc


def kolmogorov_pdf(x: float) -> float:
    """Density of sup|Brownian bridge|, the derivative of :func:`kolmogorov_cdf`."""
    acc = 0.0
    for j in range(1, 200):
        term = j * j * math.exp(-2.0 * j * j * x * x)
        acc += term if j % 2 else -term
        if term < 1e-17:
            break
    return 8.0 * x * acc


def kolmogorov_quantile(p: float) -> float:
    """Bisection of the series CDF on [1, 3]; covers levels 0.74 < p < 1 - 1e-7."""
    lo, hi = 1.0, 3.0
    if not kolmogorov_cdf(lo) < p < kolmogorov_cdf(hi):
        raise ValueError(f"reference quantile covers only 0.74 < p < 1 - 1e-7, got {p}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def _transform(v, threshold, phi):
    if phi == "indicator":
        return [1.0 if t > threshold else 0.0 for t in v]
    return [math.log(t / threshold) if t > threshold else 0.0 for t in v]


def abs_deviation(x, k, phi, l):
    """``|D(l)|`` of series ``x`` at tail fraction ``k`` and one index ``l`` (1-based)."""
    v = [abs(t) for t in x]
    vals = _transform(v, heapq.nlargest(k, v)[-1], phi)
    total = 0.0
    for val in vals:
        total += val
    run = 0.0
    for val in vals[:l]:
        run += val
    return abs(run - l / len(vals) * total)


def change_test(x, k, phi="indicator", adjust="iid", level=0.05) -> dict:
    """Reference outcome of the CUSUM tail-index change test on a series.

    ``x`` is a sequence of floats; the test runs on absolute values. Raises
    :class:`Degenerate` when the (k+1)-th largest value is zero (Hill is
    undefined) or when the log-excess scaling needs an infinite ``alpha_hat``.
    """
    v = [abs(t) for t in x]
    n = len(v)
    top = heapq.nlargest(k + 1, v)
    threshold, hill_threshold = top[k - 1], top[k]
    if hill_threshold <= 0.0:
        raise Degenerate(f"(k+1)-th largest value is 0 at k={k}")

    hill_sum = 0.0
    for t in v:
        if t > hill_threshold:
            hill_sum += math.log(t / hill_threshold)
    hill_mean = hill_sum / k
    alpha_hat = 1.0 / hill_mean if hill_mean > 0.0 else math.inf
    if phi == "log_excess" and math.isinf(alpha_hat):
        raise Degenerate(f"alpha_hat is infinite at k={k}")

    vals = _transform(v, threshold, phi)
    total = 0.0
    for val in vals:
        total += val
    best, l_hat, run = -1.0, 0, 0.0
    for l, val in enumerate(vals, 1):
        run += val
        d = abs(run - l / n * total)
        if d > best:
            best, l_hat = d, l
    statistic = best / math.sqrt(k)

    omega_hat = chi_hat = None
    if adjust == "iid":
        scale = 1.0 if phi == "indicator" else alpha_hat / math.sqrt(2.0)
    else:
        joint = 0
        for a, b in zip(v, v[1:]):
            if a > threshold and b > threshold:
                joint += 1
        omega_hat = 2.0 * joint / k
        le = vals if phi == "log_excess" else _transform(v, threshold, "log_excess")
        cross = 0.0
        for a, b in zip(le, le[1:]):
            cross += a * b
        chi_hat = 2.0 * alpha_hat * cross / k if math.isfinite(alpha_hat) else None
        if phi == "indicator":
            scale = 1.0 / math.sqrt(1.0 + omega_hat)
        else:
            scale = alpha_hat / math.sqrt(2.0 + chi_hat)

    critical_value = kolmogorov_quantile(1.0 - level)
    scaled = scale * statistic
    return {
        "n": n,
        "k": k,
        "phi": phi,
        "threshold": threshold,
        "alpha_hat": alpha_hat,
        "omega_hat": omega_hat,
        "chi_hat": chi_hat,
        "statistic": statistic,
        "scaled_statistic": scaled,
        "critical_value": critical_value,
        "reject": scaled >= critical_value,
        "l_hat": l_hat,
        "tau_hat": l_hat / n,
    }


def ar1_ols_residuals(x) -> list:
    """One-step residuals ``x_i - c x_{i-1}`` of the intercept-free AR(1) LS fit."""
    num = den = 0.0
    for prev, cur in zip(x, x[1:]):
        num += cur * prev
        den += prev * prev
    c = num / den
    return [cur - c * prev for prev, cur in zip(x, x[1:])]


def _t_draws(rng, nu, size):
    if size == 0:
        return np.empty(0)
    z = rng.standard_normal(size)
    w = rng.chisquare(nu, size)
    return z / np.sqrt(w / nu)


def design_path(kind, coef, n, pre_nu, post_nu, tau, seed, r) -> list:
    """Replication ``r`` of a t-innovation design seeded with ``seed``.

    Innovations ``1..floor(n tau)`` follow t(pre_nu), later ones t(post_nu);
    the MA(1) presample innovation and the AR(1) burn-in use the pre law.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, r))))
    n_pre = n if tau is None else math.floor(n * tau)
    lead = {"iid": 0, "ma1": 1, "ar1": AR_BURNIN}[kind]
    xi = np.concatenate([_t_draws(rng, pre_nu, lead + n_pre), _t_draws(rng, post_nu, n - n_pre)]).tolist()
    if kind == "iid":
        return xi
    if kind == "ma1":
        return [xi[i + 1] + coef * xi[i] for i in range(n)]
    path, y = [], 0.0
    for e in xi:
        y = e + coef * y
        path.append(y)
    return path[AR_BURNIN:]


def design_cells(design: dict) -> list:
    """Per-k aggregates of one simulation block, recomputed replication by replication.

    ``design`` holds the block's model, change, test and grid fields. Returns
    one dict per k with ``reject_count``, ``error_count``, ``alpha_sum``,
    ``sq_err`` and ``boundary`` (replications whose scaled statistic lies
    within 1e-9 of the critical value, where rounding may flip ``reject``).
    """
    cells = [dict(k=k, reject_count=0, error_count=0, ok=0, alpha_sum=0.0, sq_err=0.0, boundary=0)
             for k in design["k_grid"]]
    for r in range(design["replications"]):
        x = design_path(design["kind"], design["coef"], design["n"], design["pre_nu"],
                        design["post_nu"], design["tau"], design["seed"], r)
        if design["test"] == "ar_residual":
            x = ar1_ols_residuals(x)
        for cell in cells:
            try:
                out = change_test(x, cell["k"], design["phi"], design["adjust"], design["level"])
            except Degenerate:
                cell["error_count"] += 1
                continue
            cell["ok"] += 1
            cell["reject_count"] += out["reject"]
            cell["alpha_sum"] += out["alpha_hat"]
            if design["tau"] is not None:
                cell["sq_err"] += (out["tau_hat"] - design["tau"]) ** 2
            if abs(out["scaled_statistic"] - out["critical_value"]) < 1e-9:
                cell["boundary"] += 1
    return cells

