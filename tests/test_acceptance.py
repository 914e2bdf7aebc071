"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; each criterion's tolerances are stated inline next to its assertions.
"""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import cusum_oracle, hill_oracle, kolmogorov_quantile, pareto_sample
from tailshift.ar_fit import fit_ar
from tailshift.cusum import TailTestConfig, cusum_statistic, run_test
from tailshift.experiments import SimulationSpec, run_table, table_specs
from tailshift.kernel import tail_grid
from tailshift.null_dist import analytic_quantile
from tailshift.tail_core import hill
from tailshift.variates import (
    BurrParams,
    ChangeSpec,
    ModelSpec,
    TDistParams,
    replication_rng,
    simulate,
)

BURR_NULL = ModelSpec("iid", BurrParams.from_alpha(2.0, -2.0))
AR_NULL = ModelSpec("ar1", TDistParams(3.0), coef=0.5)
MA_CHANGE = ModelSpec("ma1", TDistParams(3.0), coef=0.5)
TAIL_CHANGE = ChangeSpec(0.5, TDistParams(3.0), TDistParams(1.0))


def report(number, passed, detail):
    print(f"acceptance criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_critical_values(mc_cv_table):
    analytic = [analytic_quantile(lv) for lv in (0.90, 0.95, 0.99)]
    targets = (1.22387, 1.35810, 1.62762)
    oracle = [kolmogorov_quantile(lv) for lv in (0.90, 0.95, 0.99)]
    ok_analytic = all(abs(a - t) <= 1e-3 for a, t in zip(analytic, targets))
    ok_oracle = all(abs(a - o) <= 1e-6 for a, o in zip(analytic, oracle))
    mc_refs = (1.22, 1.35, 1.60)
    ok_mc = all(abs(v - r) <= 0.04 for v, r in zip(mc_cv_table.values, mc_refs))
    report(
        1,
        ok_analytic and ok_oracle and ok_mc,
        f"analytic {[round(a, 5) for a in analytic]} vs {targets} (inverse Kolmogorov CDF, "
        f"cross-checked against the series+bisection oracle); "
        f"mc {[round(v, 4) for v in mc_cv_table.values]} vs {mc_refs} +/- 0.04",
    )


def test_criterion_2_iid_size():
    phi1 = run_table(SimulationSpec(
        BURR_NULL, 1000, (50,), phi="indicator", replications=2000, seed=1002,
    )).rows[0]
    phi2 = run_table(SimulationSpec(
        BURR_NULL, 1000, (50,), phi="log_excess", replications=2000, seed=1002,
    )).rows[0]
    ok = (
        abs(phi1.rejection_rate - 0.035) <= 0.015
        and abs(phi2.rejection_rate - 0.029) <= 0.015
        and phi1.error_count == 0
        and phi2.error_count == 0
    )
    report(
        2,
        ok,
        f"i.i.d. size at k=50: indicator {phi1.rejection_rate:.4f} (0.035 +/- 0.015), "
        f"log-excess {phi2.rejection_rate:.4f} (0.029 +/- 0.015), 2000 replications",
    )


def test_criterion_3_ar_residual_size():
    cell = run_table(SimulationSpec(
        AR_NULL, 1000, (50,), test="ar_residual", replications=2000, seed=1003,
    )).rows[0]
    ok = abs(cell.rejection_rate - 0.035) <= 0.015 and cell.error_count == 0
    report(
        3,
        ok,
        f"AR(1) residual size at k=50: {cell.rejection_rate:.4f} (0.035 +/- 0.015), "
        f"2000 replications, {cell.error_count} errors",
    )


@pytest.fixture(scope="module")
def ma_power_run():
    return run_table(SimulationSpec(
        MA_CHANGE, 1000, (50,), adjust="lag1", change=TAIL_CHANGE,
        replications=1000, seed=1004,
    )).rows[0]


def test_criterion_4_power(ma_power_run):
    ar_power = run_table(SimulationSpec(
        AR_NULL, 1000, (50,), test="ar_residual", change=TAIL_CHANGE,
        replications=1000, seed=1005,
    )).rows[0]
    ok = (
        ma_power_run.rejection_rate >= 0.97
        and ar_power.rejection_rate >= 0.97
        and ma_power_run.error_count == 0
        and ar_power.error_count == 0
    )
    report(
        4,
        ok,
        f"power under the mid-sample tail change at k=50: MA(1) "
        f"{ma_power_run.rejection_rate:.3f}, AR(1) residual {ar_power.rejection_rate:.3f} "
        f"(both >= 0.97), 1000 replications",
    )


def test_criterion_5_change_point_mse(ma_power_run):
    quarter = run_table(SimulationSpec(
        MA_CHANGE, 1000, (50,), adjust="lag1",
        change=ChangeSpec(0.25, TDistParams(3.0), TDistParams(1.0)),
        replications=1000, seed=1006,
    )).rows[0]
    ok = ma_power_run.mse_tau <= 0.006 and quarter.mse_tau <= 0.04
    report(
        5,
        ok,
        f"location MSE at k=50: tau=0.5 gives {ma_power_run.mse_tau:.5f} (<= 0.006), "
        f"tau=0.25 gives {quarter.mse_tau:.5f} (<= 0.04), 1000 replications",
    )


def test_criterion_6_hand_oracle():
    t1, l1 = cusum_statistic([5.0, 1.0, 2.0, 3.0], 2, "indicator")
    t2, l2 = cusum_statistic([5.0, 1.0, 2.0, 3.0], 2, "log_excess")
    want1 = 0.75 / math.sqrt(2.0)
    want2 = 0.75 * math.log(5.0 / 3.0) / math.sqrt(2.0)
    ok = (
        abs(t1 - 0.530330) <= 1e-6 and abs(t1 - want1) <= 1e-9
        and abs(t2 - 0.270906) <= 1e-6 and abs(t2 - want2) <= 1e-9
        and l1 == 1 and l2 == 1
    )
    report(
        6,
        ok,
        f"hand series [5,1,2,3] with k=2: indicator {t1:.6f} (0.530330), "
        f"log-excess {t2:.6f} (0.270906), change index {l1}",
    )


def test_criterion_7_property_suites():
    checks = []

    # (a) scale invariance of the full outcome
    rng = replication_rng(7001, 0)
    ok_scale = True
    for _ in range(30):
        x = rng.integers(1, 10**6, size=50).astype(float)
        for phi, adjust in (("indicator", "iid"), ("log_excess", "lag1")):
            cfg = TailTestConfig(k=8, phi=phi, adjust=adjust)
            base = run_test(x, cfg)
            scaled = run_test((2.0**7) * x, cfg)
            # the threshold is in data units and scales exactly; every other field is invariant
            ok_scale &= scaled.threshold == (2.0**7) * base.threshold
            ok_scale &= replace(scaled, threshold=base.threshold) == base
            loose = run_test(3.0 * x, cfg)
            ok_scale &= math.isclose(loose.scaled_statistic, base.scaled_statistic, rel_tol=1e-9)
            ok_scale &= loose.l_hat == base.l_hat and loose.reject == base.reject
    checks.append(("scale invariance", ok_scale))

    # (b) monotone-transform invariance of the indicator statistic
    ok_mono = True
    for _ in range(30):
        x = rng.integers(1, 10**6, size=40).astype(float)
        t_base, l_base = cusum_statistic(x, 6, "indicator")
        for transformed in (x + 2.5, np.sqrt(x), x**3, np.log1p(x)):
            t, l = cusum_statistic(transformed, 6, "indicator")
            ok_mono &= math.isclose(t, t_base, rel_tol=1e-12) and l == l_base
    checks.append(("monotone-transform invariance", ok_mono))

    # (c) indicator sum is k - 1 on tie-free data
    ok_sum = True
    for _ in range(50):
        x = rng.permutation(np.arange(1.0, 41.0))[:30]
        for k in (1, 5, 29):
            ok_sum &= int(tail_grid(x, [k], "indicator").total[0]) == k - 1
    checks.append(("indicator sum k-1", ok_sum))

    # (d) the deviation process returns to zero
    from tailshift.cusum import deviation_process

    ok_zero = True
    for _ in range(50):
        x = rng.uniform(0.1, 100.0, size=64)
        for phi in ("indicator", "log_excess"):
            d = deviation_process(x, 9, phi)
            ok_zero &= abs(d[-1]) <= 1e-10 * max(1.0, float(np.max(np.abs(d))))
    checks.append(("deviation returns to zero", ok_zero))

    # (e) brute-force equivalence on every series of length <= 7 over a
    # 4-value alphabet, every admissible k, both statistic kinds
    ok_brute = True
    alphabet = (1.0, 2.0, 3.0, 5.0)
    for n in range(2, 8):
        for xs in itertools.product(alphabet, repeat=n):
            for k in range(1, n):
                for phi in ("indicator", "log_excess"):
                    got_t, got_l = cusum_statistic(xs, k, phi)
                    want_t, _, devs = cusum_oracle(xs, k, phi)
                    ok_brute &= math.isclose(got_t, want_t, rel_tol=1e-12, abs_tol=1e-12)
                    peak = max(devs)
                    ok_brute &= devs[got_l - 1] >= peak - 1e-9 * max(peak, 1e-12)
            if not ok_brute:
                break
    checks.append(("brute-force equivalence", ok_brute))

    # (f) residual reconstruction identity
    x = simulate(AR_NULL, 800, seed=7002)
    ok_resid = True
    for method in ("ols", "yule_walker"):
        fit = fit_ar(x, 2, method)
        lags = np.column_stack([x[1:-1], x[:-2]])
        ok_resid &= np.array_equal(fit.residuals, x[2:] - lags @ fit.coefficients)
        ok_resid &= np.allclose(fit.residuals + lags @ fit.coefficients, x[2:], rtol=1e-12)
    checks.append(("residual reconstruction", ok_resid))

    # (g) least-squares normal equations solve to zero gradient
    fit = fit_ar(x, 3, "ols")
    design = np.column_stack([x[2:-1], x[1:-2], x[:-3]])
    gradient = design.T @ (x[3:] - design @ fit.coefficients)
    ok_grad = np.linalg.norm(gradient) <= 1e-8 * max(1.0, np.linalg.norm(design.T @ x[3:]))
    checks.append(("zero least-squares gradient", ok_grad))

    # (h) Hill consistency on exact Pareto draws, against the brute-force sum
    alphas = []
    ok_hill = True
    for r in range(200):
        draws = pareto_sample(replication_rng(7003, r), 10_000, 2.0)
        est = hill(draws, 100)
        if r < 5:
            ok_hill &= math.isclose(est.hill_mean, hill_oracle(draws, 100), rel_tol=1e-10)
        alphas.append(est.alpha_hat)
    ok_hill &= abs(float(np.mean(alphas)) - 2.0) <= 0.05
    checks.append(("Hill consistency on Pareto", ok_hill))

    detail = "; ".join(f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks)
    report(7, all(good for _, good in checks), detail)


def test_criterion_8_exclusions_documented():
    # asymptotic limits are only checked through the finite-sample criteria
    # above; the heavy n=3000 grid halves exist behind the long-running flag
    # and are not gated here
    large = table_specs(2, replications=1, include_large=True)
    ok = {spec.n for spec in large} == {1000, 3000}
    report(
        8,
        ok,
        "weak-convergence limits excluded (finite-sample proxies in criteria 1-4); "
        "n=3000 grid halves available via include_large/--full but not gated",
    )
