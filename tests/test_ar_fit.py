from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import yule_walker_oracle
from tailshift.ar_fit import DegenerateDataError, fit_ar, residual_cusum
from tailshift.tail_core import DegenerateThresholdError
from tailshift.variates import ModelSpec, TDistParams, replication_rng, simulate

AR_MODEL = ModelSpec("ar1", TDistParams(3.0), coef=0.5)


def exact_halving_series(n=10, start=8.0):
    # x_i = 0.5 * x_{i-1}; powers of two stay exact in floats
    return start * 0.5 ** np.arange(n)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_ols_recovers_noise_free_recursion_exactly():
    fit = fit_ar(exact_halving_series(), 1, "ols")
    assert fit.coefficients[0] == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(fit.residuals)) == 0.0


def test_ols_monte_carlo_consistency():
    coefs = np.array([
        fit_ar(simulate(AR_MODEL, 3000, seed=replication_rng(808, r)), 1).coefficients[0]
        for r in range(200)
    ])
    assert coefs.mean() == pytest.approx(0.5, abs=0.05)
    assert np.sum(np.abs(coefs - 0.5) <= 0.05) >= 190


def test_fit_validation():
    x = exact_halving_series()
    with pytest.raises(ValueError):
        fit_ar(x, x.size)  # order too large for the sample
    with pytest.raises(ValueError):
        fit_ar(x, 0)
    with pytest.raises(ValueError):
        fit_ar(x, 1, method="ridge")


def test_non_finite_input_and_bool_order_are_rejected():
    # named by their input index, and never taken for a degenerate design
    x = exact_halving_series()
    x[4] = np.nan
    for method in ("ols", "yule_walker"):
        with pytest.raises(ValueError, match="index 4 \\(nan\\)") as exc:
            fit_ar(x, 1, method)
        assert not isinstance(exc.value, DegenerateDataError)
    x[4] = np.inf
    with pytest.raises(ValueError, match="index 4 \\(inf\\)"):
        residual_cusum(x, order=1, k=3)
    for order in (True, 1.0):
        with pytest.raises(TypeError, match="order must be an integer"):
            fit_ar(exact_halving_series(), order)
    assert fit_ar(exact_halving_series(), np.int64(1)).order == 1


def test_degenerate_designs_raise():
    zeros = np.zeros(30)
    with pytest.raises(DegenerateDataError):
        fit_ar(zeros, 1, "ols")
    with pytest.raises(DegenerateDataError):
        fit_ar(zeros, 1, "yule_walker")


def test_residual_identity_reconstructs_input():
    x = simulate(AR_MODEL, 500, seed=3)
    lags = np.column_stack([x[1:-1], x[:-2]])
    for method in ("ols", "yule_walker"):
        fit = fit_ar(x, 2, method)
        # the defining identity holds bitwise ...
        assert np.array_equal(fit.residuals, x[2:] - lags @ fit.coefficients)
        # ... and reconstruction returns the input up to one rounding
        rebuilt = fit.residuals + lags @ fit.coefficients
        assert rebuilt == pytest.approx(x[2:], rel=1e-12, abs=1e-12)
        assert fit.residuals.size == x.size - 2


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(0, 600), st.integers(0, 10**6))
def test_residuals_are_the_lag_product_bit_for_bit(order, extra, seed):
    x = replication_rng(seed, 1).standard_t(3.0, order + 2 + extra)
    lags = np.column_stack([x[order - j: x.size - j] for j in range(1, order + 1)])
    for method in ("ols", "yule_walker"):
        try:
            fit = fit_ar(x, order, method)
        except DegenerateDataError:
            continue
        assert np.array_equal(fit.residuals, x[order:] - lags @ fit.coefficients)


def test_ols_normal_equation_gradient_vanishes():
    x = simulate(AR_MODEL, 2000, seed=4)
    fit = fit_ar(x, 3, "ols")
    design = np.column_stack([x[2:-1], x[1:-2], x[:-3]])
    gradient = design.T @ (x[3:] - design @ fit.coefficients)
    assert np.linalg.norm(gradient) <= 1e-8 * max(1.0, np.linalg.norm(design.T @ x[3:]))


def test_yule_walker_matches_ols_on_long_light_tailed_sample():
    rng = replication_rng(809, 0)
    e = rng.standard_normal(20_000)
    x = np.zeros(20_000)
    for i in range(2, x.size):
        x[i] = 0.5 * x[i - 1] - 0.3 * x[i - 2] + e[i]
    ols = fit_ar(x[100:], 2, "ols").coefficients
    yw = fit_ar(x[100:], 2, "yule_walker").coefficients
    assert yw == pytest.approx(ols, abs=5e-3)
    assert ols == pytest.approx([0.5, -0.3], abs=0.03)


def test_yule_walker_matches_hand_levinson_durbin():
    for seed in range(4):
        x = simulate(AR_MODEL, 500, seed=replication_rng(810, seed))
        for p in range(1, 6):
            want = yule_walker_oracle(x, p)
            got = fit_ar(x, p, "yule_walker").coefficients
            if p == 1:
                assert np.array_equal(got, want)  # the lag-1/lag-0 ratio either way
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=100)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=60))
def test_yule_walker_order_one_is_bounded(xs):
    x = np.asarray(xs)
    try:
        coef = fit_ar(x, 1, "yule_walker").coefficients[0]
    except DegenerateDataError:
        return  # all-zero input, or squares vanish at double precision
    assert abs(coef) <= 1.0 + 1e-12  # lag-1 over lag-0 moment ratio


# ---------------------------------------------------------------------------
# residual test
# ---------------------------------------------------------------------------

def test_residual_cusum_runs_and_reports_residual_axis():
    x = simulate(AR_MODEL, 600, seed=9)
    out = residual_cusum(x, order=1, k=40)
    assert out.n == 599
    assert out.adjust == "iid"
    assert 1 <= out.l_hat <= out.n
    assert out.tau_hat == out.l_hat / out.n


def test_residual_cusum_k_validated_against_residual_count():
    x = simulate(AR_MODEL, 100, seed=10)
    # 99 residuals: run_test's n >= max(4, k + 2) is the only bound, so k <= 97
    for k in (98, 99):
        with pytest.raises(ValueError, match=rf"need n >= max\(4, k \+ 2\) = {k + 2}, got n = 99"):
            residual_cusum(x, order=1, k=k)
    residual_cusum(x, order=1, k=97)


def test_residual_cusum_noise_free_recursion_is_degenerate():
    with pytest.raises(DegenerateThresholdError):
        residual_cusum(exact_halving_series(), order=1, k=3)


def test_residual_cusum_scale_invariance():
    x = simulate(AR_MODEL, 400, seed=11)
    base = residual_cusum(x, order=1, k=30)
    scaled = residual_cusum((2.0**8) * x, order=1, k=30)
    # residuals scale linearly: the threshold with them, the rest of the outcome not at all
    assert scaled.threshold == (2.0**8) * base.threshold
    assert replace(scaled, threshold=base.threshold) == base
