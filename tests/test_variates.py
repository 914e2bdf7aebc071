import numpy as np
import pytest
from scipy.stats import burr12, kstest

from tailshift.variates import (
    AR_BURNIN,
    BurrParams,
    ChangeSpec,
    ModelSpec,
    TDistParams,
    burr_quantile,
    burr_sample,
    replication_rng,
    simulate,
    t_sample,
)

BURR_A2 = BurrParams.from_alpha(2.0, -2.0)  # lam=1, gamma=-2
T3 = TDistParams(3.0)


def burr_law(p):
    """``p`` as scipy's Burr XII law, sf = (1 + (x / scale)**c)**(-d): an oracle independent of the library."""
    return burr12(c=-p.gamma, d=p.lam, scale=p.beta ** (-1.0 / p.gamma))


# ---------------------------------------------------------------------------
# Burr quantile / sf
# ---------------------------------------------------------------------------

def test_burr_quantile_hand_value():
    # lam=1, beta=1, gamma=-1 (alpha=1): sf(x) = 1/(1+x), so sf^{-1}(0.5) = 1
    p = BurrParams(lam=1.0, beta=1.0, gamma=-1.0)
    assert burr_quantile(0.5, p) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("p", [BURR_A2, BurrParams(0.5, 2.5, -0.5), BurrParams(4.0, 1.0, -0.5)])
def test_burr_quantile_round_trip(u, p):
    assert burr_law(p).sf(burr_quantile(u, p)) == pytest.approx(u, abs=1e-12)


def test_burr_round_trip_grid():
    p = BurrParams(2.0, 0.7, -1.5)
    u = np.linspace(0.001, 0.999, 333)
    assert np.max(np.abs(burr_law(p).sf(burr_quantile(u, p)) - u)) < 1e-10


def test_burr_quantile_boundary_and_domain():
    p = BurrParams(1.0, 1.0, -2.0)
    assert burr_quantile(1.0 - 1e-12, p) < 1e-5  # u -> 1 gives x -> 0
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            burr_quantile(bad, p)


def test_burr_params_validation():
    with pytest.raises(ValueError):
        BurrParams(lam=-1.0, beta=1.0, gamma=-1.0)
    with pytest.raises(ValueError):
        BurrParams(lam=1.0, beta=0.0, gamma=-1.0)
    with pytest.raises(ValueError):
        BurrParams(lam=1.0, beta=1.0, gamma=0.5)
    assert BurrParams.from_alpha(2.0, -2.0).alpha == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_burr_sample_exceedance_fraction():
    # binomial oracle: P(X > sf^{-1}(0.01)) = 0.01, sd ~ 3e-4 at n = 1e5
    x = burr_sample(100_000, BURR_A2, seed=31)
    threshold = burr_quantile(0.01, BURR_A2)
    assert np.mean(x > threshold) == pytest.approx(0.01, abs=0.002)


def test_burr_sample_deterministic_and_validated():
    a = burr_sample(1000, BURR_A2, seed=7)
    b = burr_sample(1000, BURR_A2, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, burr_sample(1000, BURR_A2, seed=8))
    with pytest.raises(ValueError):
        burr_sample(0, BURR_A2, seed=1)


def test_replication_rng_rejects_non_integer_seeds():
    for seed, index in ((1.5, 0), (1, 2.0)):
        with pytest.raises(TypeError):
            replication_rng(seed, index)
    a = replication_rng(np.int64(3), np.int64(1)).random(4)
    assert np.array_equal(a, replication_rng(3, 1).random(4))


def test_order_statistic_tracks_population_quantile():
    # the k-th largest of n draws sits near the upper k/n quantile; this ties
    # the sampler to the quantile function through an independent route
    from tailshift.tail_core import order_statistic

    x = burr_sample(100_000, BURR_A2, seed=19)
    for k in (100, 1000, 5000):
        ratio = order_statistic(x, k) / burr_quantile(k / x.size, BURR_A2)
        assert ratio == pytest.approx(1.0, abs=0.1)


def test_burr_sample_ks_against_analytic_cdf():
    x = burr_sample(10_000, BurrParams(2.0, 1.0, -1.0), seed=5)
    result = kstest(x, burr_law(BurrParams(2.0, 1.0, -1.0)).cdf)
    assert result.pvalue > 0.01


def test_t_sample_cauchy_median():
    # |Cauchy| has median tan(pi/4) = 1
    x = t_sample(100_000, TDistParams(1.0), seed=11)
    assert np.median(np.abs(x)) == pytest.approx(1.0, abs=0.03)


def test_t_sample_tail_slope():
    # log-log regression of the empirical survivor on log-spaced ranks in
    # the top decile; the tail exponent for nu = 3 is 3
    x = np.abs(t_sample(100_000, T3, seed=42))
    srt = np.sort(x)[::-1]
    ranks = np.unique(np.geomspace(10, 10_000, 60).astype(int))
    slope = np.polyfit(np.log(srt[ranks - 1]), np.log(ranks / x.size), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.3)


def test_t_sample_deterministic_and_validated():
    assert np.array_equal(t_sample(50, T3, seed=3), t_sample(50, T3, seed=3))
    with pytest.raises(ValueError):
        TDistParams(0.0)
    with pytest.raises(ValueError):
        t_sample(0, T3, seed=3)


# ---------------------------------------------------------------------------
# model specs and simulate
# ---------------------------------------------------------------------------

def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("garch", T3)
    with pytest.raises(ValueError):
        ModelSpec("ma1", T3)  # missing coefficient
    with pytest.raises(ValueError):
        ModelSpec("ar1", T3, coef=1.0)  # not stationary
    with pytest.raises(ValueError):
        ModelSpec("iid", T3, coef=0.3)
    with pytest.raises(ValueError):
        ChangeSpec(tau=1.0, pre=T3, post=T3)


def test_ma1_zero_coef_is_innovation_series():
    # the presample draw is xi[0]; with coef 0 the path equals xi[1:], which
    # matches the first n+1 draws of the same stream
    n = 200
    path = simulate(ModelSpec("ma1", T3, coef=0.0), n, seed=17)
    xi = t_sample(n + 1, T3, seed=17)
    assert np.array_equal(path, xi[1:])


def test_ma1_structure_against_innovations():
    n = 300
    xi = t_sample(n + 1, T3, seed=23)
    path = simulate(ModelSpec("ma1", T3, coef=0.7), n, seed=23)
    assert np.allclose(path, xi[1:] + 0.7 * xi[:-1], rtol=0, atol=0)


def test_ar1_matches_scalar_recursion():
    n = 100
    coef = 0.5
    xi = t_sample(AR_BURNIN + n, T3, seed=29)
    x_prev = 0.0
    expected = []
    for e in xi:
        x_prev = coef * x_prev + e
        expected.append(x_prev)
    path = simulate(ModelSpec("ar1", T3, coef=coef), n, seed=29)
    assert np.allclose(path, expected[AR_BURNIN:], rtol=1e-12, atol=1e-12)


def test_simulate_deterministic():
    spec = ModelSpec("ar1", T3, coef=0.9)
    change = ChangeSpec(0.5, TDistParams(3.0), TDistParams(1.0))
    a = simulate(spec, 500, seed=101, change=change)
    b = simulate(spec, 500, seed=101, change=change)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate(spec, 500, seed=102, change=change))


def test_simulate_change_prefix_matches_pre_law():
    # draws are ordered pre-block first, so the pre-change segment of an iid
    # path equals a plain sample of the pre law under the same seed
    n = 100
    change = ChangeSpec(0.35, BURR_A2, BurrParams.from_alpha(0.8, -1.0))
    path = simulate(ModelSpec("iid", BURR_A2), n, seed=13, change=change)
    pre = burr_sample(35, BURR_A2, seed=13)
    assert np.array_equal(path[:35], pre)
    assert path.size == n


def test_change_index_is_floor_of_n_tau():
    # 10 * 0.7 sits a few ulps below 7 in floats; the change must still land
    # after index 7
    change = ChangeSpec(0.7, BURR_A2, BurrParams.from_alpha(0.8, -1.0))
    path = simulate(ModelSpec("iid", BURR_A2), 10, seed=21, change=change)
    assert np.array_equal(path[:7], burr_sample(7, BURR_A2, seed=21))


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate(ModelSpec("iid", T3), 0, seed=1)
