import warnings

import numpy as np
import pytest
from scipy.stats import burr12, kstest

from tailshift.kernel import tail_grid
from tailshift.variates import (
    AR_BURNIN,
    BurrParams,
    ChangeSpec,
    ModelSpec,
    TDistParams,
    burr_quantile,
    replication_rng,
    simulate,
)

BURR_A2 = BurrParams.from_alpha(2.0, -2.0)  # lam=1, gamma=-2
T3 = TDistParams(3.0)


def iid_sample(params, n, seed):
    """``n`` i.i.d. draws of ``params``: the i.i.d. model is the sampler."""
    return simulate(ModelSpec("iid", params), n, seed=seed)


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
    # an infinite lam simulated all zeros; non-finite values name their field
    for bad in (np.inf, np.nan):
        for field, kwargs in (("lam", dict(lam=bad)), ("beta", dict(lam=1.0, beta=bad)),
                              ("gamma", dict(lam=1.0, gamma=-bad))):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                BurrParams(**kwargs)
        with pytest.raises(ValueError, match="^alpha must be finite"):
            BurrParams.from_alpha(bad, -1.0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_burr_sample_exceedance_fraction():
    # binomial oracle: P(X > sf^{-1}(0.01)) = 0.01, sd ~ 3e-4 at n = 1e5
    x = iid_sample(BURR_A2, 100_000, 31)
    threshold = burr_quantile(0.01, BURR_A2)
    assert np.mean(x > threshold) == pytest.approx(0.01, abs=0.002)


def test_burr_sample_deterministic_and_validated():
    a = iid_sample(BURR_A2, 1000, 7)
    b = iid_sample(BURR_A2, 1000, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, iid_sample(BURR_A2, 1000, 8))
    with pytest.raises(ValueError):
        iid_sample(BURR_A2, 0, 1)


def test_replication_rng_rejects_non_integer_seeds():
    for seed, index in ((1.5, 0), (1, 2.0), (True, 0), (1, False)):
        with pytest.raises(TypeError, match="must be an integer"):
            replication_rng(seed, index)
    # a negative seed or index is named, not numpy's "expected non-negative integer"
    for seed, index, name in ((-1, 0, "seed"), (1, -2, "index")):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -"):
            replication_rng(seed, index)
    a = replication_rng(np.int64(3), np.int64(1)).random(4)
    assert np.array_equal(a, replication_rng(3, 1).random(4))


def test_order_statistic_tracks_population_quantile():
    # the k-th largest of n draws sits near the upper k/n quantile; this ties
    # the sampler to the quantile function through an independent route
    x = iid_sample(BURR_A2, 100_000, 19)
    ks = [100, 1000, 5000]
    for k, kth_largest in zip(ks, tail_grid(x, ks).threshold):
        ratio = kth_largest / burr_quantile(k / x.size, BURR_A2)
        assert ratio == pytest.approx(1.0, abs=0.1)


def test_burr_sample_ks_against_analytic_cdf():
    x = iid_sample(BurrParams(2.0, 1.0, -1.0), 10_000, 5)
    result = kstest(x, burr_law(BurrParams(2.0, 1.0, -1.0)).cdf)
    assert result.pvalue > 0.01


def test_t_sample_cauchy_median():
    # |Cauchy| has median tan(pi/4) = 1
    x = iid_sample(TDistParams(1.0), 100_000, 11)
    assert np.median(np.abs(x)) == pytest.approx(1.0, abs=0.03)


def test_t_sample_tail_slope():
    # log-log regression of the empirical survivor on log-spaced ranks in
    # the top decile; the tail exponent for nu = 3 is 3
    x = np.abs(iid_sample(T3, 100_000, 42))
    srt = np.sort(x)[::-1]
    ranks = np.unique(np.geomspace(10, 10_000, 60).astype(int))
    slope = np.polyfit(np.log(srt[ranks - 1]), np.log(ranks / x.size), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.3)


def test_t_sample_deterministic_and_validated():
    assert np.array_equal(iid_sample(T3, 50, 3), iid_sample(T3, 50, 3))
    with pytest.raises(ValueError):
        TDistParams(0.0)
    for bad in (np.inf, np.nan):  # infinite degrees of freedom simulated NaN
        with pytest.raises(ValueError, match="^nu must be finite"):
            TDistParams(bad)
    with pytest.raises(ValueError):
        iid_sample(T3, 0, 3)


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
    for bad in (np.nan, np.inf, -np.inf):  # NaN and inf MA weights simulated NaN and inf
        with pytest.raises(ValueError, match="^coef must be finite"):
            ModelSpec("ma1", T3, coef=bad)


def test_model_and_change_specs_require_a_law():
    # a non-law used to construct and fail later, inside simulate or a report renderer
    for bad in ("x", None, 3.0, ModelSpec("iid", T3)):
        with pytest.raises(TypeError, match="^innovation must be a BurrParams or TDistParams"):
            ModelSpec("iid", bad)
        with pytest.raises(TypeError, match="^pre must be a BurrParams or TDistParams"):
            ChangeSpec(0.5, bad, T3)
        with pytest.raises(TypeError, match="^post must be a BurrParams or TDistParams"):
            ChangeSpec(0.5, T3, bad)


def test_ma1_zero_coef_is_innovation_series():
    # the presample draw is xi[0]; with coef 0 the path equals xi[1:], which
    # matches the first n+1 draws of the same stream
    n = 200
    path = simulate(ModelSpec("ma1", T3, coef=0.0), n, seed=17)
    xi = iid_sample(T3, n + 1, 17)
    assert np.array_equal(path, xi[1:])


def test_ma1_structure_against_innovations():
    n = 300
    xi = iid_sample(T3, n + 1, 23)
    path = simulate(ModelSpec("ma1", T3, coef=0.7), n, seed=23)
    assert np.allclose(path, xi[1:] + 0.7 * xi[:-1], rtol=0, atol=0)


def test_ar1_matches_scalar_recursion():
    n = 100
    coef = 0.5
    xi = iid_sample(T3, AR_BURNIN + n, 29)
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
    pre = iid_sample(BURR_A2, 35, 13)
    assert np.array_equal(path[:35], pre)
    assert path.size == n


def test_change_index_is_floor_of_n_tau():
    # 10 * 0.7 sits a few ulps below 7 in floats; the change must still land
    # after index 7
    change = ChangeSpec(0.7, BURR_A2, BurrParams.from_alpha(0.8, -1.0))
    path = simulate(ModelSpec("iid", BURR_A2), 10, seed=21, change=change)
    assert np.array_equal(path[:7], iid_sample(BURR_A2, 7, 21))


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate(ModelSpec("iid", T3), 0, seed=1)
    for seed in (True, 1.5):  # a bool seed no longer runs as seed 1
        with pytest.raises(TypeError, match="seed must be an integer"):
            simulate(ModelSpec("iid", T3), 5, seed=seed)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        simulate(ModelSpec("iid", T3), 5, seed=-1)
    with pytest.raises(TypeError, match="^n must be an integer"):
        simulate(ModelSpec("iid", T3), 5.0, seed=1)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_simulate_names_the_law_of_a_path_that_overflows(action):
    tiny_nu = TDistParams(1e-3)
    cases = [
        (ModelSpec("iid", BurrParams(lam=0.001)), None,
         "iid path of BurrParams(lam=0.001, beta=1.0, gamma=-1.0) is not finite: "
         "series contains a non-finite value at index 0 (inf)"),
        (ModelSpec("ma1", tiny_nu, coef=0.5), None,
         "ma1 path of TDistParams(nu=0.001) is not finite: series contains a non-finite value at index 0 (nan)"),
        (ModelSpec("ar1", T3, coef=0.5), ChangeSpec(0.5, T3, tiny_nu),
         "ar1 path of TDistParams(nu=3.0) then TDistParams(nu=0.001) is not finite: "
         "series contains a non-finite value at index 5 (inf)"),
    ]
    for model, change, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError) as info:
                simulate(model, 10, seed=1, change=change)
        assert str(info.value) == message
