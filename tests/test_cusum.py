import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

from oracles import cusum_oracle
from tailshift import experiments, null_dist
from tailshift.ar_fit import FIT_METHODS, fit_ar, residual_cusum
from tailshift.cusum import ADJUST_MODES, PHI_KINDS, TailTestConfig, cusum_statistic, deviation_process, run_test
from tailshift.experiments import SimulationSpec, run_table
from tailshift.kernel import scale, tail_grid
from tailshift.tail_core import DegenerateThresholdError, estimate_chi, estimate_omega, hill
from tailshift.variates import BurrParams, ChangeSpec, ModelSpec, replication_rng, simulate

HAND = [5.0, 1.0, 2.0, 3.0]

positive_series = st.lists(
    st.integers(min_value=1, max_value=10**6).map(float), min_size=4, max_size=40
)


def series_and_k():
    return positive_series.flatmap(
        lambda xs: st.tuples(st.just(xs), st.integers(min_value=1, max_value=len(xs) - 1))
    )


# ---------------------------------------------------------------------------
# deviation process
# ---------------------------------------------------------------------------

def test_deviation_hand_indicator():
    d = deviation_process(HAND, 2, "indicator")
    assert d == pytest.approx([0.75, 0.5, 0.25, 0.0], abs=1e-12)


def test_deviation_hand_log_excess():
    total = math.log(5.0 / 3.0)
    d = deviation_process(HAND, 2, "log_excess")
    assert d == pytest.approx([0.75 * total, 0.5 * total, 0.25 * total, 0.0], abs=1e-12)
    assert d == pytest.approx([0.383119, 0.255413, 0.127707, 0.0], abs=1e-6)


def test_deviation_constant_series_is_zero():
    assert np.array_equal(deviation_process([3.0] * 6, 2, "indicator"), np.zeros(6))
    assert np.array_equal(deviation_process([3.0] * 6, 2, "log_excess"), np.zeros(6))


def test_deviation_validation():
    with pytest.raises(ValueError):
        deviation_process(HAND, 4, "indicator")
    with pytest.raises(ValueError):
        deviation_process(HAND, 2, "bogus")
    with pytest.raises(DegenerateThresholdError):
        deviation_process([1.0, 0.0, 0.0, 0.0], 2, "log_excess")


@settings(max_examples=200)
@given(series_and_k())
def test_deviation_ends_at_zero(case):
    xs, k = case
    for phi in ("indicator", "log_excess"):
        assert deviation_process(xs, k, phi)[-1] == 0.0


@pytest.mark.parametrize("n, k", [(40, 7), (10**5, 500)])
@pytest.mark.parametrize("phi", PHI_KINDS)
def test_deviation_of_a_signed_series_ends_at_exactly_zero(n, k, phi):
    # the total is the last running sum, so D(n) = S(n) - (n / n) * S(n) holds no rounding at any length
    for seed in range(3):
        x = replication_rng(seed, 0).standard_t(3.0, n)
        assert deviation_process(x, k, phi)[-1] == 0.0, seed


# ---------------------------------------------------------------------------
# statistic and argmax
# ---------------------------------------------------------------------------

def test_statistic_hand_values():
    t1, l1 = cusum_statistic(HAND, 2, "indicator")
    t2, l2 = cusum_statistic(HAND, 2, "log_excess")
    assert t1 == pytest.approx(0.75 / math.sqrt(2), abs=1e-12)
    assert t2 == pytest.approx(math.log(5 / 3) * 0.75 / math.sqrt(2), abs=1e-12)
    assert (l1, l2) == (1, 1)
    assert t1 == pytest.approx(0.530330, abs=1e-6)
    assert t2 == pytest.approx(0.270906, abs=1e-6)


def test_statistic_constant_series():
    assert cusum_statistic([2.0] * 8, 3, "indicator")[0] == 0.0


def test_argmax_is_first_maximum():
    # indicators (1,0,0,0,1,0,0,0) and n = 8 give exact float ties:
    # |D| = (.75, .5, .25, 0, .75, .5, .25, 0) peaks at l = 1 and l = 5
    x = [9.0, 1.0, 2.0, 1.2, 8.0, 1.4, 2.2, 0.5]
    d = deviation_process(x, 3, "indicator")
    assert np.array_equal(np.abs(d), [0.75, 0.5, 0.25, 0.0, 0.75, 0.5, 0.25, 0.0])
    _, l_hat = cusum_statistic(x, 3, "indicator")
    assert l_hat == 1  # smallest maximizer wins


def test_reversal_moves_argmax_to_mirror():
    x = [9.0, 1.0, 2.0, 3.0, 8.0, 1.5, 2.5, 0.5]
    t_fwd, l_fwd = cusum_statistic(x, 3, "log_excess")
    t_rev, l_rev = cusum_statistic(x[::-1], 3, "log_excess")
    assert t_rev == pytest.approx(t_fwd, rel=1e-12)
    assert l_rev == len(x) - l_fwd  # D_rev(l) = -D(n - l)


def assert_matches_oracle(xs, k, phi):
    got_t, got_l = cusum_statistic(xs, k, phi)
    want_t, want_l, devs = cusum_oracle(xs, k, phi)
    assert got_t == pytest.approx(want_t, rel=1e-12, abs=1e-12)
    peak = max(devs)
    # the chosen index must attain the maximum deviation
    assert devs[got_l - 1] == pytest.approx(peak, rel=1e-9, abs=1e-12)
    # the smallest-maximizer rule is checked when the peak is unambiguous
    margin = 1e-6 * max(peak, 1e-12)
    if sum(dev >= peak - margin for dev in devs) == 1:
        assert got_l == want_l


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]), min_size=2, max_size=7),
    st.data(),
)
def test_statistic_matches_brute_force_spot(xs, data):
    k = data.draw(st.integers(min_value=1, max_value=len(xs) - 1))
    for phi in ("indicator", "log_excess"):
        assert_matches_oracle(xs, k, phi)


# ---------------------------------------------------------------------------
# scale factors
# ---------------------------------------------------------------------------

def test_scale_factor_values():
    assert scale("indicator", "iid", 2.0) == 1.0
    assert scale("log_excess", "iid", 2.0) == pytest.approx(math.sqrt(2.0))
    omega_hat, chi_hat = 2.0 / 3.0, 0.5
    assert scale("indicator", "lag1", 2.0, omega_hat, chi_hat) == pytest.approx(
        1.0 / math.sqrt(5.0 / 3.0)
    )
    assert scale("indicator", "lag1", 2.0, omega_hat, chi_hat) == pytest.approx(0.774597, abs=1e-6)
    assert scale("log_excess", "lag1", 2.0, omega_hat, chi_hat) == pytest.approx(
        2.0 / math.sqrt(2.5)
    )


# ---------------------------------------------------------------------------
# run_test
# ---------------------------------------------------------------------------

def test_run_test_hand_outcome():
    out = run_test(HAND, TailTestConfig(k=2, phi="indicator", adjust="iid", level=0.05))
    assert out.statistic == pytest.approx(0.530330, abs=1e-6)
    assert out.scale_factor == 1.0
    assert out.scaled_statistic == pytest.approx(out.statistic)
    assert out.critical_value == pytest.approx(1.35810, abs=1e-4)
    assert not out.reject
    assert (out.n, out.k, out.l_hat) == (4, 2, 1)
    assert out.tau_hat == pytest.approx(0.25)
    assert out.omega_hat is None and out.chi_hat is None
    assert out.alpha_hat == pytest.approx(2.0 / (math.log(5 / 2) + math.log(3 / 2)), rel=1e-12)


def test_outcome_threshold_and_exceedance_count():
    for phi in ("indicator", "log_excess"):
        out = run_test(HAND, TailTestConfig(k=2, phi=phi))
        assert (out.threshold, out.n_exceed) == (3.0, 1)
        # X_(3) = X_(2) = 3 tie: only 5 exceeds, one value instead of k - 1 = 2
        out = run_test([5.0, 3.0, 1.0, 3.0, 2.0], TailTestConfig(k=3, phi=phi))
        assert (out.threshold, out.n_exceed) == (3.0, 1)
    # integer-rounded t(3) data: ties at the threshold cut the count below k - 1
    x = np.round(simulate(ModelSpec("iid", _t(3.0)), 1000, seed=3))
    v = np.abs(x)
    counts = set()
    for phi in ("indicator", "log_excess"):
        for adjust in ("iid", "lag1"):
            out = run_test(x, TailTestConfig(k=50, phi=phi, adjust=adjust))
            assert out.threshold == np.sort(v)[-50]
            assert out.n_exceed == np.count_nonzero(v > out.threshold)
            counts.add(out.n_exceed)
    assert len(counts) == 1 and out.n_exceed < 49
    assert tail_grid(v, [50], "indicator").total[0] == out.n_exceed  # the count is the indicator total


def test_run_test_outcome_invariants():
    x = np.abs(simulate(ModelSpec("ma1", _t(2.0), coef=0.5), 400, seed=15))
    for phi in ("indicator", "log_excess"):
        for adjust in ("iid", "lag1"):
            out = run_test(x, TailTestConfig(k=40, phi=phi, adjust=adjust))
            assert out.scaled_statistic == pytest.approx(out.scale_factor * out.statistic, rel=1e-15)
            assert out.reject == (out.scaled_statistic >= out.critical_value)
            assert out.tau_hat == out.l_hat / out.n
            assert (out.omega_hat is not None) == (adjust == "lag1")
            if adjust == "lag1":
                assert out.omega_hat >= 0.0 and out.chi_hat >= 0.0


def _t(nu):
    from tailshift.variates import TDistParams

    return TDistParams(nu)


def test_lag1_outcome_matches_standalone_estimators():
    from tailshift.tail_core import estimate_chi, estimate_omega, hill

    x = np.abs(simulate(ModelSpec("ma1", _t(2.0), coef=0.5), 500, seed=21))
    out = run_test(x, TailTestConfig(k=40, phi="log_excess", adjust="lag1"))
    assert out.alpha_hat == hill(x, 40).alpha_hat
    assert out.omega_hat == estimate_omega(x, 40)
    assert out.chi_hat == estimate_chi(x, 40, out.alpha_hat)


def test_run_test_minimum_length_guard():
    with pytest.raises(ValueError):
        run_test([1.0, 2.0, 3.0], TailTestConfig(k=1))
    with pytest.raises(ValueError):
        run_test([1.0, 2.0, 3.0, 4.0], TailTestConfig(k=3))  # needs n >= k + 2


def test_run_test_scale_invariance_full_outcome():
    rng = replication_rng(7, 0)
    x = rng.integers(1, 10**6, size=60).astype(float)
    base = run_test(x, TailTestConfig(k=10, phi="log_excess", adjust="lag1"))
    for c in (2.0**9, 2.0**-7):
        scaled = run_test(c * x, TailTestConfig(k=10, phi="log_excess", adjust="lag1"))
        assert scaled.threshold == c * base.threshold  # the threshold is the one scaled field
        assert replace(scaled, threshold=base.threshold) == base  # power-of-two scaling is exact in floats
    loose = run_test(3.7 * x, TailTestConfig(k=10, phi="log_excess", adjust="lag1"))
    for name in ("alpha_hat", "statistic", "scale_factor", "scaled_statistic", "tau_hat"):
        assert getattr(loose, name) == pytest.approx(getattr(base, name), rel=1e-9)
    assert (loose.reject, loose.l_hat) == (base.reject, base.l_hat)


@settings(max_examples=100)
@given(series_and_k())
def test_indicator_statistic_monotone_transform_invariant(case):
    xs, k = case
    v = np.asarray(xs)
    base_t, base_l = cusum_statistic(v, k, "indicator")
    for transformed in (v + 2.5, np.sqrt(v), v**3, np.log1p(v)):
        t, l = cusum_statistic(transformed, k, "indicator")
        assert t == pytest.approx(base_t, rel=1e-12, abs=1e-12)
        assert l == base_l


def test_run_test_detects_injected_tail_change():
    # tail exponent 3 -> 0.8 at mid-sample: rejection nearly certain
    model = ModelSpec("iid", BurrParams.from_alpha(3.0, -1.0))
    change = ChangeSpec(0.5, BurrParams.from_alpha(3.0, -1.0), BurrParams.from_alpha(0.8, -1.0))
    cfg = TailTestConfig(k=100, phi="indicator", adjust="iid")
    rejections = 0
    for r in range(200):
        x = simulate(model, 2000, seed=replication_rng(606, r), change=change)
        rejections += run_test(x, cfg).reject
    assert rejections >= 190  # >= 95% of 200


@settings(max_examples=100)
@given(
    st.one_of(
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
    )
)
def test_config_rejects_non_integer_k(k):
    with pytest.raises(TypeError, match="k must be an integer"):
        TailTestConfig(k=k)


@pytest.mark.parametrize("field, value, message", [
    ("adjust", "lag2", "adjust must be one of"),
    ("level", 0.0, "level must lie in \\(0, 1\\)"),
    ("level", 1.0, "level must lie in \\(0, 1\\)"),
    # subnormal levels: the smallest has no solvable critical value, the others too few digits
    ("level", 5e-324, "^level must be at least 2\\*\\*-1022, the smallest normal float, got 5e-324$"),
    ("level", 1e-310, "^level must be at least 2\\*\\*-1022, the smallest normal float, got 1e-310$"),
])
def test_config_rejects_bad_adjust_and_level(field, value, message):
    with pytest.raises(ValueError, match=message):
        TailTestConfig(k=2, **{field: value})


@pytest.mark.parametrize("call, got", [
    pytest.param(lambda: TailTestConfig(k=5, level="0.05"), "'0.05' of type str", id="config-str"),
    pytest.param(lambda: TailTestConfig(k=5, level=None), "None of type NoneType", id="config-none"),
    pytest.param(lambda: TailTestConfig(k=5, level=True), "True of type bool", id="config-bool"),  # was the range text
    pytest.param(lambda: SimulationSpec(model=ModelSpec("iid", BurrParams.from_alpha(2.0, -1.0)), n=100,
                                        k_grid=(10,), level="0.05"), "'0.05' of type str", id="spec-str"),
    pytest.param(lambda: null_dist.analytic_quantile("0.95"), "'0.95' of type str", id="analytic-quantile-str"),
])
def test_a_level_that_is_not_a_real_number_is_named(call, got):
    with pytest.raises(TypeError, match=f"^level must be a real number, got {re.escape(got)}$"):
        call()


_BURR = ModelSpec("iid", BurrParams.from_alpha(2.0, -1.0))
_FLIPS = replication_rng(3, 0).random(60) < 0.5


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: run_test(HAND * 5, {"k": 5}), "cfg must be a TailTestConfig, got dict", id="cfg-dict"),
    pytest.param(lambda: SimulationSpec(model=_BURR, n=100, k_grid=10),
                 "k_grid must be a sequence of integers, got 10", id="k_grid-int"),
    pytest.param(lambda: SimulationSpec(model=_BURR, n=100, k_grid="10"),
                 "k_grid must be a sequence of integers, got '10'", id="k_grid-str"),
    # a bool series is rejected as a complex one is, rather than read as 0 and 1
    pytest.param(lambda: run_test(_FLIPS, TailTestConfig(k=5)), "expected a real series, got dtype bool",
                 id="run_test-bool"),
    pytest.param(lambda: hill(_FLIPS.tolist(), 5), "expected a real series, got dtype bool", id="hill-bool-list"),
    pytest.param(lambda: fit_ar(_FLIPS, 1), "expected a real series, got dtype bool", id="fit_ar-bool"),
])
def test_a_bad_argument_is_a_type_error_naming_it(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("level", [1e-17, 1e-300, 2.0**-54])
def test_a_level_whose_complement_rounds_to_one_is_named(level, monkeypatch):
    # 1 - level == 1.0, yet the critical value is solved at the level itself: scipy's survival
    # function of the Kolmogorov law reads the level back from it
    critical_value = run_test(HAND, TailTestConfig(k=2, level=level)).critical_value
    assert kolmogorov(critical_value) == pytest.approx(level, rel=1e-13, abs=0.0)
    assert residual_cusum(HAND * 2, order=1, k=2, level=level).critical_value == critical_value
    solved = []

    def solve(cdf, sf):
        solved.append(null_dist._solve(cdf, sf))
        return solved[-1]

    monkeypatch.setattr(experiments, "_solve", solve)
    spec = SimulationSpec(model=ModelSpec("iid", BurrParams.from_alpha(2.0, -1.0)), n=100, k_grid=(10,),
                          level=level, replications=3)
    assert run_table(spec).rows[0].error_count == 0
    assert solved == [critical_value]


def test_the_smallest_usable_level_has_a_finite_critical_value():
    assert 4.3 < run_test(HAND, TailTestConfig(k=2, level=2.0**-53)).critical_value < 4.4
    # the smallest normal float is usable, the largest subnormal one is not
    assert 18.8 < run_test(HAND, TailTestConfig(k=2, level=2.0**-1022)).critical_value < 18.9
    with pytest.raises(ValueError, match="level must be at least 2\\*\\*-1022"):
        TailTestConfig(k=2, level=float(np.nextafter(2.0**-1022, 0.0)))


@pytest.mark.parametrize("level", [0.9, 0.5, 0.05, 1e-10])
def test_the_critical_value_is_the_reference_quantile_at_the_level(level):
    # above about 0.27 the solve ends on the CDF series, read at 1 - level, and from 0.5 up it also starts there
    critical_value = run_test(HAND, TailTestConfig(k=2, level=level)).critical_value
    assert kolmogorov(critical_value) == pytest.approx(level, rel=1e-13, abs=0.0)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=60_000), st.sampled_from([np.int32, np.int64, np.uint16, int]))
def test_config_accepts_integer_types_as_int(k, kind):
    cfg = TailTestConfig(k=kind(k))
    assert cfg.k == k and type(cfg.k) is int


def test_run_test_rejects_non_finite_input():
    for bad in (float("nan"), float("inf"), -float("inf")):
        x = [1.0, 2.0, 3.0, bad, 5.0, 6.0]
        with pytest.raises(ValueError, match="index 3"):
            run_test(x, TailTestConfig(k=2))


# ---------------------------------------------------------------------------
# sign invariance: every statistic is a function of |X|
# ---------------------------------------------------------------------------

# integer-valued, zero-heavy and tie-heavy signed data, with -0.0
signed_series = st.lists(
    st.one_of(st.integers(-10**6, 10**6).map(float), st.integers(-3, 3).map(float), st.just(-0.0)),
    min_size=2, max_size=40,
)


def result(fn, *args):
    """``fn(*args)``, an array as its bytes, or the type and message of the error it raises."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return value.tobytes() if isinstance(value, np.ndarray) else value


@settings(max_examples=150, deadline=None)
@given(signed_series.flatmap(lambda xs: st.tuples(st.just(xs), st.integers(1, len(xs)))))
def test_results_depend_on_absolute_values_only(case):
    xs, k = case
    x = np.asarray(xs)
    calls = [(hill, k), (estimate_omega, k), (estimate_chi, k, 1.5)]
    for phi in PHI_KINDS:
        calls += [(cusum_statistic, k, phi), (deviation_process, k, phi)]
        calls += [(run_test, TailTestConfig(k=k, phi=phi, adjust=adjust)) for adjust in ADJUST_MODES]
    for fn, *args in calls:
        assert result(fn, x, *args) == result(fn, -x, *args) == result(fn, np.abs(x), *args)
    # the residual test folds the residuals: a sign flip of the series flips them
    for phi in PHI_KINDS:
        for method in FIT_METHODS:
            folded = result(lambda v: run_test(np.abs(fit_ar(v, 1, method).residuals),
                                               TailTestConfig(k=k, phi=phi)), x)
            got = result(residual_cusum, x, 1, k, phi, method)
            assert got == result(residual_cusum, -x, 1, k, phi, method) == folded
