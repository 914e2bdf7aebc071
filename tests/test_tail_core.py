import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hill_oracle, pareto_sample
from tailshift import kernel
from tailshift.ar_fit import DegenerateDataError, fit_ar, residual_cusum
from tailshift.cusum import TailTestConfig, cusum_statistic, deviation_process, run_test
from tailshift.tail_core import (
    DegenerateThresholdError,
    _at_k,
    _finite_rows,
    _real_series,
    estimate_chi,
    estimate_omega,
    hill,
    nonneg_view,
)
from tailshift.variates import replication_rng

# integer-valued positive data keeps float comparisons exact
positive_series = st.lists(
    st.integers(min_value=1, max_value=10**6).map(float), min_size=2, max_size=40
)


def series_and_k():
    return positive_series.flatmap(
        lambda xs: st.tuples(st.just(xs), st.integers(min_value=1, max_value=len(xs) - 1))
    )


def total(x, k, phi="indicator"):
    """The kernel's row total at ``k``: the exceedance count or the summed log excesses."""
    return float(_at_k(x, k, phi)[1].total[0])


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

def test_nonneg_view_modes():
    assert np.array_equal(nonneg_view([-1.0, 2.0]), [1.0, 2.0])
    for shaped in ([[1.0, 2.0]], [[-1.0, 2.0]], 3.0):
        with pytest.raises(ValueError, match="^expected a 1-d series, got shape "):
            nonneg_view(shaped)
    assert nonneg_view([]).shape == (0,)


# ---------------------------------------------------------------------------
# hill
# ---------------------------------------------------------------------------

def test_hill_hand_example():
    # values exp(3), exp(1), exp(2), 1 with k=2: threshold exp(1),
    # positive log excesses (2, 0, 1, 0)
    est = hill(np.exp([3.0, 1.0, 2.0, 0.0]), 2)
    assert est.hill_mean == pytest.approx(1.5, abs=1e-12)
    assert est.alpha_hat == pytest.approx(2.0 / 3.0, abs=1e-12)
    # a numpy integer k is stored as a plain int, as TailTestConfig stores it
    assert type(hill(np.exp([3.0, 1.0, 2.0, 0.0]), np.int64(2)).k) is int


def test_hill_constant_series_flags_infinite_alpha():
    est = hill([4.0, 4.0, 4.0, 4.0], 2)
    assert est.hill_mean == 0.0
    assert math.isinf(est.alpha_hat)


def test_hill_zero_threshold_is_degenerate():
    with pytest.raises(DegenerateThresholdError):
        hill([5.0, 4.0, 0.0, 0.0], 2)  # X_(3) = 0


def test_hill_k_range():
    with pytest.raises(ValueError):
        hill([1.0, 2.0, 3.0], 3)
    with pytest.raises(ValueError):
        hill([1.0, 2.0, 3.0], 0)


@settings(max_examples=200)
@given(series_and_k())
def test_hill_matches_brute_force(case):
    xs, k = case
    est = hill(xs, k)
    assert est.hill_mean == pytest.approx(hill_oracle(xs, k), rel=1e-12, abs=1e-12)


def test_hill_single_pareto_run_is_in_band():
    # single run: alpha_hat within 2 +/- 0.5 (about 2.5 sd at k = 100)
    x = pareto_sample(replication_rng(99, 0), 10_000, 2.0)
    assert hill(x, 100).alpha_hat == pytest.approx(2.0, abs=0.5)


# ---------------------------------------------------------------------------
# exceedances and log excesses, read from the kernel row
# ---------------------------------------------------------------------------

def test_excess_indicators_hand_cases():
    # only 5 exceeds X_(2) = 3: the path steps up by 1 - 1/4 at l = 1, then down by 1/4
    assert total([5, 1, 2, 3], 2) == 1.0
    assert deviation_process([5, 1, 2, 3], 2).tolist() == [0.75, 0.5, 0.25, 0.0]
    assert total([9.0, 9.0, 9.0], 1) == 0.0
    assert deviation_process([9.0, 9.0, 9.0], 1).tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=200)
@given(series_and_k())
def test_excess_indicator_sum_is_k_minus_1_without_ties(case):
    xs, k = case
    if len(set(xs)) != len(xs):
        xs = [x + i * 1e-3 for i, x in enumerate(xs)]  # break ties deterministically
    assert total(xs, k) == k - 1


@settings(max_examples=100)
@given(series_and_k())
def test_excess_indicators_rank_invariance(case):
    xs, k = case
    base = deviation_process(xs, k)
    v = np.asarray(xs)
    for transformed in (v + 2.5, np.sqrt(v), v**3, np.log1p(v)):
        assert np.array_equal(deviation_process(transformed, k), base)


def test_log_excesses_hand_case():
    # one log excess, log(5/3) at l = 1
    assert total([5, 1, 2, 3], 2, "log_excess") == pytest.approx(math.log(5 / 3), abs=1e-12)
    out = deviation_process([5, 1, 2, 3], 2, "log_excess")
    assert out == pytest.approx([math.log(5 / 3) * (1 - l / 4) for l in range(1, 5)], abs=1e-12)
    assert total([2.0, 2.0, 2.0], 1, "log_excess") == 0.0
    assert np.array_equal(deviation_process([2.0, 2.0, 2.0], 1, "log_excess"), np.zeros(3))
    with pytest.raises(DegenerateThresholdError):
        deviation_process([5.0, 0.0, 0.0], 2, "log_excess")


@settings(max_examples=100)
@given(series_and_k(), st.integers(min_value=-8, max_value=8))
@example(([3.0, 1.0, 7.0, 2.0, 5.0, 4.0], 2), -8)  # thresholds below 1 once scaled
def test_scale_invariance_exact_for_power_of_two(case, exponent):
    xs, k = case
    c = 2.0**exponent
    scaled = [c * x for x in xs]
    assert np.array_equal(deviation_process(scaled, k), deviation_process(xs, k))
    assert deviation_process(scaled, k, "log_excess") == pytest.approx(
        deviation_process(xs, k, "log_excess"), rel=1e-12, abs=1e-12
    )
    assert hill(scaled, k).hill_mean == pytest.approx(hill(xs, k).hill_mean, rel=1e-12, abs=1e-12)
    assert estimate_omega(scaled, k) == estimate_omega(xs, k)
    assert estimate_chi(scaled, k, 1.3) == pytest.approx(estimate_chi(xs, k, 1.3), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# omega / chi
# ---------------------------------------------------------------------------

def test_omega_hand_case():
    # threshold X_(3) = 3; indicators (1, 1, 0, 0, 0): one adjacent pair
    assert estimate_omega([6, 5, 1, 2, 3], 3) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_omega_no_adjacent_excesses():
    assert estimate_omega([9, 1, 8, 1, 7, 1, 1, 1], 3) == 0.0


def test_omega_iid_pareto_is_near_zero():
    x = pareto_sample(replication_rng(55, 1), 100_000, 2.0)
    assert abs(estimate_omega(x, 500)) <= 0.05


def test_chi_hand_chain():
    x = [6.0, 5.0, 1.0, 2.0, 3.0]
    alpha_hat = hill(x, 3).alpha_hat
    assert alpha_hat == pytest.approx(1.239481, abs=1e-6)
    # single adjacent product log(2) * log(5/3) with threshold X_(3) = 3
    expected = (2.0 * alpha_hat / 3.0) * math.log(2.0) * math.log(5.0 / 3.0)
    got = estimate_chi(x, 3, alpha_hat)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.29258, abs=1e-5)


def test_chi_no_adjacent_excesses():
    assert estimate_chi([9, 1, 8, 1, 7, 1, 1, 1], 3, 1.0) == 0.0


def test_chi_requires_finite_alpha():
    with pytest.raises(DegenerateThresholdError):
        estimate_chi([5, 1, 2, 3], 2, float("inf"))
    with pytest.raises(DegenerateThresholdError):
        estimate_chi([5, 1, 2, 3], 2, 0.0)


@pytest.mark.parametrize("alpha_hat, kind", [(True, "bool"), (False, "bool"), ("2", "str"), (None, "NoneType"),
                                             (2 + 0j, "complex")])
def test_chi_rejects_an_alpha_hat_that_is_not_real(alpha_hat, kind):
    # True would be read as 1 and give a number; a str reached numpy's unnamed isfinite error
    with pytest.raises(TypeError, match=f"^alpha_hat must be a real number, got .* of type {kind}$"):
        estimate_chi([5, 1, 2, 3, 4, 1], 2, alpha_hat)


def test_omega_chi_lag_extension():
    # excesses at positions 0 and 2: a lag-2 pair, which the lag-1 estimators ignore
    x = [9.0, 1.0, 8.0, 1.0, 1.0, 1.0]
    assert estimate_omega(x, 3) == 0.0
    assert estimate_chi(x, 3, 1.0) == 0.0


def test_nonneg_view_rejects_non_finite_values():
    with pytest.raises(ValueError, match="index 2 \\(nan\\)"):
        nonneg_view([1.0, 2.0, float("nan"), float("inf")])
    with pytest.raises(ValueError, match="index 0 \\(-inf\\)"):
        nonneg_view([-float("inf"), 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        hill([1.0, float("inf"), 2.0, 3.0], 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("index", [0, 17, 39])
@pytest.mark.parametrize("entry", [
    lambda x: run_test(x, TailTestConfig(k=5)),
    lambda x: run_test(x, TailTestConfig(k=5, phi="log_excess", adjust="lag1")),
    lambda x: fit_ar(x, 2),
    lambda x: fit_ar(x, 1, "yule_walker"),
    lambda x: residual_cusum(x, order=1, k=5),
], ids=["run_test", "run_test-log_excess-lag1", "fit_ar-ols", "fit_ar-yule_walker", "residual_cusum"])
def test_each_entry_names_the_first_non_finite_value(entry, index, bad):
    # the one-reduction check falls back to the exact search, which names the input index and value
    x = replication_rng(3, 0).standard_t(3.0, 60)
    x[index] = bad
    x[-1] = np.nan  # a later bad value is not the one named
    with pytest.raises(ValueError, match=f"^series contains a non-finite value at index {index} \\({bad!r}\\)$"):
        entry(x)


def test_finite_values_whose_sum_overflows_pass_without_warning():
    # values near 1e308: their sum overflows to inf, so the exact check runs and finds every value finite
    x = 0.5e308 * (1.0 + replication_rng(4, 0).uniform(size=50))
    x[::7] *= -1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.array_equal(_finite_rows(x[None])[0], x)
        assert np.array_equal(nonneg_view(x), np.abs(x))
        assert _finite_rows(np.stack([x, -x])).shape == (2, 50)
        assert run_test(x, TailTestConfig(k=5)).n == 50
        with pytest.raises(DegenerateDataError):  # finite input whose moments overflow: no fit, not a bad value
            fit_ar(x, 1)
    assert caught == []


def test_a_sum_on_either_side_of_overflow_passes_without_warning(monkeypatch):
    # the decision reads one sum of the block: 0.1 % below the largest float it is finite and nothing is searched,
    # 0.1 % above it is inf and the block is searched, which finds every value finite
    searches = []
    monkeypatch.setattr(kernel, "reject_non_finite", lambda rows: searches.append(rows.shape))
    y = 1.0 + np.abs(replication_rng(4, 1).standard_t(3.0, 1000))
    for factor, searched in ((0.999, 0), (1.001, 1)):
        x = factor * (np.finfo(float).max / np.add.reduce(y)) * y
        searches.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert np.isfinite(x).all() and np.isinf(np.add.reduce(x)) == searched
            assert np.shares_memory(_finite_rows(x[None])[0], x) and np.array_equal(_finite_rows(x[None])[0], x)
            assert _finite_rows(np.stack([x, -x])).shape == (2, 1000)
            assert run_test(x, TailTestConfig(k=5, phi="log_excess", adjust="lag1")).n == 1000
        assert searches == [(1, 1000), (1, 1000), (2, 1000)][:3 * searched], factor


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_value_is_named_at_the_end_of_a_long_series_and_in_a_later_row(bad):
    x = replication_rng(5, 0).standard_t(3.0, 2**20)
    x[-1] = bad
    with pytest.raises(ValueError, match=f"^series contains a non-finite value at index {2**20 - 1} \\({bad!r}\\)$"):
        _finite_rows(x[None])[0]
    block = replication_rng(5, 1).standard_t(3.0, (3, 500))
    block[1, 321], block[2, 7] = bad, np.nan  # the first row that holds one is named
    with pytest.raises(ValueError, match=f"^series contains a non-finite value at index 321 \\({bad!r}\\)$"):
        _finite_rows(block)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_strided_view_is_checked_in_place(bad):
    x = replication_rng(5, 2).standard_t(3.0, 2**16)
    x[2 * 1000 + 1] = bad  # outside the view x[::2]
    assert np.shares_memory(_finite_rows(x[::2][None])[0], x)
    x[2 * 1000] = bad
    with pytest.raises(ValueError, match=f"^series contains a non-finite value at index 1000 \\({bad!r}\\)$"):
        _finite_rows(x[::2][None])[0]


@pytest.mark.parametrize("kind", ["complex128", "complex64", "list", "zero imaginary part"])
@pytest.mark.parametrize("entry", [
    lambda x: run_test(x, TailTestConfig(k=5)),
    lambda x: hill(x, 5),
    lambda x: fit_ar(x, 1),
    lambda x: residual_cusum(x, order=1, k=5),
], ids=["run_test", "hill", "fit_ar", "residual_cusum"])
def test_complex_input_is_a_type_error_naming_its_dtype(entry, kind):
    # a float conversion would drop the imaginary part with only a ComplexWarning
    dtype = "complex64" if kind == "complex64" else "complex128"
    x = replication_rng(3, 0).standard_t(3.0, 60) + (0j if kind == "zero imaginary part" else 0.5j)
    x = x.tolist() if kind == "list" else x.astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match=f"^expected a real series, got dtype {dtype}$"):
            entry(x)


def test_a_float64_series_is_viewed_not_copied():
    x = replication_rng(3, 0).standard_t(3.0, 60)
    assert np.shares_memory(_finite_rows(_real_series(x)[None])[0], x)


# ---------------------------------------------------------------------------
# degeneracies: which entry point raises, with which text
# ---------------------------------------------------------------------------

ZERO_FLOOR = "(k+1)-th largest value is 0 (k=2); the mean log excess is undefined"
ZERO_THRESHOLD = "k-th largest value is 0 (k=2); log excesses are undefined"
INFINITE_ALPHA = "alpha_hat is infinite; the log-excess scaling is undefined"

PHIS = ("indicator", "log_excess")
ENTRY_POINTS = {
    "hill": hill,
    "estimate_omega": estimate_omega,
    "estimate_chi": partial(estimate_chi, alpha_hat=1.0),
    **{f"{f.__name__}/{phi}": partial(f, phi=phi) for f in (cusum_statistic, deviation_process) for phi in PHIS},
    **{f"run_test/{phi}/{adjust}": lambda x, k, phi=phi, adjust=adjust: run_test(x, TailTestConfig(k, phi, adjust))
       for phi in PHIS for adjust in ("iid", "lag1")},
}
RUN_TESTS = [name for name in ENTRY_POINTS if name.startswith("run_test/")]


@pytest.mark.parametrize("x, raised", [
    # X_(2) = 4 > 0 = X_(3): only what reads the (k+1)-th largest value raises
    ([5.0, 4.0, 0.0, 0.0], {"hill": ZERO_FLOOR, **dict.fromkeys(RUN_TESTS, ZERO_FLOOR)}),
    # X_(2) = 0: log excesses over the threshold are undefined too, while the indicator forms count
    ([5.0, 0.0, 0.0, 0.0], {"hill": ZERO_FLOOR, **dict.fromkeys(RUN_TESTS, ZERO_FLOOR),
                            "estimate_chi": ZERO_THRESHOLD, "cusum_statistic/log_excess": ZERO_THRESHOLD,
                            "deviation_process/log_excess": ZERO_THRESHOLD}),
    # the top k + 1 = 3 values tie: alpha_hat is infinite, which only the log-excess scaling reads
    ([5.0, 5.0, 1.0, 5.0, 2.0, 3.0, 1.5, 0.5], dict.fromkeys(["run_test/log_excess/iid", "run_test/log_excess/lag1"],
                                                             INFINITE_ALPHA)),
], ids=["zero-floor", "zero-threshold", "tied-top"])
def test_each_degeneracy_raises_exactly_where_needed(x, raised):
    for name, entry in ENTRY_POINTS.items():
        if name not in raised:
            entry(x, 2)  # a statistic that does not read the missing quantity returns
            continue
        with pytest.raises(DegenerateThresholdError) as info:
            entry(x, 2)
        assert type(info.value) is DegenerateThresholdError, name
        assert str(info.value) == raised[name], name


def test_non_integer_k_is_a_type_error():
    for k in (2.0, 2.5, True, "2"):
        with pytest.raises(TypeError):
            hill([5.0, 1.0, 2.0, 3.0], k)
