import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleDegenerate, tail_test_oracle
from tailshift.cusum import TailTestConfig, cusum_statistic, deviation_process, run_test
from tailshift.kernel import TailGrid, tail_grid
from tailshift.tail_core import DegenerateThresholdError, _at_k, estimate_omega, hill
from tailshift.variates import ModelSpec, TDistParams, simulate

PAIRS = [(phi, adjust) for phi in ("indicator", "log_excess") for adjust in ("iid", "lag1")]


def _close(got, want):
    if math.isinf(want):
        return got == want
    return got == pytest.approx(want, rel=1e-12, abs=1e-300)


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=2, max_size=7),
    st.data(),
)
def test_grid_matches_oracle_at_every_k(xs, data):
    n = len(xs)
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=n + 1), min_size=1, max_size=6))
    v = np.asarray(xs)
    for phi, adjust in PAIRS:
        grid = tail_grid(v, ks, phi, adjust)
        for j, k in enumerate(ks):
            try:
                want = tail_test_oracle(xs, k, phi, adjust)
            except OracleDegenerate:
                assert grid.degenerate[j], (phi, adjust, k)
                continue
            assert not grid.degenerate[j], (phi, adjust, k)
            assert grid.statistic[j] == want["statistic"]
            assert grid.l_hat[j] == want["l_hat"]
            assert _close(grid.alpha_hat[j], want["alpha_hat"])
            assert _close(grid.scale[j], want["scale"])
            if adjust == "lag1":
                assert _close(grid.omega_hat[j], want["omega_hat"])
                if want["chi_hat"] is None:
                    assert np.isnan(grid.chi_hat[j])
                else:
                    assert _close(grid.chi_hat[j], want["chi_hat"])


def _path_extremum(x, k, phi):
    """Statistic and first maximizer read off the full deviation process."""
    abs_d = np.abs(deviation_process(x, k, phi))
    return abs_d.max() / np.sqrt(k), int(abs_d.argmax()) + 1


@settings(max_examples=300)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=2, max_size=12))
def test_breakpoints_match_the_full_path(xs):
    # the kernel reads D only at the segment ends; ties make long flat stretches
    for k in range(1, len(xs)):
        for phi in ("indicator", "log_excess"):
            try:
                want = _path_extremum(xs, k, phi)
            except DegenerateThresholdError:
                continue  # zero threshold: no log excesses, and no statistic either
            assert cusum_statistic(xs, k, phi) == want, (k, phi)


EDGE_CASES = [
    ([5.0, 1.0, 5.0, 1.0, 5.0], 4),  # the first value exceeds: the segment before it is empty
    ([1.0, 2.0, 0.0, 1.0, 2.0, 5.0], 2),  # the last value exceeds
    ([2.0] * 5, 2),  # all tied: no exceedance, total == 0
    ([5.0, 1.0, 1.0, 5.0], 3),  # D reaches +M at l = 1 and -M at l = 3
    ([1.0, 5.0, 5.0, 1.0], 3),  # and the mirror
]


@pytest.mark.parametrize("phi", ["indicator", "log_excess"])
@pytest.mark.parametrize("x, k", EDGE_CASES)
def test_breakpoint_edge_cases(x, k, phi):
    assert cusum_statistic(x, k, phi) == _path_extremum(x, k, phi)


@pytest.mark.parametrize("phi", ["indicator", "log_excess"])
def test_breakpoint_edge_case_values(phi):
    # the last value exceeds: D falls until l = n - 1 and jumps back to 0 at n
    assert cusum_statistic([1.0, 2.0, 0.0, 1.0, 2.0, 5.0], 2, phi)[1] == 5
    # D == 0 everywhere: the first position is the maximizer
    assert cusum_statistic([2.0] * 5, 2, phi) == (0.0, 1)
    for x in ([5.0, 1.0, 1.0, 5.0], [1.0, 5.0, 5.0, 1.0]):
        d = deviation_process(x, 3, phi)
        assert d.max() == pytest.approx(-d.min(), rel=1e-15) and d.max() > 0.0
        if phi == "indicator":  # exact counts: +M and -M tie and the first one wins
            assert d.max() == -d.min() and cusum_statistic(x, 3, phi)[1] == 1


def test_grid_rows_equal_one_element_grids():
    x = np.abs(simulate(ModelSpec("ma1", TDistParams(2.0), coef=0.5), 1000, seed=5))
    ks = list(range(10, 101, 10))
    for phi, adjust in PAIRS:
        grid = tail_grid(x, ks, phi, adjust)
        for j, k in enumerate(ks):
            one = tail_grid(x, [k], phi, adjust)
            assert (grid.threshold[j], grid.total[j]) == (one.threshold[0], one.total[0])
            assert (grid.statistic[j], grid.l_hat[j]) == (one.statistic[0], one.l_hat[0])
            assert grid.alpha_hat[j] == pytest.approx(one.alpha_hat[0], rel=1e-14)
            assert grid.scale[j] == pytest.approx(one.scale[0], rel=1e-14)


# ties make rows of one block differ in their count m of values above the
# smallest threshold; zeros give zero thresholds
BLOCK_VALUES = st.sampled_from([0.0, 1.0, 2.0, 5.0]) | st.floats(0.5, 9.0)


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(2, 14), st.data())
def test_block_rows_equal_single_series(rows, n, data):
    block = np.array(data.draw(st.lists(st.lists(BLOCK_VALUES, min_size=n, max_size=n), min_size=rows,
                                        max_size=rows)))
    if data.draw(st.booleans()):
        block[:, 0] = 10.0  # the first value exceeds every threshold
    if data.draw(st.booleans()):
        block[0] = 3.0  # a fully tied row: nothing lies above its smallest threshold
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=n + 1), min_size=1, max_size=5))
    for phi in (None, "indicator", "log_excess"):
        for adjust in ("iid", "lag1"):
            grid = tail_grid(block, ks, phi, adjust)
            for r, series in enumerate(block):
                one = tail_grid(series, ks, phi, adjust)
                for name in TailGrid._fields:
                    want, got = getattr(one, name), getattr(grid, name)
                    if want is None:
                        assert got is None, name
                    else:
                        assert got.shape == (rows, len(ks)), name
                        assert got[r].tobytes() == want.tobytes(), (name, phi, adjust, r)


def test_fully_tied_top_keeps_alpha_infinite():
    x = [5.0, 5.0, 1.0, 5.0, 2.0, 3.0, 1.5, 0.5]
    assert math.isinf(hill(x, 2).alpha_hat)
    grid = tail_grid(np.asarray(x), [1, 2, 3], "log_excess")
    assert math.isinf(grid.alpha_hat[0]) and math.isinf(grid.alpha_hat[1])
    assert np.isfinite(grid.alpha_hat[2])
    assert grid.degenerate.tolist() == [True, True, False]


def test_lag1_indicator_with_infinite_alpha_reports_no_chi():
    # the top k + 1 = 3 values tie, so every log excess over X_(k+1) vanishes
    x = [5.0, 5.0, 1.0, 5.0, 2.0, 3.0, 1.5, 0.5]
    out = run_test(x, TailTestConfig(k=2, phi="indicator", adjust="lag1"))
    assert math.isinf(out.alpha_hat)
    assert out.chi_hat is None
    assert out.omega_hat == estimate_omega(x, 2)
    assert out.scale_factor == pytest.approx(1.0 / math.sqrt(1.0 + out.omega_hat))
    with pytest.raises(DegenerateThresholdError):
        run_test(x, TailTestConfig(k=2, phi="log_excess", adjust="lag1"))


def test_zero_threshold_rows_are_degenerate_not_raised():
    v = np.asarray([4.0, 0.0, 3.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    grid = tail_grid(v, [1, 2, 3, 4], "log_excess", "lag1")
    assert grid.degenerate.tolist() == [False, False, True, True]
    assert np.isnan(grid.alpha_hat[3])


def test_threshold_hand_cases():
    # the threshold is the k-th largest value of the view
    assert tail_grid(np.asarray([5.0, 1.0, 2.0, 3.0]), [1, 2, 3]).threshold.tolist() == [5.0, 3.0, 2.0]
    assert tail_grid(np.asarray([7.5, 7.5, 7.5]), [2]).threshold[0] == 7.5
    assert _at_k([-4, 1, 2, 3], 1)[1].threshold[0] == 4.0  # absolute-value view
    assert _at_k([5, 1, 2, 3], np.int64(3))[1].threshold[0] == 2.0
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must satisfy"):
            _at_k([1, 2, 3], k)
    for k in (True, 2.0):
        with pytest.raises(TypeError, match="k must be an integer"):
            _at_k([5, 1, 2, 3], k)


def test_kernel_imports_no_package_module():
    # the kernel is a leaf: a package import here would close a cycle through tail_core
    source = Path(__file__).parents[1] / "src" / "tailshift" / "kernel.py"
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("tailshift"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("tailshift") for alias in node.names), ast.unparse(node)


def test_total_hand_cases():
    # X_(2) = X_(3) = 2 tie: only 4 exceeds either threshold, one exceedance instead of k - 1
    v = np.asarray([1.0, 2.0, 4.0, 2.0])
    assert tail_grid(v, [2, 3], "indicator").total.tolist() == [1.0, 1.0]
    assert tail_grid(v, [2, 3], "log_excess").total.tolist() == [math.log(2.0)] * 2
    # a zero threshold X_(3) = 0 counts every positive value
    v = np.asarray([3.0, 0.0, 0.0, 2.0, 0.0])
    assert tail_grid(v, [1, 2, 3], "indicator", "lag1").total.tolist() == [0.0, 1.0, 2.0]
    grid = tail_grid(v, [1, 2, 3], "log_excess")
    assert grid.total[:2].tolist() == [0.0, math.log(1.5)]
    assert grid.degenerate[2]  # no log excesses over a zero threshold: the row is flagged
    # without a statistic there is no row total
    assert tail_grid(v, [1, 2]).total is None
    assert tail_grid(v, [1, 2], adjust="lag1").total is None
