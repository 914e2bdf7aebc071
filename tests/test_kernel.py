import ast
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleDegenerate, tail_test_oracle
from tailshift import kernel
from tailshift.ar_fit import fit_ar, residual_cusum
from tailshift.cusum import TailTestConfig, cusum_statistic, deviation_process, run_test
from tailshift.kernel import TailGrid, tail_grid
from tailshift.tail_core import DegenerateThresholdError, _at_k, estimate_omega, hill
from tailshift.variates import ModelSpec, TDistParams, replication_rng, simulate

PAIRS = [(phi, adjust) for phi in ("indicator", "log_excess") for adjust in ("iid", "lag1")]
CHUNK = kernel._CHUNK  # values of a long series scanned at a time


def _close(got, want):
    if math.isinf(want):
        return got == want
    return got == pytest.approx(want, rel=1e-12, abs=1e-300)


def _status_oracle(xs, k, phi):
    """The kernel's status bits at ``k``, read off the sorted values (a ``k`` past ``n - 1`` is read at ``n - 1``)."""
    srt = sorted(xs, reverse=True)
    j = min(k, len(xs) - 1)
    bits = kernel.TOO_SHORT if len(xs) < max(4, k + 2) else 0
    if srt[j] == 0.0:
        bits |= kernel.ZERO_FLOOR
    if srt[j - 1] == 0.0:
        bits |= kernel.ZERO_THRESHOLD
    if phi == "log_excess" and 0.0 < srt[j] == srt[0]:  # a tied top: every log excess over X_(k+1) vanishes
        bits |= kernel.INFINITE_ALPHA
    return bits


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=2, max_size=7),
    st.data(),
)
def test_grid_matches_oracle_at_every_k(xs, data):
    n = len(xs)
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=n + 1), min_size=1, max_size=6))
    v = np.asarray(xs)
    # more series of the same length: each row of the block reports the status of its series alone
    block = np.asarray([xs] + data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=n, max_size=n), max_size=3)))
    for phi, adjust in PAIRS:
        grid = tail_grid(v, ks, phi, adjust)
        rows = tail_grid(block, ks, phi, adjust).status
        assert [row.tolist() for row in rows] == [tail_grid(b, ks, phi, adjust).status.tolist() for b in block]
        for j, k in enumerate(ks):
            assert grid.status[j] == _status_oracle(xs, k, phi), (phi, adjust, k)
            try:
                want = tail_test_oracle(xs, k, phi, adjust)
            except OracleDegenerate:
                assert grid.status[j] != 0, (phi, adjust, k)
                continue
            assert grid.status[j] == 0, (phi, adjust, k)
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


@pytest.mark.parametrize("phi", [None, "indicator", "log_excess"])
@pytest.mark.parametrize("adjust", ["iid", "lag1"])
def test_an_empty_block_gets_every_requested_field_with_no_rows(phi, adjust):
    empty = tail_grid(np.empty((0, 100)), [5, 10], phi, adjust)
    rows = tail_grid(replication_rng(3, 0).standard_t(3.0, (2, 100)), [5, 10], phi, adjust)
    for name in TailGrid._fields:  # the fields a block with rows gets, with their dtypes
        want, got = getattr(rows, name), getattr(empty, name)
        if want is None:
            assert got is None, name
        else:
            assert got.shape == (0, 2) and got.dtype == want.dtype, name


def _assert_same_grids(got_grid, want_grid, where):
    for name in TailGrid._fields:
        want, got = getattr(want_grid, name), getattr(got_grid, name)
        if want is None:
            assert got is None, (name, where)
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, where)


def test_signed_input_is_folded_into_a_copy_of_its_own():
    # a series or block that is not sampled is folded by the kernel into a copy (a sampled one only at its
    # hits): the grid equals that of the absolute values bit for bit, and neither input is written
    rng = np.random.default_rng(11)
    cases = [(x, 40) for x in (rng.standard_t(3, 2**15 + 7), rng.standard_t(3, 60), rng.standard_t(3, (3, 60)),
                               np.array([2.0, -0.0, 0.0, 1.0, 3.0]), np.r_[np.full(64, 2.0), 3.0, -1.0, 0.5],
                               np.r_[np.full(64, 2.0), -5.0, 1.0])]  # the first 64 are positive, the largest |x| is not
    wide = rng.standard_t(3, 3 * CHUNK + 1)  # k above n // 128, a stride under 16: a long series folded whole
    assert kernel._pool(wide, 800)[0] is None
    cases += [(wide, 800), (np.abs(wide), 800)]
    for x, top in cases:
        signed, folded = x.copy(), np.abs(x)
        ks = [1, 2, min(x.shape[-1] - 1, top)]
        for phi in (None, "indicator", "log_excess"):
            for adjust in ("iid", "lag1"):
                _assert_same_grids(tail_grid(x, ks, phi, adjust), tail_grid(folded, ks, phi, adjust), (phi, adjust))
        assert x.tobytes() == signed.tobytes() and folded.tobytes() == np.abs(signed).tobytes()


def _sorted_pool(x, kmax):
    """The least pool, from a full sort: the positions and absolute values at least the (kmax+1)-th largest."""
    v = np.abs(x)
    pos = (v >= np.sort(v)[-kmax - 1]).nonzero()[0]
    return pos, v[pos]


def _assert_sampled_selection_exact(x, ks):
    """A long series goes through the sampled pool, and every grid equals the block row, the full sort and
    the grid of the series' folded copy; the pool of ``x`` is the pool of that copy."""
    kmax = min(max(ks), x.size - 1)
    folded = np.abs(x)
    pos, pool = kernel._pool(x, kmax)
    assert pos is not None  # the series is long enough to be sampled
    assert all(a.tobytes() == b.tobytes() for a, b in zip((pos, pool), kernel._pool(folded, kmax)))
    for phi in (None, "indicator", "log_excess"):
        for adjust in ("iid", "lag1"):
            one = tail_grid(x, ks, phi, adjust)
            row = tail_grid(x[None], ks, phi, adjust)
            _assert_same_grids(one, TailGrid(*(None if f is None else f[0] for f in row)), (phi, adjust))
            _assert_same_grids(one, tail_grid(folded, ks, phi, adjust), (phi, adjust, "folded"))
            with mock.patch.object(kernel, "_pool", _sorted_pool):
                _assert_same_grids(one, tail_grid(x, ks, phi, adjust), (phi, adjust, "sort"))


def _sample(v, kmax):
    """The sample of the pool's bound: ``kmax + 1`` evenly spaced runs of 8 values, the ``n % (kmax + 1)`` tail
    never read."""
    n = v.size
    return v[:n - n % (kmax + 1)].reshape(kmax + 1, -1)[:, :8].ravel()


def _guess_count(v, kmax):
    """How many values reach the sampled guess bound: the retry is taken when at most kmax do."""
    s = v.size // (8 * (kmax + 1))
    return np.add.reduce(v >= np.sort(_sample(v, kmax))[-(2 * (kmax + 1) // s + 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 20_000), st.sampled_from(["alphabet", "t", "pareto"]),
       st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
def test_sampled_selection_equals_the_block_row_and_a_full_sort(kmax, extra, kind, size, seed, data):
    # 2**15 values and a stride of at least 16 take the sampled pool; tied alphabets tie at every bound
    n = 2**15 + extra
    rng = np.random.default_rng(seed)
    if kind == "alphabet":
        v = rng.integers(0, size + 1, n).astype(float)
    elif kind == "t":
        v = np.abs(rng.standard_t(size, n))
    else:
        v = np.round(rng.pareto(size / 2.0, n), 1)
    ks = data.draw(st.lists(st.integers(1, kmax), min_size=1, max_size=4)) + [kmax]
    if data.draw(st.booleans()):  # a signed series, read in place
        v = np.where(rng.random(n) < 0.5, -v, v)
    _assert_sampled_selection_exact(v, ks)


def test_sampled_selection_guess_bound_suffices():
    v = np.abs(simulate(ModelSpec("ma1", TDistParams(3.0), coef=0.5), 50_000, seed=2))
    assert _guess_count(v, 50) > 50
    assert kernel._pool(v, 50)[1].size < 1000  # a pool of a few hundred values, not the series
    _assert_sampled_selection_exact(v, [5, 20, 50])


def test_sampled_selection_retries_when_the_sample_meets_every_spike():
    # rising spikes at every sampled position, ties at 1 elsewhere: the sample holds only spikes,
    # so the guess bound is reached by g <= kmax values and the (kmax+1)-th sampled value is taken;
    # the second series has signed values over three chunks and a tail of 32 values the sample never reads
    for n, kmax, sign in ((2**15, 50, 1.0), (3 * CHUNK + 1, 100, -1.0)):
        i = np.arange(n)
        sampled = (i % (n // (kmax + 1)) < 8) & (i < n - n % (kmax + 1))
        x = np.where(sampled, 1.0 + np.cumsum(sampled), 1.0) * sign ** i
        assert sampled.sum() == 8 * (kmax + 1) and np.all(np.abs(_sample(x, kmax)) > 1.0)
        assert _guess_count(np.abs(x), kmax) <= kmax
        assert kernel._pool(x, kmax)[1].size == kmax + 1
        _assert_sampled_selection_exact(x, [1, 10, kmax])


def test_sampled_selection_all_tied_pools_the_whole_series():
    for x in (np.full(2**15, 2.0), np.where(np.arange(2 * CHUNK + 1) % 3 == 0, -2.0, 2.0)):
        pos, pool = kernel._pool(x, 10)
        assert pos.tolist() == list(range(x.size)) and pool.tolist() == [2.0] * x.size
        _assert_sampled_selection_exact(x, [1, 10])
        assert tail_grid(x, [10], "indicator").n_exceed.tolist() == [0]


@pytest.mark.parametrize("n", [2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK, 3 * CHUNK + 1])
def test_chunked_pool_at_whole_chunks_and_one_either_side(n):
    # the top values and a tie straddle the first chunk boundary and sit at both ends of the series
    x = np.round(replication_rng(8, n).standard_t(3.0, n), 1)
    x[[CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, 0, n - 1]] = [40.0, -50.0, 50.0, -40.0, -45.0, 45.0]
    x[2 * CHUNK - 1: 2 * CHUNK + 1] = [-60.0, 30.0][: n - 2 * CHUNK + 1]  # the second boundary, where it exists
    _assert_sampled_selection_exact(x, [1, 2, 5, 50, 300])


@pytest.mark.parametrize("n, k", [(1000, 10), (3 * CHUNK + 1, 300)])
@pytest.mark.parametrize("phi", ["indicator", "log_excess"])
def test_residual_cusum_is_run_test_of_the_folded_residuals(n, k, phi):
    x = simulate(ModelSpec("ma1", TDistParams(3.0), coef=0.5), n, seed=6)
    assert (kernel._pool(x, k)[0] is None) == (n < CHUNK)  # the long series is read in chunks
    for order in (1, 2):
        residuals = fit_ar(x, order).residuals
        assert residual_cusum(x, order, k, phi) == run_test(np.abs(residuals), TailTestConfig(k=k, phi=phi))


def test_long_signed_series_is_read_without_a_copy():
    # an 8 MB series: one folded copy of it alone would be 8 MB, and so would a full-length row of log excesses
    x = replication_rng(9, 0).standard_t(3.0, 2**20)
    for phi, adjust in (("indicator", "iid"), ("log_excess", "iid"), ("log_excess", "lag1")):
        cfg = TailTestConfig(k=1000, phi=phi, adjust=adjust)
        want = run_test(np.abs(x), cfg)
        tracemalloc.start()
        try:
            got = run_test(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want, (phi, adjust)
        assert peak < 2**20, (phi, adjust, peak)


def test_short_series_and_blocks_are_not_sampled():
    # below 2**15 values, or with a stride under 16, one partition of the whole series is cheaper
    rng = np.random.default_rng(4)
    for x, kmax in ((rng.random(2**15 - 1), 1), (rng.random(2**15), 2**15 // 128), (rng.random((2, 2**16)), 1)):
        for y in (x, 0.5 - x):  # positive and signed: either is folded into the kernel's own copy
            pos, pool = kernel._pool(y, kmax)
            assert pos is None
            assert not np.shares_memory(pool, y) and pool.tobytes() == np.abs(y).tobytes()
    assert kernel._pool(rng.random(2**15), 2**15 // 128 - 1)[0] is not None


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 250), st.integers(0, 250), st.integers(0, 2**32 - 1),
       st.sampled_from(["t", "alphabet"]), st.sampled_from([1, 2, 3, -1, -2]),
       st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3), st.data())
def test_pool_holds_the_top_and_every_non_finite_value(kmax, rest, seed, kind, stride, bad, data):
    # any n % (kmax + 1), a signed or tied series, read through a strided view: the pool holds every position
    # whose |x| is at least the (kmax+1)-th largest (NaN last) and every NaN and infinite value, at its |x|
    q = max(2**15 // (kmax + 1) + 1, 128) + data.draw(st.integers(0, 64))
    n = q * (kmax + 1) + rest % (kmax + 1)
    rng = np.random.default_rng(seed)
    base = rng.standard_t(3.0, n * abs(stride))
    if kind == "alphabet":
        base = np.round(base)
    x = base[::stride]
    positions = data.draw(st.lists(st.integers(0, n - 1), min_size=len(bad), max_size=len(bad)))
    x[positions] = bad
    pos, pool = kernel._pool(x, kmax)
    assert pos is not None and np.all(np.diff(pos) > 0)
    assert np.array_equal(pool, np.abs(x[pos]), equal_nan=True)
    folded = np.abs(x)
    least = np.sort(folded)[-kmax - 1]
    must = np.union1d((folded >= least).nonzero()[0], (~np.isfinite(x)).nonzero()[0])
    assert np.isin(must, pos).all()


# a long series (three chunks and 5 values) at k = 100: runs of 973 values, each sampled at its first 8, and a
# tail of 36 the sample never reads
LONG_N, LONG_K = 3 * CHUNK + 5, 100
SPOTS = {"in a run": 5 * 973 + 3, "between runs": 5 * 973 + 500, "chunk end": CHUNK - 1, "chunk start": CHUNK,
         "tail": LONG_N - 20, "last": LONG_N - 1}
LONG_ENTRIES = {**{f"run_test-{phi}-{adjust}": lambda x, k, phi=phi, adjust=adjust: run_test(
    x, TailTestConfig(k=k, phi=phi, adjust=adjust)) for phi, adjust in PAIRS},
    "hill": hill, "cusum_statistic": cusum_statistic, "deviation_process": deviation_process,
    "residual_cusum": lambda x, k: residual_cusum(x, 1, k)}


def _named(index, bad):
    return pytest.raises(ValueError, match=f"^series contains a non-finite value at index {index} \\({bad!r}\\)$")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spot", SPOTS)
def test_a_non_finite_value_anywhere_in_a_long_series_is_named(spot, bad):
    x = replication_rng(12, 0).standard_t(3.0, LONG_N)
    i = SPOTS[spot]
    tail = i >= LONG_N - LONG_N % (LONG_K + 1)
    assert (i % (LONG_N // (LONG_K + 1)) < 8 and not tail) == (spot == "in a run")
    assert tail == (spot in ("tail", "last"))
    assert kernel._pool(x, LONG_K)[0] is not None  # the long path
    x[i] = bad
    for entry in LONG_ENTRIES.values():
        with _named(i, bad):
            entry(x, LONG_K)
    # a block's rows: the first that holds one is named, at its index in that row
    block = replication_rng(12, 1).standard_t(3.0, (3, 2000))
    block[1, i % 2000], block[2, 0] = bad, np.nan
    with _named(i % 2000, bad):
        tail_grid(block, [1, LONG_K], "log_excess", "lag1")


@pytest.mark.parametrize("k", [0, LONG_N, 2.5, "5"])
def test_a_non_finite_value_is_named_before_a_bad_k(k):
    x = replication_rng(12, 0).standard_t(3.0, LONG_N)
    x[SPOTS["tail"]] = np.inf
    for entry in (hill, cusum_statistic, deviation_process, estimate_omega):
        with _named(SPOTS["tail"], np.inf):
            entry(x, k)
    if isinstance(k, int) and k > 0:  # run_test's own range: too few values for k
        with _named(SPOTS["tail"], np.inf):
            run_test(x, TailTestConfig(k=k))


def test_fully_tied_top_keeps_alpha_infinite():
    x = [5.0, 5.0, 1.0, 5.0, 2.0, 3.0, 1.5, 0.5]
    assert math.isinf(hill(x, 2).alpha_hat)
    grid = tail_grid(np.asarray(x), [1, 2, 3], "log_excess")
    assert math.isinf(grid.alpha_hat[0]) and math.isinf(grid.alpha_hat[1])
    assert np.isfinite(grid.alpha_hat[2])
    assert grid.status.tolist() == [kernel.INFINITE_ALPHA, kernel.INFINITE_ALPHA, 0]


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
    assert grid.status.tolist() == [0, 0, kernel.ZERO_FLOOR, kernel.ZERO_FLOOR | kernel.ZERO_THRESHOLD]
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


def test_the_total_is_the_last_running_sum():
    # each k's total adds that k's exceedance sizes one at a time in series order, as the running sums do, so
    # D(n) = 0 exactly: for short series, blocks, sampled long series and a long series folded whole alike
    rng = np.random.default_rng(5)
    ks = [10, 50, 100]
    cases = [(x, ks) for x in (rng.standard_t(3, 1000), rng.standard_t(3, (3, 500)), rng.standard_t(3, 3 * CHUNK + 1),
                               rng.standard_t(3, 10**6))]
    wide = rng.standard_t(3, 3 * CHUNK + 1)  # k above n // 128, a stride under 16: folded whole
    cases += [(wide, [10, 100, 800]), (np.abs(wide), [10, 100, 800])]
    for x, ks in cases:
        sampled = x.ndim == 1 and x.size >= CHUNK and max(ks) < x.size // 128
        assert (kernel._pool(x, max(ks))[0] is not None) == sampled  # the sampled long series are read in place
        signed = x.copy()
        v = np.abs(x)
        for phi in ("indicator", "log_excess"):
            grid = tail_grid(x, ks, phi)
            thresholds, totals = grid.threshold.reshape(-1, len(ks)), grid.total.reshape(-1, len(ks))
            for row, ts, got in zip(np.atleast_2d(v), thresholds, totals):
                for t, total in zip(ts, got):
                    top = row[row > t]  # the exceedances, in series order
                    sizes = kernel.excess_sizes(top, np.array([t]))[0]
                    want = np.add.accumulate(sizes)[-1] if phi == "log_excess" else np.float64(top.size)
                    assert total.tobytes() == want.tobytes(), (x.shape, ks, phi, t)
            _assert_same_grids(grid, tail_grid(v, ks, phi), x.shape)
            assert x.tobytes() == signed.tobytes()


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
    assert grid.status[2] == kernel.ZERO_FLOOR | kernel.ZERO_THRESHOLD  # no log excesses over a zero threshold
    # without a statistic there is no row total
    assert tail_grid(v, [1, 2]).total is None
    assert tail_grid(v, [1, 2], adjust="lag1").total is None
