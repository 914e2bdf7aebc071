import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import kolmogi
from scipy.stats import kstwobign

from oracles import kolmogorov_cdf, kolmogorov_quantile
from tailshift import null_dist, variates
from tailshift.null_dist import (
    CriticalValueTable,
    analytic_critical_values,
    analytic_quantile,
    mc_critical_values,
    simulate_L,
)
from tailshift.variates import as_generator, replication_rng

STANDARD_LEVELS = (0.90, 0.95, 0.99)


# ---------------------------------------------------------------------------
# analytic law (the series oracle is checked here, then the library against it)
# ---------------------------------------------------------------------------

def test_cdf_shape():
    assert kolmogorov_cdf(0.0) == 0.0
    assert kolmogorov_cdf(-1.0) == 0.0
    assert kolmogorov_cdf(0.2) < 0.01
    assert kolmogorov_cdf(3.0) > 0.9999
    grid = np.linspace(0.05, 3.0, 500)
    values = [kolmogorov_cdf(x) for x in grid]
    assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))


def test_cdf_matches_scipy():
    for x in (0.4, 0.8, 1.2236, 1.3581, 1.6276, 2.2):
        assert kolmogorov_cdf(x) == pytest.approx(kstwobign.cdf(x), abs=1e-12)


def test_analytic_quantiles_against_independent_oracle():
    for level, expected in zip(STANDARD_LEVELS, (1.22387, 1.35810, 1.62762)):
        q = analytic_quantile(level)
        assert q == pytest.approx(expected, abs=1e-3)
        assert q == pytest.approx(kolmogorov_quantile(level), abs=3e-10)


def test_analytic_quantile_solves_the_cdf():
    for level in (0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
        assert kolmogorov_cdf(analytic_quantile(level)) == pytest.approx(level, abs=1e-8)
    with pytest.raises(ValueError):
        analytic_quantile(0.0)
    with pytest.raises(ValueError):
        analytic_quantile(1.0)


def test_analytic_quantile_is_scipys_kolmogi_at_the_standard_levels():
    # bit for bit, so default critical values, and every output built on them, are scipy's
    for level in STANDARD_LEVELS:
        assert analytic_quantile(level) == float(kolmogi(1.0 - level))


def test_analytic_quantile_agrees_with_kolmogi_over_a_level_sweep():
    for level in np.linspace(0.01, 1.0 - 1e-9, 2001):
        assert analytic_quantile(float(level)) == pytest.approx(float(kolmogi(1.0 - level)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("level", [1e-12, 1e-6, 0.5, 0.73, 1.0 - 1e-6, 1.0 - 1e-12])
def test_analytic_quantile_solves_the_cdf_in_both_tails(level):
    q = analytic_quantile(level)
    assert math.isfinite(q) and q > 0.0
    if level < 0.5:  # a tiny CDF is compared relatively; near 1 the oracle's CDF holds ~1e-16 absolute
        assert kolmogorov_cdf(q) == pytest.approx(level, rel=1e-12)
    else:
        assert kolmogorov_cdf(q) == pytest.approx(level, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_analytic_quantile_rejects_levels_outside_the_open_unit_interval(level):
    with pytest.raises(ValueError, match=f"^level must lie in \\(0, 1\\), got {level}$"):
        analytic_quantile(level)


def test_analytic_quantile_below_the_resolution_of_one_minus_level():
    # 1 - level rounds to 1 below ~1e-16, so kolmogi(1 - level) returns 0.0; the solve
    # works on level itself there and keeps the quantile, which is exact and still rising
    levels = (1e-12, 1e-16, 1e-17, 1e-100, 1e-300, 2.2250738585072014e-308, 5e-324)
    assert float(kolmogi(1.0 - 1e-17)) == 0.0
    values = [analytic_quantile(level) for level in levels]
    assert all(0.0 < b < a for a, b in zip(values, values[1:]))
    for level, q in zip(levels[:5], values):
        assert kolmogorov_cdf(q) == pytest.approx(level, rel=1e-12)
    # at the smallest subnormal level, the leading term pins the quantile: sqrt(2 pi) / q exp(-pi^2 / (8 q^2)) = level
    q = values[-1]
    assert math.log(math.sqrt(2.0 * math.pi) / q) - math.pi**2 / (8.0 * q * q) == pytest.approx(math.log(5e-324), rel=1e-12)


@pytest.mark.parametrize("level", [1e-12, 0.5, 0.95, 1.0 - 1e-12])
def test_analytic_quantile_stops_when_its_step_rule_never_holds(monkeypatch, level):
    # with no step small enough to stop on, the solve still ends after its bounded loop, at the root
    expected = analytic_quantile(level)
    monkeypatch.setattr(null_dist.math, "ulp", lambda x: 0.0)
    assert analytic_quantile(level) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# simulated law
# ---------------------------------------------------------------------------

class _FixedNormals(np.random.Generator):
    """Degenerate stub: the 'normal' draws are a fixed vector."""

    def __init__(self, eps):
        super().__init__(np.random.Philox(0))
        self.eps = np.asarray(eps, dtype=float)

    def standard_normal(self, size=None):
        return self.eps[:size].copy()


def test_simulate_L_constant_path_is_zero():
    # exact zero in exact arithmetic; the l/N * total share rounds in floats
    assert simulate_L(100, _FixedNormals(np.ones(100))) == pytest.approx(0.0, abs=1e-12)


def test_simulate_L_takes_the_larger_side_of_the_path():
    # partial sums -1, -2, -2, 0 (total 0): the supremum is |min| = 2, over sqrt(4)
    assert simulate_L(4, _FixedNormals([-1, -1, 0, 2])) == 1.0
    assert simulate_L(4, _FixedNormals([1, 1, 0, -2])) == 1.0


def test_simulate_L_matches_brute_force_on_shared_draws():
    eps = as_generator(123).standard_normal(500)
    partial = 0.0
    total = float(eps.sum())
    best = 0.0
    for l in range(1, 501):
        partial += eps[l - 1]
        best = max(best, abs(partial - l / 500 * total))
    assert simulate_L(500, 123) == pytest.approx(best / math.sqrt(500), rel=1e-12)


def test_simulate_L_validation_and_determinism():
    with pytest.raises(ValueError):
        simulate_L(1, 0)
    assert simulate_L(1000, 5) == simulate_L(1000, 5)


def test_mean_of_simulated_suprema(bridge_sup_draws):
    # E sup|bridge| = sqrt(pi/2) * log(2); the discrete path maximum sits a
    # few thousandths below it at 1e4 points, inside the 0.01 bracket
    assert bridge_sup_draws.mean() == pytest.approx(math.sqrt(math.pi / 2) * math.log(2), abs=0.01)


def test_mc_quantiles_within_three_standard_errors(mc_cv_table):
    for level, value in zip(mc_cv_table.levels, mc_cv_table.values):
        q = analytic_quantile(level)
        se = math.sqrt(level * (1 - level) / 10_000) / kstwobign.pdf(q)
        assert abs(value - q) <= 3 * se


def test_mc_95_quantile_near_analytic(mc_cv_table):
    assert mc_cv_table.values[1] == pytest.approx(1.358, abs=0.02)


def test_mc_table_consistent_with_raw_draws(mc_cv_table, bridge_sup_draws):
    expected = np.quantile(bridge_sup_draws, mc_cv_table.levels)
    assert tuple(expected) == mc_cv_table.values


def test_mc_table_monotone_and_deterministic():
    a = mc_critical_values(STANDARD_LEVELS, n_points=1000, n_rep=400, seed=9)
    b = mc_critical_values(STANDARD_LEVELS, n_points=1000, n_rep=400, seed=9)
    assert a == b
    assert a.values[0] < a.values[1] < a.values[2]
    c = mc_critical_values(STANDARD_LEVELS, n_points=1000, n_rep=400, seed=10)
    assert c != a


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_table_equals_the_serial_loop_for_any_worker_count(monkeypatch, workers):
    monkeypatch.setattr(variates, "_worker_count", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so chunks interleave
    try:
        for n_rep in (100, 101, 257):
            for n_points in (2, 1000):
                table = mc_critical_values(STANDARD_LEVELS, n_points=n_points, n_rep=n_rep, seed=7)
                serial = [simulate_L(n_points, replication_rng(7, r)) for r in range(n_rep)]
                assert table.values == tuple(float(q) for q in np.quantile(serial, STANDARD_LEVELS))
    finally:
        sys.setswitchinterval(interval)


def test_mc_worker_exception_reaches_the_caller(monkeypatch):
    class Boom(RuntimeError):
        pass

    real_streams = variates._streams

    def failing_streams(seed, start, stop):
        for r, rng in zip(range(start, stop), real_streams(seed, start, stop)):
            if r == 150:
                raise Boom(f"replicate {r}")
            yield rng

    monkeypatch.setattr(variates, "_worker_count", lambda: 2)
    monkeypatch.setattr(variates, "_streams", failing_streams)
    with pytest.raises(Boom, match="^replicate 150$"):
        mc_critical_values(STANDARD_LEVELS, n_points=50, n_rep=200, seed=1)


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_critical_values([0.95], n_rep=99)
    with pytest.raises(ValueError, match="^level must lie in \\(0, 1\\), got 1.5$"):
        mc_critical_values([0.95, 1.5])  # the level rule and message of analytic_critical_values
    with pytest.raises(ValueError):
        mc_critical_values([])
    for seed in (1.5, True):  # not silently run as seed 1
        with pytest.raises(TypeError, match="seed must be an integer"):
            mc_critical_values([0.95], n_points=10, n_rep=100, seed=seed)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -2$"):
        mc_critical_values([0.95], n_points=10, n_rep=100, seed=-2)
    with pytest.raises(TypeError, match="^n_points must be an integer"):
        mc_critical_values([0.95], n_points=10.0, n_rep=100)
    with pytest.raises(TypeError, match="^n_rep must be an integer"):
        mc_critical_values([0.95], n_points=10, n_rep=100.0)
    with pytest.raises(TypeError, match="^n_points must be an integer"):
        simulate_L(10.0, seed=1)


@pytest.mark.parametrize("call", [
    lambda: analytic_critical_values("0.95"),  # each character would be read as a level
    lambda: mc_critical_values("0.95", 100, 100, 1),
    lambda: analytic_critical_values(b"0.95"),
    lambda: analytic_critical_values(["0.95"]),
    lambda: mc_critical_values(["0.95"], 100, 100, 1),  # a str element would be read as its float
    lambda: analytic_critical_values([0.9, "0.95"]),
    lambda: mc_critical_values([True], 100, 100, 1),
    lambda: analytic_critical_values(0.95),
    lambda: analytic_critical_values(np.array(0.95)),  # a 0-d array is not iterable
])
def test_levels_must_be_a_sequence_of_reals(call):
    with pytest.raises(TypeError, match="^levels must be a sequence of real numbers, got "):
        call()


def test_an_array_of_levels_is_a_sequence_of_reals():
    levels = np.array([0.9, 0.95])
    assert analytic_critical_values(levels) == analytic_critical_values((0.9, 0.95))
    assert mc_critical_values(levels, 100, 100, 1) == mc_critical_values((0.9, 0.95), 100, 100, 1)


# each call of the analytic path and its rejection, or the value it returns, in a process where neither numpy
# nor dataclasses can load
NO_NUMPY_CALLS = {
    "analytic_critical_values((0.9, 0.95, 0.99))": None,
    "analytic_quantile(0.95)": None,
    "analytic_critical_values((0.95,)).to_delimited()": None,
    "analytic_critical_values('0.95')": ["TypeError", "levels must be a sequence of real numbers, got '0.95'"],
    "analytic_critical_values([True])": ["TypeError", "levels must be a sequence of real numbers, got [True]"],
    "analytic_critical_values(['0.95'])": ["TypeError", "levels must be a sequence of real numbers, got ['0.95']"],
    "analytic_critical_values([])": ["ValueError", "levels must be non-empty"],
    "analytic_critical_values([0.95, 1.5])": ["ValueError", "level must lie in (0, 1), got 1.5"],
    "analytic_critical_values(None)": ["TypeError", "levels must be a sequence of real numbers, got None"],
    "mc_critical_values('0.95', 100, 100, 1)": ["TypeError", "levels must be a sequence of real numbers, got '0.95'"],
    "mc_critical_values([0.95, 1.5], 100, 100, 1)": ["ValueError", "level must lie in (0, 1), got 1.5"],
    "analytic_quantile(1.0)": ["ValueError", "level must lie in (0, 1), got 1.0"],
    "analytic_quantile(float('nan'))": ["ValueError", "level must lie in (0, 1), got nan"],
    "analytic_quantile(True)": ["TypeError", "level must be a real number, got True of type bool"],
    "analytic_quantile('0.95')": ["TypeError", "level must be a real number, got '0.95' of type str"],
    "analytic_quantile(None)": ["TypeError", "level must be a real number, got None of type NoneType"],
}


def test_the_analytic_path_and_its_rejections_run_without_numpy():
    script = f"""
import json, sys
sys.modules["numpy"] = sys.modules["dataclasses"] = None  # any import of either now raises ImportError
from tailshift.null_dist import analytic_critical_values, analytic_quantile, mc_critical_values

out = {{}}
for call in {list(NO_NUMPY_CALLS)!r}:
    try:
        out[call] = repr(eval(call))
    except (TypeError, ValueError) as exc:
        out[call] = [type(exc).__name__, str(exc)]
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for call, error in NO_NUMPY_CALLS.items():
        assert out[call] == (error or repr(eval(call))), call


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def test_analytic_table_and_delimited_export():
    table = analytic_critical_values(STANDARD_LEVELS)
    assert table.source == "analytic"
    text = table.to_delimited()
    assert text.splitlines()[0] == "level,critical_value,source"
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 4
    for row, level, value in zip(rows[1:], table.levels, table.values):
        got_level, got_value, got_source = row
        assert float(got_level) == level
        assert float(got_value) == value  # repr round-trips bit-exactly
        assert got_source == "analytic"
    with pytest.raises(ValueError, match="^levels must be non-empty$"):
        analytic_critical_values([])


def test_the_table_keeps_its_public_behaviour():
    values = (1.2238478702170825, 1.3580986393225505)
    table = CriticalValueTable(levels=(0.9, 0.95), values=values, source="analytic")
    positional = CriticalValueTable((0.9, 0.95), values, "analytic")
    assert positional is not table and positional == table == analytic_critical_values((0.9, 0.95))
    assert hash(positional) == hash(table)
    assert repr(table) == ("CriticalValueTable(levels=(0.9, 0.95), values=(1.2238478702170825, 1.3580986393225505), "
                           "source='analytic')")
    for name in ("levels", "values", "source"):
        with pytest.raises(AttributeError):
            setattr(table, name, ())
    assert table != CriticalValueTable(levels=(0.9, 0.95), values=values, source="mc(paths=2,reps=100,seed=0)")
    assert table.to_delimited() == (
        "level,critical_value,source\n0.9,1.2238478702170825,analytic\n0.95,1.3580986393225505,analytic\n"
    )


def test_table_dataclass_roundtrip():
    table = CriticalValueTable(levels=(0.5,), values=(0.82757,), source="mc(paths=10,reps=100,seed=1)")
    assert table.to_delimited() == 'level,critical_value,source\n0.5,0.82757,"mc(paths=10,reps=100,seed=1)"\n'
