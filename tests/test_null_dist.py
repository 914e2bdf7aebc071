import math
import sys

import numpy as np
import pytest
from scipy.stats import kstwobign

from oracles import kolmogorov_cdf, kolmogorov_quantile
from tailshift import null_dist
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
    monkeypatch.setattr(null_dist, "_worker_count", lambda: workers)
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

    def failing_rng(seed, r):
        if r == 150:
            raise Boom(f"replicate {r}")
        return replication_rng(seed, r)

    monkeypatch.setattr(null_dist, "_worker_count", lambda: 2)
    monkeypatch.setattr(null_dist, "replication_rng", failing_rng)
    with pytest.raises(Boom, match="^replicate 150$"):
        mc_critical_values(STANDARD_LEVELS, n_points=50, n_rep=200, seed=1)


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_critical_values([0.95], n_rep=99)
    with pytest.raises(ValueError):
        mc_critical_values([1.5])
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


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def test_analytic_table_and_delimited_export():
    table = analytic_critical_values(STANDARD_LEVELS)
    assert table.source == "analytic"
    text = table.to_delimited()
    lines = text.strip().splitlines()
    assert lines[0] == "level,critical_value,source"
    assert len(lines) == 4
    for line, level, value in zip(lines[1:], table.levels, table.values):
        got_level, got_value, got_source = line.split(",")
        assert float(got_level) == level
        assert float(got_value) == value  # repr round-trips bit-exactly
        assert got_source == "analytic"


def test_table_dataclass_roundtrip():
    table = CriticalValueTable(levels=(0.5,), values=(0.82757,), source="mc(paths=10,reps=100,seed=1)")
    assert "mc(" in table.to_delimited()
