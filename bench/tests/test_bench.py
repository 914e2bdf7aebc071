"""Tests of the benchmark itself: its output checks catch wrong outcomes, and
its result lines carry every metric declared in BENCHMARK.json.

    python3 -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
import tailshift  # noqa: E402
from tailshift import ar_fit, cli, cusum, experiments, null_dist  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
N, K = 3000, 60


@pytest.fixture(scope="module")
def series():
    return wl.change_series(N, 5, 0)


def record(outcome):
    return {key: getattr(outcome, key) for key in checks.OUTCOME_FIELDS}


def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("phi, adjust", wl.TEST_PAIRS)
def test_check_accepts_the_package_and_catches_a_threshold_off_by_one(series, phi, adjust):
    want = ref.change_test(series.tolist(), K, phi, adjust)
    good = record(cusum.run_test(series, cusum.TailTestConfig(k=K, phi=phi, adjust=adjust)))
    assert checks.outcome_mismatch(good, want, series) is None

    # The package run at k + 1 uses the (k+1)-th largest value as threshold:
    # relabelled as k, it is the outcome of an off-by-one threshold.
    shifted = record(cusum.run_test(series, cusum.TailTestConfig(k=K + 1, phi=phi, adjust=adjust)))
    shifted["k"] = K
    assert checks.outcome_mismatch(shifted, want, series) is not None


def test_check_catches_moved_l_hat_and_flipped_reject(series):
    residuals = ar_fit.fit_ar(series, 1).residuals
    want = ref.change_test(ref.ar1_ols_residuals(series.tolist()), K)
    good = record(ar_fit.residual_cusum(series, 1, K))
    assert checks.outcome_mismatch(good, want, residuals) is None
    for key, value in (("l_hat", good["l_hat"] + 1), ("reject", not good["reject"]),
                       ("alpha_hat", good["alpha_hat"] * (1 + 1e-6))):
        assert checks.outcome_mismatch({**good, key: value}, want, residuals) is not None


def test_block_check_catches_a_miscounted_cell():
    spec = replace(experiments.table_specs(9, replications=4)[1], seed=77)
    rows = wl.Grid(tailshift, 0, None).record(0, experiments.run_table(spec))
    cells = ref.design_cells(wl.design_of(spec))
    assert checks.block_mismatch(rows, cells, has_change=True) is None
    for key, delta in (("reject_count", 1), ("error_count", 1), ("mse_tau", 1e-3)):
        bad = [dict(row) for row in rows]
        bad[3][key] += delta
        assert checks.block_mismatch(bad, cells, has_change=True) is not None


def test_cli_check_requires_the_exit_code_to_match_reject(tmp_path, series, capsys):
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v!r}\n" for v in series.tolist()), encoding="utf-8")
    code = cli.main(["test", str(path), "--k", str(K), "--adjust", "lag1", "--format", "structured"])
    stdout = capsys.readouterr().out
    want = ref.change_test(series.tolist(), K, "indicator", "lag1")
    assert checks.cli_mismatch(code, stdout, want, series, {"adjust": "lag1"}) is None
    assert checks.cli_mismatch(2 - code, stdout, want, series, {"adjust": "lag1"}) is not None
    assert checks.cli_mismatch(code, "", want, series, {"adjust": "lag1"}) is not None


def test_mc_check_catches_shifted_or_unordered_quantiles():
    values = list(null_dist.mc_critical_values(wl.MC_LEVELS, 2000, wl.MC_REPS, seed=4).values)
    assert checks.mc_mismatch(wl.MC_LEVELS, values, wl.MC_REPS) is None
    assert checks.mc_mismatch(wl.MC_LEVELS, [v + 0.5 for v in values], wl.MC_REPS) is not None
    assert checks.mc_mismatch(wl.MC_LEVELS, values[::-1], wl.MC_REPS) is not None


def test_reference_critical_values_match_the_package():
    for level in (0.90, 0.95, 0.99):
        assert abs(ref.kolmogorov_quantile(level) - null_dist.analytic_quantile(level)) < checks.CV_ATOL


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_declared_metric(trace, section):
    proc = run_bench(ROOT, "--workload", "mc_critical", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_inputs_depend_only_on_the_seed():
    assert np.array_equal(wl.change_series(500, 9, 1), wl.change_series(500, 9, 1))
    assert not np.array_equal(wl.change_series(500, 9, 1), wl.change_series(500, 10, 1))
