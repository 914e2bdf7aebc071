"""The benchmark's four workloads.

Each workload builds its inputs from the seed before anything is timed. For
op ``i`` it names the one call into the package that is timed
(``prepare``), turns that call's result into a plain record (``record``),
and after the timed region checks the records against the independent
reference (``check``, which returns ``{op index: reason}`` for failures).
Ops cycle through a fixed set of inputs of length ``cycle``. ``prepare``
also gives how many end-to-end ops the call completes: replications on
``grid``, one call elsewhere.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io

import numpy as np

import checks
import reference as ref

GRID_TABLES = (5, 6, 8, 9)
GRID_BLOCK_REPS = 50

LONG_N = 1_000_000
LONG_K = 5000
LONG_SERIES = 2
TEST_PAIRS = (("indicator", "iid"), ("indicator", "lag1"), ("log_excess", "iid"), ("log_excess", "lag1"))

CLI_N = 100_000
CLI_K = 500
CLI_FILES = 2
CLI_COMMANDS = (
    ("test", "--k", str(CLI_K), "--adjust", "lag1", "--format", "structured"),
    ("ar-test", "--k", str(CLI_K), "--order", "1", "--format", "structured"),
)

MC_LEVELS = (0.90, 0.95, 0.99)
MC_POINTS = 10_000
MC_REPS = 500

# PROFILE: share of each kind of work in a call, which sets how the call's
# time is scaled for host speed (see calibration.py). Estimated from a
# profile of the seed commit: grid is per-k Python around numpy calls on
# 1000-element arrays, long_series numpy over 8 MB arrays, cli_file line
# parsing, mc_critical numpy over 80 KB paths.

# Seeds of the package's own streams (grid blocks, Monte Carlo calls) are
# ``seed * SEED_STRIDE + op index``, so no two ops or runs share a stream.
SEED_STRIDE = 1_000_000


def change_series(n: int, seed: int, stream: int) -> np.ndarray:
    """MA(1) series, coefficient 0.5, t(3) innovations switching to t(1) at n / 2."""
    return np.asarray(ref.design_path("ma1", 0.5, n, 3.0, 1.0, 0.5, seed, stream))


def design_of(spec) -> dict:
    """The reference's description of a ``SimulationSpec`` with t innovations."""
    if spec.test == "ar_residual" and (spec.ar_order, spec.ar_method) != (1, "ols"):
        raise ValueError(f"reference covers AR(1) least squares only, got {spec.ar_order}/{spec.ar_method}")
    pre = spec.change.pre if spec.change else spec.model.innovation
    post = spec.change.post if spec.change else spec.model.innovation
    return dict(kind=spec.model.kind, coef=spec.model.coef, n=spec.n, pre_nu=pre.nu, post_nu=post.nu,
                tau=spec.change.tau if spec.change else None, seed=spec.seed,
                replications=spec.replications, test=spec.test, phi=spec.phi,
                adjust=spec.adjust, level=spec.level, k_grid=spec.k_grid)


class Grid:
    """``run_table`` on the n = 1000 specs of tables 5, 6, 8 and 9, one block per call."""

    PROFILE = {"python": 0.5, "numpy": 0.5}

    def __init__(self, ts, seed: int, workdir):
        self.run_table = ts.experiments.run_table
        self.specs = [spec for table in GRID_TABLES
                      for spec in ts.experiments.table_specs(table, replications=GRID_BLOCK_REPS)]
        self.cycle = len(self.specs)
        self.seed = seed

    def spec(self, i: int):
        return dataclasses.replace(self.specs[i % self.cycle], seed=self.seed * SEED_STRIDE + i)

    def prepare(self, i: int):
        return "experiments.run_table", self.run_table, (self.spec(i),), GRID_BLOCK_REPS

    def record(self, i: int, result) -> list:
        return [dict(k=c.k, reject_count=c.reject_count, error_count=c.error_count,
                     mean_alpha_hat=c.mean_alpha_hat, mse_tau=c.mse_tau) for c in result.rows]

    def check(self, records: dict) -> dict:
        """Replay the first timed block of every spec; elsewhere require zero error cells.

        The designs draw continuous t innovations, so a zero order statistic
        (the only documented degeneracy) has probability zero: every error
        cell outside the replayed blocks is a failure.
        """
        bad = {}
        for i, rows in records.items():
            if self.cycle <= i < 2 * self.cycle:
                spec = self.spec(i)
                msg = checks.block_mismatch(rows, ref.design_cells(design_of(spec)), spec.change is not None)
            else:
                errors = sum(row["error_count"] for row in rows)
                msg = f"{errors} error cells" if errors else None
            if msg:
                bad[i] = f"block {i} ({self.specs[i % self.cycle].label}): {msg}"
        return bad


class LongSeries:
    """``run_test`` at k = 5000 for all four (phi, adjust) pairs plus the AR(1) test, n = 1e6."""

    PROFILE = {"python": 0.05, "numpy": 0.15, "memory": 0.8}

    def __init__(self, ts, seed: int, workdir):
        self.run_test = ts.cusum.run_test
        self.residual_cusum = ts.ar_fit.residual_cusum
        self.configs = [ts.cusum.TailTestConfig(k=LONG_K, phi=phi, adjust=adjust) for phi, adjust in TEST_PAIRS]
        self.series = [change_series(LONG_N, seed, j) for j in range(LONG_SERIES)]
        self.calls = len(TEST_PAIRS) + 1
        self.cycle = LONG_SERIES * self.calls

    def _input(self, i: int):
        return self.series[(i // self.calls) % LONG_SERIES], i % self.calls

    def prepare(self, i: int):
        x, c = self._input(i)
        if c < len(TEST_PAIRS):
            return f"cusum.run_test[{','.join(TEST_PAIRS[c])}]", self.run_test, (x, self.configs[c]), 1
        return "ar_fit.residual_cusum", self.residual_cusum, (x, 1, LONG_K), 1

    def record(self, i: int, outcome) -> dict:
        return {key: getattr(outcome, key) for key in checks.OUTCOME_FIELDS}

    def check(self, records: dict) -> dict:
        wanted = {}
        bad = {}
        for i, rec in records.items():
            key = (i // self.calls) % LONG_SERIES, i % self.calls
            if key not in wanted:
                x, c = self._input(i)
                if c < len(TEST_PAIRS):
                    wanted[key] = ref.change_test(x.tolist(), LONG_K, *TEST_PAIRS[c]), x
                else:
                    residuals = ref.ar1_ols_residuals(x.tolist())
                    wanted[key] = ref.change_test(residuals, LONG_K), np.asarray(residuals)
            msg = checks.outcome_mismatch(rec, *wanted[key])
            if msg:
                bad[i] = f"call {i} (series {key[0]}, test {key[1]}): {msg}"
        return bad


class CliFile:
    """``tailshift.cli.main`` in-process on 1e5-line series files, output captured."""

    PROFILE = {"python": 0.9, "numpy": 0.1}

    def __init__(self, ts, seed: int, workdir):
        self.main = ts.cli.main
        self.series = [change_series(CLI_N, seed, 100 + j) for j in range(CLI_FILES)]
        self.paths = []
        for j, x in enumerate(self.series):
            path = workdir / f"series{j}.txt"
            path.write_text("".join(f"{value!r}\n" for value in x.tolist()), encoding="utf-8")
            self.paths.append(str(path))
        self.cycle = CLI_FILES * len(CLI_COMMANDS)

    def _captured_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(argv)
        return code, out.getvalue()

    def prepare(self, i: int):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        argv = [command[0], self.paths[(i // len(CLI_COMMANDS)) % CLI_FILES], *command[1:]]
        return "cli.main", self._captured_main, (argv,), 1

    def record(self, i: int, result) -> tuple:
        return result

    def check(self, records: dict) -> dict:
        wanted = {}
        bad = {}
        for i, (code, stdout) in records.items():
            key = (i // len(CLI_COMMANDS)) % CLI_FILES, i % len(CLI_COMMANDS)
            if key not in wanted:
                x = self.series[key[0]].tolist()
                if key[1] == 0:
                    wanted[key] = ref.change_test(x, CLI_K, "indicator", "lag1"), x, {"adjust": "lag1"}
                else:
                    residuals = ref.ar1_ols_residuals(x)
                    wanted[key] = ref.change_test(residuals, CLI_K), residuals, {"order": 1, "method": "ols"}
            want, series, extra = wanted[key]
            msg = checks.cli_mismatch(code, stdout, want, series, extra)
            if msg:
                bad[i] = f"call {i} ({CLI_COMMANDS[key[1]][0]} on file {key[0]}): {msg}"
        return bad


class McCritical:
    """``mc_critical_values`` at 0.90/0.95/0.99 with 500 paths of 10 000 points per call."""

    PROFILE = {"python": 0.1, "numpy": 0.9}
    cycle = 1

    def __init__(self, ts, seed: int, workdir):
        self.mc = ts.null_dist.mc_critical_values
        self.seed = seed

    def prepare(self, i: int):
        return "null_dist.mc_critical_values", self.mc, (MC_LEVELS, MC_POINTS, MC_REPS, self.seed * SEED_STRIDE + i), 1

    def record(self, i: int, table) -> list:
        return list(table.values)

    def check(self, records: dict) -> dict:
        """Every call near the analytic law; the first and last rerun bit-identically."""
        bad = {}
        for i, values in records.items():
            msg = checks.mc_mismatch(MC_LEVELS, values, MC_REPS)
            if msg:
                bad[i] = f"call {i}: {msg}"
        for i in {min(records), max(records)} if records else ():
            _, fn, args, _ = self.prepare(i)
            again = list(fn(*args).values)
            if again != records[i]:
                bad[i] = f"call {i}: rerun with the same seed gave {again}, first run {records[i]}"
        return bad


WORKLOADS = {"grid": Grid, "long_series": LongSeries, "cli_file": CliFile, "mc_critical": McCritical}
