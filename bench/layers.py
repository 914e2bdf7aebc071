"""Per-layer replays for the traced run.

Each replay calls the package's public functions one stage at a time inside
spans, on inputs made from the seed, always with the same fixed sizes, so
every traced run reports every layer metric and the counts repeat exactly:

- grid: for each of the 11 grid specs, ``GRID_REPLAY_REPS`` replications
  through ``run_table`` and then stage by stage on the same ``(seed, r)``
  streams: ``replication_rng`` -> ``simulate`` -> ``fit_ar`` (AR specs) ->
  absolute value and sort -> ``hill`` and ``run_test`` at each k,
- long_series: ``run_test`` for the four (phi, adjust) pairs,
  ``deviation_process``, ``hill`` and ``fit_ar`` on one n = 1e6 series,
- cli_file: ``read_series`` on one 1e5-line file,
- mc_critical: ``replication_rng`` and ``simulate_L`` per bridge path.

Host-speed calibrations are taken between groups of replayed calls (before
each grid spec, each long-series pass, the reads, every tenth bridge path);
self times are scaled by the calibrations nearest to them with the profile
of the replay's workload, like the end-to-end times.
"""
from __future__ import annotations

import dataclasses
import statistics

import numpy as np

import calibration
import workloads as wl

PASSES = 3
GRID_REPLAY_REPS = 10
READS = 5
MC_PATHS = 100
REPLAY_SEED_OFFSET = 999_000  # op indices of the timed loop stay far below this

# Each replay's spans are scaled with the host-speed profile of its workload.
PROFILES = {"experiments.run_table": wl.Grid.PROFILE, "replay.grid_rep": wl.Grid.PROFILE,
            "replay.long_series": wl.LongSeries.PROFILE, "replay.cli": wl.CliFile.PROFILE,
            "replay.mc": wl.McCritical.PROFILE}


def _grid(ts, tracer, calibrate, seed: int) -> dict:
    """Stage-by-stage replay of grid replications; returns the grid metrics that are not span medians."""
    exp, var, cusum = ts.experiments, ts.variates, ts.cusum
    degenerate = (ts.tail_core.DegenerateThresholdError, ts.ar_fit.DegenerateDataError)
    base = [spec for table in wl.GRID_TABLES for spec in exp.table_specs(table, replications=GRID_REPLAY_REPS)]
    specs = [dataclasses.replace(spec, seed=seed * wl.SEED_STRIDE + REPLAY_SEED_OFFSET + j)
             for j, spec in enumerate(base)]

    def abs_sort(series):
        return np.sort(ts.tail_core.nonneg_view(series))

    unattributed = []
    counts = dict(paths=0, k_evals=0, error_cells=0, cells=0)
    for p in range(PASSES):
        start, first_cal = len(tracer.spans), len(tracer.calibrations)
        for spec in specs:
            tracer.calibration(calibrate)
            result = tracer.call("experiments.run_table", exp.run_table, spec)
            if p == 0:
                counts["error_cells"] += sum(cell.error_count for cell in result.rows)
                counts["cells"] += spec.replications * len(spec.k_grid)
            configs = [cusum.TailTestConfig(k=k, phi=spec.phi, adjust=spec.adjust, level=spec.level)
                       for k in spec.k_grid]
            for r in range(spec.replications):
                rep = tracer.begin("replay.grid_rep")
                rng = tracer.call("variates.replication_rng", var.replication_rng, spec.seed, r)
                series = tracer.call("variates.simulate", var.simulate, spec.model, spec.n, rng, spec.change)
                if p == 0:
                    counts["paths"] += len(series) == spec.n
                try:
                    if spec.test == "ar_residual":
                        series = tracer.call("ar_fit.fit_ar", ts.ar_fit.fit_ar, series, spec.ar_order,
                                             spec.ar_method).residuals
                    tracer.call("tail_core.abs_sort", abs_sort, series)
                    for cfg in configs:
                        tracer.call("tail_core.hill", ts.tail_core.hill, series, cfg.k)
                        tracer.call("cusum.run_test", cusum.run_test, series, cfg)
                        if p == 0:
                            counts["k_evals"] += 1
                except degenerate:
                    pass
                tracer.end(rep)
        # A replication's stages, each counted once: run_test repeats the
        # absolute value and sort that run_table does once per replication,
        # so one mean sort per run_test call is taken back out.
        totals, calls = {}, {}
        for name, begin, end, _ in tracer.spans[start:]:
            totals[name] = totals.get(name, 0) + end - begin
            calls[name] = calls.get(name, 0) + 1
        sort_ns = totals["tail_core.abs_sort"] / calls["tail_core.abs_sort"]
        stages = (totals["variates.replication_rng"] + totals["variates.simulate"]
                  + totals.get("ar_fit.fit_ar", 0) + totals["tail_core.abs_sort"]
                  + totals["cusum.run_test"] - calls["cusum.run_test"] * sort_ns)
        factor = calibration.factor([cal for _, cal in tracer.calibrations[first_cal:]], wl.Grid.PROFILE)
        reps = len(specs) * GRID_REPLAY_REPS
        unattributed.append((totals["experiments.run_table"] - stages) * factor / reps / 1e3)

    return {
        "experiments.unattributed_us_per_rep": statistics.median(unattributed),
        "cusum.k_evals": counts["k_evals"],
        "variates.paths": counts["paths"],
        "experiments.error_cells": counts["error_cells"],
        "experiments.ok_cell_frac": (counts["cells"] - counts["error_cells"]) / counts["cells"],
    }


def _long_series(ts, tracer, calibrate, seed: int) -> None:
    x = wl.change_series(wl.LONG_N, seed, 200)
    calls = [(f"cusum.run_test[{phi},{adjust}]", ts.cusum.run_test,
              (x, ts.cusum.TailTestConfig(k=wl.LONG_K, phi=phi, adjust=adjust)))
             for phi, adjust in wl.TEST_PAIRS]
    calls += [("cusum.deviation_process", ts.cusum.deviation_process, (x, wl.LONG_K)),
              ("tail_core.hill", ts.tail_core.hill, (x, wl.LONG_K)),
              ("ar_fit.fit_ar", ts.ar_fit.fit_ar, (x, 1, "ols"))]
    for _ in range(PASSES):
        tracer.calibration(calibrate)
        for name, fn, args in calls:
            span = tracer.begin("replay.long_series")
            tracer.call(name, fn, *args)
            tracer.end(span)


def _cli(ts, tracer, calibrate, seed: int, workdir) -> None:
    path = workdir / "replay_series.txt"
    path.write_text("".join(f"{value!r}\n" for value in wl.change_series(wl.CLI_N, seed, 300).tolist()),
                    encoding="utf-8")
    tracer.calibration(calibrate)
    for _ in range(READS):
        span = tracer.begin("replay.cli")
        tracer.call("cli.read_series", ts.cli.read_series, str(path))
        tracer.end(span)


def _mc(ts, tracer, calibrate, seed: int) -> None:
    for r in range(MC_PATHS):
        if r % 10 == 0:
            tracer.calibration(calibrate)
        span = tracer.begin("replay.mc")
        rng = tracer.call("variates.replication_rng", ts.variates.replication_rng, seed, r)
        tracer.call("null_dist.simulate_L", ts.null_dist.simulate_L, wl.MC_POINTS, rng)
        tracer.end(span)


def replay_metrics(ts, tracer, calibrate, seed: int, workdir) -> dict:
    """Run every replay under ``tracer`` and return the per-layer metrics they give."""
    metrics = _grid(ts, tracer, calibrate, seed)
    _long_series(ts, tracer, calibrate, seed)
    _cli(ts, tracer, calibrate, seed, workdir)
    _mc(ts, tracer, calibrate, seed)
    tracer.calibration(calibrate)

    times = tracer.self_times_ns(
        factor=lambda key, nearby: calibration.factor(nearby, PROFILES.get(key.split("/")[0], wl.Grid.PROFILE)))

    def median(key, scale):
        return statistics.median(times[key]) / scale

    rng_times = times["replay.grid_rep/variates.replication_rng"] + times["replay.mc/variates.replication_rng"]
    metrics.update({
        "variates.replication_rng_us": statistics.median(rng_times) / 1e3,
        "variates.simulate_us": median("replay.grid_rep/variates.simulate", 1e3),
        "ar_fit.fit_ar_us": median("replay.grid_rep/ar_fit.fit_ar", 1e3),
        "tail_core.abs_sort_us": median("replay.grid_rep/tail_core.abs_sort", 1e3),
        "tail_core.hill_us": median("replay.grid_rep/tail_core.hill", 1e3),
        "cusum.run_test_us_per_k": median("replay.grid_rep/cusum.run_test", 1e3),
        "ar_fit.fit_ar_ms": median("replay.long_series/ar_fit.fit_ar", 1e6),
        "tail_core.hill_ms": median("replay.long_series/tail_core.hill", 1e6),
        "cusum.deviation_process_ms": median("replay.long_series/cusum.deviation_process", 1e6),
        "null_dist.simulate_L_us": median("replay.mc/null_dist.simulate_L", 1e3),
        "cli.read_series_ms": median("replay.cli/cli.read_series", 1e6),
    })
    for phi, adjust in wl.TEST_PAIRS:
        metrics[f"cusum.run_test_ms.{phi}.{adjust}"] = median(f"replay.long_series/cusum.run_test[{phi},{adjust}]", 1e6)
    return metrics
