"""Benchmark of the tailshift package: one workload per run, outputs checked, one JSON result line.

    python3 bench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory, never from an installed copy. The load
model is a closed loop with one caller: the next call starts when the last
one returns. Inputs are generated from ``--seed`` before the timed region.
One cycle of ops runs first as a warm-up, untimed; then ops run back to back
for ``--seconds``. Every op's output is checked afterwards against the
independent reference in ``reference.py``. Call times are scaled for the
host's drifting speed by the calibration in ``calibration.py``; set-up times
are not.

``--trace 0`` prints the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` splits the time between an untraced and a traced loop (their
difference is the tracing overhead) and then runs the per-layer replays of
``layers.py``, printing the per-layer metrics. Spans are written to
``.bench_build/traces/`` in the checkout. The last line of stdout is always
the JSON result. Without a result the exit code is 2 (package missing, bad
arguments, set-up failure) or 1 (no timed call returned).
"""
from __future__ import annotations

import os

# Cap native thread pools at the core count before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibration  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10


class SetupError(Exception):
    """The benchmark cannot produce a result (missing package, failed probe)."""


def declared_units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure_setup() -> dict:
    """Medians over fresh interpreters of the set-up probe."""
    runs = []
    for _ in range(SETUP_RUNS):
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SRC)], cwd=ROOT,
                                  capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"set-up probe took longer than {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def import_package():
    sys.path.insert(0, str(SRC))
    import tailshift
    from tailshift import ar_fit, cli, cusum, experiments, null_dist, tail_core, variates  # noqa: F401

    if Path(tailshift.__file__).resolve().parent != (SRC / "tailshift").resolve():
        raise SetupError(f"tailshift was imported from {tailshift.__file__}, not from {SRC}")
    return tailshift


def direct(name, fn, *args):
    return fn(*args)


class Loop:
    """Runs a workload's ops in order and keeps records, failures and timings."""

    def __init__(self, workload, calibrate):
        self.workload = workload
        self.calibrate = calibrate
        self.next_op = 0
        self.records: dict = {}
        self.failures: dict = {}

    def run(self, tracer=None, seconds=None, count=None):
        """Ops back to back for ``seconds`` or for ``count`` ops; returns (samples, wall seconds).

        A sample is ``(seconds, ops, calibration)`` for one call that
        returned; the calibration (seconds per kernel) runs just before it.
        """
        call = tracer.call if tracer else direct
        calibrate = tracer.calibration if tracer else (lambda fn: fn())
        samples = []
        start = perf_counter()
        done = 0
        while (done < count) if seconds is None else (perf_counter() - start < seconds):
            i = self.next_op
            name, fn, args, units = self.workload.prepare(i)
            cal_seconds = calibrate(self.calibrate)
            begin = perf_counter()
            try:
                result = call(name, fn, *args)
            except Exception:  # an op that raises is a failure; the loop goes on
                self.failures[i] = traceback.format_exc(limit=4)
            else:
                samples.append((perf_counter() - begin, units, cal_seconds))
                self.records[i] = self.workload.record(i, result)
            self.next_op += 1
            done += 1
        return samples, perf_counter() - start


def op_ms(samples, profile) -> list:
    """Scaled milliseconds per end-to-end op, one value per sample."""
    times = calibration.scaled([seconds for seconds, _, _ in samples], [cal for _, _, cal in samples], profile)
    return [seconds / units * 1e3 for seconds, (_, units, _) in zip(times, samples)]


def ops_per_s(samples, profile) -> float:
    """End-to-end ops per scaled second spent in calls."""
    times = calibration.scaled([seconds for seconds, _, _ in samples], [cal for _, _, cal in samples], profile)
    return sum(units for _, units, _ in samples) / sum(times)


def tail(values):
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it (the maximum below that count)."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[-1 - TAIL_BEYOND], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def no_result(loop) -> int:
    print(f"bench: no timed call returned; first failure: {loop.failures[min(loop.failures)]}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "tailshift" / "__init__.py").is_file():
        print(f"bench: no tailshift package under {SRC}", file=sys.stderr)
        return 2

    try:
        setup = measure_setup()
        ts = import_package()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workdir = BUILD / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ts, args.seed, workdir)
        return measure(ts, Loop(workload, calibration.Calibration()), args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(ts, loop, args, setup, workdir) -> int:
    import layers

    workload = loop.workload
    loop.run(count=workload.cycle)
    report = []
    if args.trace == 0:
        samples, wall = loop.run(seconds=args.seconds)
        if not samples:
            return no_result(loop)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = op_ms(samples, workload.PROFILE)
        tail_ms, tail_pct = tail(times)
        raw_ms = [seconds / units * 1e3 for seconds, units, _ in samples]
        units = declared_units("end_to_end")
        values = {
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": ops_per_s(samples, workload.PROFILE),
            "op_ms_p50": statistics.median(times),
            "op_ms_tail": tail_ms,
        }
        report.append(f"op_ms_tail is p{tail_pct:.1f} of {len(times)} samples")
        report.append(f"unscaled: op_ms_p50 {statistics.median(raw_ms):.6g} ms, "
                      f"ops_per_s {sum(n for _, n, _ in samples) / wall:.6g} 1/s over {wall:.1f} s; "
                      "calibration medians " + ", ".join(
                          f"{kind} {statistics.median(cal[kind] for _, _, cal in samples) * 1e3:.4g} ms"
                          for kind in calibration.REF_S))
    else:
        plain, _ = loop.run(seconds=args.seconds / 2)
        tracer = Tracer()
        traced, _ = loop.run(tracer=tracer, seconds=args.seconds / 2)
        if not plain or not traced:
            return no_result(loop)
        units = declared_units("per_layer")
        values = {
            "setup.import_s": setup["import_s"],
            "null_dist.analytic_quantile_cold_us": setup["critical_value_s"] * 1e6,
            "trace.overhead_pct": 100.0 * (statistics.median(op_ms(traced, workload.PROFILE))
                                           / statistics.median(op_ms(plain, workload.PROFILE)) - 1.0),
        }
        values.update(layers.replay_metrics(ts, tracer, loop.calibrate, args.seed, workdir))
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        report.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")

    check_started = perf_counter()
    failures = dict(loop.failures)
    failures.update(workload.check(loop.records))
    report.append(f"checked {len(loop.records)} outputs against the reference in {perf_counter() - check_started:.1f} s")

    missing = sorted(set(units) - set(values))
    if missing or set(values) - set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {sorted(set(values) - set(units))}")
    attempted = len(loop.records) + len(loop.failures)
    for line in report:
        print(line)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops_attempted = {attempted}, ops_failed = {len(failures)}")
    for i in sorted(failures)[:5]:
        print(f"failed op {i}: {failures[i].strip()}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
