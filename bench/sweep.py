"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workloads grid cli_file --seeds 1 2 3 4 5 [--trace 0] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one at a time, with
``run_seconds`` from ``BENCHMARK.json``. For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``; for an end-to-end metric, also the share of its
bound that the spread uses. ``--out`` writes the runs (with their report
lines) and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}")
    *report, last = proc.stdout.strip().splitlines()
    return {**json.loads(last), "report": report}


def summarise(runs: list, bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            summary[name]["share_of_bound"] = spread / bounds[name]
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    result = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, declared["run_seconds"], args.trace)
            print(f"{workload} seed {seed}: correct={run['correct']} attempted={run['attempted']} "
                  f"failed={run['failed']}", file=sys.stderr)
            runs.append(run)
        result[workload] = {"seeds": args.seeds, "runs": runs, "summary": summarise(runs, bounds)}
        for name, s in result[workload]["summary"].items():
            share = f"  {s['share_of_bound']:.2f} of bound" if "share_of_bound" in s else ""
            print(f"{workload:12s} {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{share}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
