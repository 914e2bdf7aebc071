"""Command-line front end.

Subcommands: ``test`` (change test on a series), ``ar-test`` (test on AR
residuals), ``critical-values``, ``tables`` (benchmark grid reproduction) and
``simulate`` (generate series from the built-in models).

Series input is newline-delimited decimal text; blank lines and ``#``
comments are skipped and ``-`` reads standard input. A regular file is read
by numpy's C reader (``np.loadtxt``); standard input, pipes and files holding
a ``#`` go to a Python line loop. The reader's result is kept only when it is
provably what the loop returns, and otherwise the loop runs, so both accept
the same syntax and give the same line-numbered messages. Exit codes for the
test commands: 0 = no change detected, 2 = change detected, 1 = error. The
``TAILSHIFT_SEED`` environment variable supplies the default seed; flags
override it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .ar_fit import residual_cusum
from .cusum import TailTestConfig, TestOutcome, run_test
from .experiments import TABLE_IDS, results_to_csv, results_to_report, sweep, table_specs
from .null_dist import analytic_critical_values, mc_critical_values
from .variates import BurrParams, ChangeSpec, ModelSpec, TDistParams, simulate

_PHI_BY_FLAG = {"indicator": "indicator", "log-excess": "log_excess"}
_METHOD_BY_FLAG = {"ols": "ols", "yule-walker": "yule_walker"}
# np.loadtxt decompresses these (and fetches URLs) where the loop reads plain text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit 2 is reserved for "change detected"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get("TAILSHIFT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TAILSHIFT_SEED must be an integer, got {raw!r}") from None


def read_series(path: str) -> np.ndarray:
    """Parse one finite real per line; blank lines and '#' comments are ignored."""
    x = None if path == "-" else _read_file_fast(path)
    return _read_lines(path) if x is None else x


def _read_file_fast(path: str) -> np.ndarray | None:
    """The series from numpy's C reader, or None unless it is the loop's result."""
    # a pipe or FIFO cannot be read twice, so only a regular file may fall back
    if "://" in path or path.lower().endswith(_COMPRESSED) or not os.path.isfile(path):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: a '#' anywhere fails the parse, so commented files take the loop
            x = np.loadtxt(path, comments=None, ndmin=2, encoding="utf-8")
    except (OSError, ValueError):  # the loop gives the message, with the line
        return None
    if x.shape[1] != 1 or not np.isfinite(x).all():
        return None
    return x.ravel()


def _read_lines(path: str) -> np.ndarray:
    """The reference parser: the only one for stdin and the only one that names lines."""
    name = "<stdin>" if path == "-" else path
    stream = sys.stdin if path == "-" else open(path, encoding="utf-8")
    values = []
    try:
        for lineno, raw in enumerate(stream, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{name}, line {lineno}: cannot parse {text!r} as a number") from None
            if not math.isfinite(value):
                raise ValueError(f"{name}, line {lineno}: {value!r} is not a finite number")
            values.append(value)
    finally:
        if stream is not sys.stdin:
            stream.close()
    return np.asarray(values, dtype=float)


def _emit_outcome(outcome: TestOutcome, fmt: str, extra: dict | None = None) -> None:
    extra = extra or {}
    record = asdict(outcome)  # the fields in declaration order
    # the diagnostics come last in both formats, after the ar-test extras too
    diagnostics = {key: record.pop(key) for key in ("threshold", "n_exceed")}
    if fmt == "structured":
        print(json.dumps({**record, **extra, **diagnostics}))
        return
    for key, value in {**extra, **record, **diagnostics}.items():
        if key != "reject" and value is not None:
            print(f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}")
    print("decision: change detected" if outcome.reject else "decision: no change detected")


def _prepare_input(args) -> np.ndarray:
    x = read_series(args.input)
    if np.any(x < 0.0):
        if args.no_abs:
            raise ValueError("input contains negative values, which --no-abs rejects; "
                             "drop --no-abs to test their absolute values")
        print(
            "note: input contains negative values; the test runs on absolute values "
            "(use --no-abs to require non-negative input)",
            file=sys.stderr,
        )
    return x


def cmd_test(args) -> int:
    x = _prepare_input(args)
    cfg = TailTestConfig(k=args.k, phi=_PHI_BY_FLAG[args.phi], adjust=args.adjust, level=args.level)
    outcome = run_test(x, cfg)
    _emit_outcome(outcome, args.format)
    return 2 if outcome.reject else 0


def cmd_ar_test(args) -> int:
    outcome = residual_cusum(
        read_series(args.input),
        order=args.order,
        k=args.k,
        phi=_PHI_BY_FLAG[args.phi],
        method=_METHOD_BY_FLAG[args.method],
        level=args.level,
    )
    extra = {"order": args.order, "method": _METHOD_BY_FLAG[args.method]}
    _emit_outcome(outcome, args.format, extra=extra)
    return 2 if outcome.reject else 0


def cmd_critical_values(args) -> int:
    if args.mc:
        table = mc_critical_values(args.levels, n_points=args.paths, n_rep=args.reps, seed=args.seed)
    else:
        table = analytic_critical_values(args.levels)
    sys.stdout.write(table.to_delimited())
    return 0


def cmd_tables(args) -> int:
    specs = table_specs(
        args.table,
        replications=args.replications,
        seed=args.seed,
        include_large=args.full,
    )
    results = sweep(specs)
    csv_text = results_to_csv(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(results_to_report(results))
    failed = [r for r in results if r.error is not None]
    if failed:
        for r in failed:
            print(f"error in spec {r.spec.label or r.spec}: {r.error}", file=sys.stderr)
        return 1
    return 0


_BURR_FLAGS = ("lam", "alpha", "beta", "gamma")


def _reject_unused_flags(args) -> None:
    """A law flag that the model or a missing ``--change-tau`` would leave unused is a usage error."""
    if args.change_tau is None:
        for name in ("nu",) + _BURR_FLAGS:
            if getattr(args, "post_" + name) is not None:
                raise ValueError(f"--post-{name} requires --change-tau")
    unused = ("nu",) if args.model == "iid-burr" else _BURR_FLAGS
    for prefix in ("", "post_"):
        for name in unused:
            if getattr(args, prefix + name) is not None:
                raise ValueError(f"--{prefix.replace('_', '-')}{name} does not apply to --model {args.model}")


def _innovation_from_args(args, prefix: str = ""):
    get = lambda name: getattr(args, prefix + name)
    flag = "--" + prefix.replace("_", "-")
    if args.model == "iid-burr":
        gamma = get("gamma")
        if gamma is None:
            raise ValueError(f"{flag}gamma is required for iid-burr")
        beta = {} if get("beta") is None else {"beta": get("beta")}
        if get("lam") is not None:
            return BurrParams(lam=get("lam"), gamma=gamma, **beta)
        if get("alpha") is not None:
            return BurrParams.from_alpha(get("alpha"), gamma, **beta)
        raise ValueError(f"iid-burr requires {flag}lam or {flag}alpha (with {flag}gamma)")
    nu = get("nu")
    if nu is None:
        raise ValueError(f"{flag}nu is required for {args.model}")
    return TDistParams(nu)


def cmd_simulate(args) -> int:
    kind = {"iid-burr": "iid", "ma1-t": "ma1", "ar1-t": "ar1"}[args.model]
    _reject_unused_flags(args)
    innovation = _innovation_from_args(args)
    model = ModelSpec(kind, innovation, coef=args.coef)
    change = None
    if args.change_tau is not None:
        change = ChangeSpec(tau=args.change_tau, pre=innovation, post=_innovation_from_args(args, "post_"))
    x = simulate(model, args.n, seed=args.seed, change=change)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for value in x:
            out.write(f"{float(value)!r}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tailshift", description="CUSUM tests for tail-index changes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_test_options(p):
        p.add_argument("input", help="path to a series file, or '-' for stdin")
        p.add_argument("--k", type=int, required=True, help="tail sample fraction (no default)")
        p.add_argument("--phi", choices=sorted(_PHI_BY_FLAG), default="indicator")
        p.add_argument("--level", type=float, default=0.05)
        p.add_argument("--format", choices=("human", "structured"), default="human")

    p_test = sub.add_parser("test", help="tail-index change test on a series")
    add_test_options(p_test)
    p_test.add_argument("--adjust", choices=("iid", "lag1"), default="iid")
    p_test.add_argument("--no-abs", action="store_true",
                        help="require non-negative input instead of taking absolute values")
    p_test.set_defaults(func=cmd_test)

    p_ar = sub.add_parser("ar-test", help="change test on AR(p) residuals")
    add_test_options(p_ar)
    p_ar.add_argument("--order", type=int, required=True, help="autoregressive order p")
    p_ar.add_argument("--method", choices=sorted(_METHOD_BY_FLAG), default="ols")
    p_ar.set_defaults(func=cmd_ar_test)

    p_cv = sub.add_parser("critical-values", help="critical values of the reference law")
    p_cv.add_argument("--levels", type=float, nargs="+", default=[0.90, 0.95, 0.99])
    p_cv.add_argument("--mc", action="store_true", help="Monte Carlo recipe instead of the inverse Kolmogorov CDF")
    p_cv.add_argument("--paths", type=int, default=10_000, help="points per simulated path")
    p_cv.add_argument("--reps", type=int, default=10_000, help="number of simulated paths")
    p_cv.add_argument("--seed", type=int, default=None)
    p_cv.set_defaults(func=cmd_critical_values)

    p_tab = sub.add_parser("tables", help="reproduce a benchmark grid")
    p_tab.add_argument("--table", type=int, required=True, help=f"grid id, {TABLE_IDS[0]}..{TABLE_IDS[-1]}")
    p_tab.add_argument("--replications", type=int, default=2000)
    p_tab.add_argument("--seed", type=int, default=None)
    p_tab.add_argument("--full", action="store_true", help="include the heavy n=3000 half of the grid")
    p_tab.add_argument("--out", help="write the delimited grid here instead of stdout")
    p_tab.add_argument("--report", help="also write a structured JSON report to this path")
    p_tab.set_defaults(func=cmd_tables)

    p_sim = sub.add_parser("simulate", help="generate a series from a built-in model")
    p_sim.add_argument("--model", choices=("iid-burr", "ma1-t", "ar1-t"), required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--coef", type=float, help="MA/AR lag-1 coefficient (ma1-t and ar1-t only)")
    p_sim.add_argument("--nu", type=float, help="t degrees of freedom")
    burr = p_sim.add_mutually_exclusive_group()
    burr.add_argument("--lam", type=float, help="Burr lam parameter")
    burr.add_argument("--alpha", type=float, help="Burr tail exponent (alternative to --lam)")
    p_sim.add_argument("--beta", type=float, help="Burr beta parameter (default 1)")
    p_sim.add_argument("--gamma", type=float, help="Burr gamma parameter (negative)")
    p_sim.add_argument("--change-tau", type=float, help="inject a change at this sample fraction")
    p_sim.add_argument("--post-nu", type=float, help="post-change t degrees of freedom")
    post_burr = p_sim.add_mutually_exclusive_group()
    post_burr.add_argument("--post-lam", type=float, help="post-change Burr lam")
    post_burr.add_argument("--post-alpha", type=float, help="post-change Burr tail exponent")
    p_sim.add_argument("--post-beta", type=float, help="post-change Burr beta (default 1)")
    p_sim.add_argument("--post-gamma", type=float)
    p_sim.add_argument("--out", help="write the series here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
