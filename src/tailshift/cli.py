"""Command-line front end.

Subcommands: ``test`` (change test on a series), ``ar-test`` (test on AR
residuals), ``critical-values``, ``tables`` (benchmark grid reproduction) and
``simulate`` (generate series from the built-in models).

Series input is newline-delimited decimal text; blank lines, ``#`` comments
and a file's leading UTF-8 byte-order mark are skipped, and ``-`` reads
standard input. A regular file is read by numpy's C reader (``np.loadtxt``);
standard input, pipes and files holding a ``#`` go to a Python line loop. The reader's result is kept only when it is
provably what the loop returns, and otherwise the loop runs, so both accept
the same syntax and give the same line-numbered messages. Exit codes for the
test commands: 0 = no change detected, 2 = change detected, 1 = error. The
``TAILSHIFT_SEED`` environment variable supplies the default seed; flags
override it.

Each subcommand imports what it runs when it runs. Besides ``cli``,
``_checks`` and ``null_dist``, a command loads these package modules:

    critical-values, --help   none, and no numpy
    critical-values --mc      kernel, tail_core, variates
    test                      cusum, kernel, tail_core
    ar-test                   ar_fit, cusum, kernel, tail_core
    simulate                  kernel, tail_core, variates
    tables                    ar_fit, cusum, experiments, kernel, tail_core, variates

and every one but ``critical-values`` loads numpy. scipy is loaded only by a
Yule-Walker fit (``scipy.linalg``) and an AR(1) path (``scipy.signal``, about
a second to import). The parser is built once per process and reused by every
``main`` call.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

from ._checks import TABLE_IDS
from .null_dist import _null_nonfinite, analytic_critical_values, mc_critical_values

# np.loadtxt decompresses these (and fetches URLs) where the loop reads plain text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit 2 is reserved for "change detected"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(flag: int | None) -> int:
    """The ``--seed`` value, else ``$TAILSHIFT_SEED``, else 0."""
    if flag is not None:
        return flag
    raw = os.environ.get("TAILSHIFT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TAILSHIFT_SEED must be an integer, got {raw!r}") from None


def read_series(path: str):
    """Parse one finite real per line into a float array; blank lines and '#' comments are ignored."""
    x = None if path == "-" else _read_file_fast(path)
    return _read_lines(path) if x is None else x


def _read_file_fast(path: str):
    """The series from numpy's C reader, or None unless it is the loop's result."""
    import numpy as np

    # a pipe or FIFO cannot be read twice, so only a regular file may fall back
    if "://" in path or path.lower().endswith(_COMPRESSED) or not os.path.isfile(path):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: a '#' anywhere fails the parse, so commented files take the loop
            x = np.loadtxt(path, comments=None, ndmin=2, encoding="utf-8-sig")
    except (OSError, ValueError):  # the loop gives the message, with the line
        return None
    if x.shape[1] != 1 or not np.isfinite(x).all():
        return None
    return x.ravel()


def _read_lines(path: str):
    """The float array of the reference parser: the only one for stdin and the only one that names lines."""
    import numpy as np

    name = "<stdin>" if path == "-" else path
    stream = sys.stdin if path == "-" else open(path, encoding="utf-8-sig")
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


def _write(text: str, path: str | None = None) -> None:
    """Write ``text`` to the file at ``path``, or to standard output without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_outcome(outcome, fmt: str, extra: dict | None = None) -> int:
    """Print ``outcome``, a ``TestOutcome``, in ``fmt`` and return the exit code: 2 for a detected change, else 0."""
    from dataclasses import asdict

    extra = extra or {}
    record = asdict(outcome)  # the fields in declaration order
    # the diagnostics come last in both formats, after the ar-test extras too
    diagnostics = {key: record.pop(key) for key in ("threshold", "n_exceed")}
    if fmt == "structured":
        import json  # here, so that the human format does not load it

        print(json.dumps(_null_nonfinite({**record, **extra, **diagnostics}), allow_nan=False))
    else:
        for key, value in {**extra, **record, **diagnostics}.items():
            if key != "reject" and value is not None:
                print(f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}")
        print("decision: change detected" if outcome.reject else "decision: no change detected")
    return 2 if outcome.reject else 0


def cmd_test(args) -> int:
    from .cusum import TailTestConfig, run_test

    x = read_series(args.input)
    if (x < 0.0).any():
        if args.no_abs:
            raise ValueError("input contains negative values, which --no-abs rejects; "
                             "drop --no-abs to test their absolute values")
        print(
            "note: input contains negative values; the test runs on absolute values "
            "(use --no-abs to require non-negative input)",
            file=sys.stderr,
        )
    cfg = TailTestConfig(k=args.k, phi=args.phi.replace("-", "_"), adjust=args.adjust, level=args.level)
    outcome = run_test(x, cfg)
    return _emit_outcome(outcome, args.format)


def cmd_ar_test(args) -> int:
    from .ar_fit import residual_cusum

    method = args.method.replace("-", "_")
    outcome = residual_cusum(
        read_series(args.input),
        order=args.order,
        k=args.k,
        phi=args.phi.replace("-", "_"),
        method=method,
        level=args.level,
    )
    extra = {"order": args.order, "method": method}
    return _emit_outcome(outcome, args.format, extra=extra)


_MC_DEFAULT = 10_000  # points per path and paths, under --mc


def cmd_critical_values(args) -> int:
    if args.mc:
        seed = _seed(args.seed)
        paths = _MC_DEFAULT if args.paths is None else args.paths
        reps = _MC_DEFAULT if args.reps is None else args.reps
        try:
            table = mc_critical_values(args.levels, n_points=paths, n_rep=reps, seed=seed)
        except ValueError as exc:  # name the flags, not the parameters they set
            raise ValueError(str(exc).replace("n_points", "--paths").replace("n_rep", "--reps")) from None
    else:
        for name in ("paths", "reps", "seed"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} requires --mc")
        table = analytic_critical_values(args.levels)
    _write(table.to_delimited())
    return 0


def cmd_tables(args) -> int:
    from .experiments import results_to_csv, results_to_report, sweep, table_specs

    specs = table_specs(
        args.table,
        replications=args.replications,
        seed=_seed(args.seed),
        include_large=args.full,
    )
    results = sweep(specs)
    _write(results_to_csv(results), args.out)
    if args.report:
        _write(results_to_report(results), args.report)
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"error in spec {r.spec.label or r.spec}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


_LAWS = {"t": ("nu",), "burr": ("lam", "alpha", "beta", "gamma")}  # the flags of each innovation law


def _laws_from_args(args):
    """The law before ``--change-tau`` and the one after it (None without it), from the flags of the model's law.

    A law flag that the model or a missing ``--change-tau`` would leave unused is a usage error. The flags are
    checked before either law is built, and both laws are built before the model and its ``--coef``.
    """
    from .variates import BurrParams, TDistParams

    law = args.model.split("-")[1]
    required = "nu" if law == "t" else "gamma"
    value = lambda flag: getattr(args, flag[2:].replace("-", "_"))
    prefixes = ("--", "--post-") if args.change_tau is not None else ("--",)
    for prefix in ("--", "--post-"):
        for name in _LAWS["t"] + _LAWS["burr"]:
            if value(prefix + name) is not None and prefix not in prefixes:
                raise ValueError(f"{prefix}{name} requires --change-tau")
            if value(prefix + name) is not None and name not in _LAWS[law]:
                raise ValueError(f"{prefix}{name} does not apply to --model {args.model}")
    laws = []
    for prefix in prefixes:
        if value(prefix + required) is None:
            raise ValueError(f"{prefix}{required} is required for {args.model}")
        beta = {} if value(prefix + "beta") is None else {"beta": value(prefix + "beta")}
        if law == "t":
            laws.append(TDistParams(value(prefix + "nu")))
        elif value(prefix + "lam") is not None:
            laws.append(BurrParams(lam=value(prefix + "lam"), gamma=value(prefix + "gamma"), **beta))
        elif value(prefix + "alpha") is not None:
            laws.append(BurrParams.from_alpha(value(prefix + "alpha"), value(prefix + "gamma"), **beta))
        else:
            raise ValueError(f"iid-burr requires {prefix}lam or {prefix}alpha (with {prefix}gamma)")
    return laws[0], (laws[1] if len(laws) > 1 else None)


def cmd_simulate(args) -> int:
    from .variates import ChangeSpec, ModelSpec, simulate

    seed = _seed(args.seed)
    pre, post = _laws_from_args(args)
    model = ModelSpec(args.model.split("-")[0], pre, coef=args.coef)
    change = None if post is None else ChangeSpec(tau=args.change_tau, pre=pre, post=post)
    x = simulate(model, args.n, seed=seed, change=change)
    _write("".join(f"{float(value)!r}\n" for value in x), args.out)
    return 0


@functools.cache  # one parser per process: argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tailshift", description="CUSUM tests for tail-index changes")
    sub = parser.add_subparsers(dest="command", required=True)

    # a --phi or --method choice is the library's name with "-" for "_"
    def add_test_options(p):
        p.add_argument("input", help="path to a series file, or '-' for stdin")
        p.add_argument("--k", type=int, required=True, help="tail sample fraction (no default)")
        p.add_argument("--phi", choices=("indicator", "log-excess"), default="indicator",
                       help="statistic: exceedance counts (indicator) or log excesses (log-excess); "
                            "default %(default)s")
        p.add_argument("--level", type=float, default=0.05,
                       help="significance level of the test, in (0, 1); default %(default)s. The critical "
                            "value is the reference law's quantile at 1 - level (for 0.05, the one "
                            "critical-values --levels 0.95 prints)")
        p.add_argument("--format", choices=("human", "structured"), default="human",
                       help="human: one 'name: value' line per field and the decision; "
                            "structured: one JSON object; default %(default)s")

    p_test = sub.add_parser("test", help="tail-index change test on a series")
    add_test_options(p_test)
    p_test.add_argument("--adjust", choices=("iid", "lag1"), default="iid",
                        help="scaling: i.i.d., or adjusted for lag-1 dependence; default %(default)s")
    p_test.add_argument("--no-abs", action="store_true",
                        help="require non-negative input instead of taking absolute values")
    p_test.set_defaults(func=cmd_test)

    p_ar = sub.add_parser("ar-test", help="change test on AR(p) residuals")
    add_test_options(p_ar)
    p_ar.add_argument("--order", type=int, required=True, help="autoregressive order p")
    p_ar.add_argument("--method", choices=("ols", "yule-walker"), default="ols",
                      help="AR fit: least squares (ols) or Yule-Walker; default %(default)s")
    p_ar.set_defaults(func=cmd_ar_test)

    p_cv = sub.add_parser("critical-values", help="critical values of the reference law")
    p_cv.add_argument("--levels", type=float, nargs="+", default=[0.90, 0.95, 0.99],
                      help="quantile levels of the reference law, each in (0, 1); default 0.90 0.95 0.99. "
                           "The quantile at q is the critical value of a test at significance "
                           "level 1 - q (0.95 for test --level 0.05)")
    p_cv.add_argument("--mc", action="store_true", help="Monte Carlo recipe instead of the inverse Kolmogorov CDF")
    p_cv.add_argument("--paths", type=int, help=f"points per simulated path (--mc only); default {_MC_DEFAULT}")
    p_cv.add_argument("--reps", type=int, help=f"number of simulated paths (--mc only); default {_MC_DEFAULT}")
    p_cv.add_argument("--seed", type=int, default=None,
                      help="seed of the paths (--mc only); default $TAILSHIFT_SEED, else 0")
    p_cv.set_defaults(func=cmd_critical_values)

    p_tab = sub.add_parser("tables", help="reproduce a benchmark grid")
    p_tab.add_argument("--table", type=int, required=True, help=f"grid id, {TABLE_IDS[0]}..{TABLE_IDS[-1]}")
    p_tab.add_argument("--replications", type=int, default=2000,
                       help="replications per design; default %(default)s")
    p_tab.add_argument("--seed", type=int, default=None,
                       help="seed of the replication streams; default $TAILSHIFT_SEED, else 0")
    p_tab.add_argument("--full", action="store_true", help="include the heavy n=3000 half of the grid")
    p_tab.add_argument("--out", help="write the delimited grid here instead of stdout")
    p_tab.add_argument("--report", help="also write a structured JSON report to this path")
    p_tab.set_defaults(func=cmd_tables)

    p_sim = sub.add_parser("simulate", help="generate a series from a built-in model")
    p_sim.add_argument("--model", choices=("iid-burr", "ma1-t", "ar1-t"), required=True,
                       help="i.i.d. Burr draws, or an MA(1) or AR(1) path over t innovations")
    p_sim.add_argument("--n", type=int, required=True, help="length of the series")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="seed of the path; default $TAILSHIFT_SEED, else 0")
    p_sim.add_argument("--coef", type=float, help="MA/AR lag-1 coefficient (ma1-t and ar1-t only)")
    p_sim.add_argument("--change-tau", type=float, help="switch to the law of the --post-* flags at this sample fraction")
    for prefix, when in (("--", ""), ("--post-", "post-change ")):
        p_sim.add_argument(prefix + "nu", type=float, help=f"{when}t degrees of freedom")
        burr = p_sim.add_mutually_exclusive_group()
        burr.add_argument(prefix + "lam", type=float, help=f"{when}Burr lam parameter")
        burr.add_argument(prefix + "alpha", type=float, help=f"{when}Burr tail exponent (instead of {prefix}lam)")
        p_sim.add_argument(prefix + "beta", type=float, help=f"{when}Burr beta parameter (default 1)")
        p_sim.add_argument(prefix + "gamma", type=float, help=f"{when}Burr gamma parameter (negative)")
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
