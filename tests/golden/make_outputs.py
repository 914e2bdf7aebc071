"""Write ``outputs.json``: the deterministic outputs of the command line, value by value.

    PYTHONPATH=src python tests/golden/make_outputs.py          # write the file
    PYTHONPATH=src python tests/golden/make_outputs.py --check  # compare byte for byte

Every output comes from ``tailshift.cli.main`` run in-process:

- ``tables`` 2-10 with ``--full`` at 20 replications and seed 3: the CSV rows
  and each spec's whole ``--report`` entry. The CSV key (``spec_fingerprint``)
  and the entry's ``spec`` pin every grid design;
- ``test --format structured`` on one simulated series, for each
  ``--phi``/``--adjust`` pair, and ``ar-test`` under each ``--method``;
- ``critical-values`` with its default levels;
- ``simulate`` for each model, without and with a change.

CSV is read into fields with ``csv.reader`` and the series by line, and a
field that reads as an integer or a float is stored as one.
``tests/test_golden.py`` recomputes the outputs and compares every float of
a ``spec`` entry, integer, string and bool exactly and every other float
within ``1e-12`` relative, since numpy's vector math and BLAS may round the
last bits differently on another CPU. The file records the platform it was
made on; there ``--check`` demands the very bytes of the file and names the
first value that differs. Without ``--check`` the script regenerates the file,
the one command to run when an output or a design is meant to change. Doing
so changes a check: say so, and why, in CHANGES.md.
"""
import argparse
import contextlib
import csv
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from tailshift import cli
from tailshift.experiments import TABLE_IDS

PATH = Path(__file__).with_name("outputs.json")
REPLICATIONS = 20
SEED = 3
SERIES = ["simulate", "--model", "ma1-t", "--nu", "3", "--coef", "0.5", "--n", "2000", "--seed", "1",
          "--change-tau", "0.5", "--post-nu", "1"]
K = "100"
SIMULATIONS = {  # each model's flags, and its flags after the change
    "iid-burr": (["--alpha", "2", "--gamma", "-2"], ["--post-lam", "1", "--post-gamma", "-1"]),
    "ma1-t": (["--nu", "3", "--coef", "0.5"], ["--post-nu", "1"]),
    "ar1-t": (["--nu", "3", "--coef", "0.9"], ["--post-nu", "1"]),
}


def platform_record() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def run(argv: list) -> str:
    """The standard output of ``tailshift <argv>``, which must exit with 0 (or 2, a detected change)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2), f"tailshift {' '.join(argv)} exited {code}"
    return out.getvalue()


def field(text: str):
    """``text`` as an int, else a float, else itself."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def rows(text: str) -> list:
    """The fields of each row of CSV ``text``."""
    return [[field(part) for part in row] for row in csv.reader(io.StringIO(text))]


def outputs() -> dict:
    """Every pinned output, keyed by the command that gives it."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for table_id in TABLE_IDS:
            report = Path(tmp, "report.json")
            grid = run(["tables", "--table", str(table_id), "--full", "--replications", str(REPLICATIONS),
                        "--seed", str(SEED), "--report", str(report)])
            out[f"tables {table_id}"] = {"csv": rows(grid),
                                         "report": json.loads(report.read_text(encoding="utf-8"))["results"]}
        series = str(Path(tmp, "series.txt"))
        run(SERIES + ["--out", series])
        for phi in ("indicator", "log-excess"):
            common = [series, "--k", K, "--phi", phi, "--format", "structured"]
            for adjust in ("iid", "lag1"):
                out[f"test --phi {phi} --adjust {adjust}"] = json.loads(run(["test", *common, "--adjust", adjust]))
            for method in ("ols", "yule-walker"):
                argv = ["ar-test", *common, "--order", "1", "--method", method]
                out[f"ar-test --phi {phi} --method {method}"] = json.loads(run(argv))
    out["critical-values"] = rows(run(["critical-values"]))
    for model, (flags, post) in SIMULATIONS.items():
        argv = ["simulate", "--model", model, *flags, "--n", "200", "--seed", "5"]
        out[f"simulate {model}"] = [field(line) for line in run(argv).splitlines()]
        change = [*argv, "--change-tau", "0.5", *post]
        out[f"simulate {model} change"] = [field(line) for line in run(change).splitlines()]
    return out


def difference(expected, actual, rel: float, path: str = "outputs") -> str | None:
    """The first value of ``actual`` that differs from ``expected``, named by its path, or None.

    Types, keys, lengths and every value but a float must be equal; floats may differ by ``rel`` relative
    (0: not at all), and NaN matches NaN.
    """
    if type(actual) is not type(expected):
        return f"{path}: {actual!r} is not {expected!r}"
    if isinstance(expected, dict):
        if list(actual) != list(expected):
            return f"{path}: keys {list(actual)} are not {list(expected)}"
        pairs = [(f"{path}.{key}", expected[key], actual[key]) for key in expected]
    elif isinstance(expected, list):
        if len(actual) != len(expected):
            return f"{path}: {len(actual)} items, not {len(expected)}"
        pairs = [(f"{path}[{i}]", want, got) for i, (want, got) in enumerate(zip(expected, actual))]
    elif isinstance(expected, float):
        same = math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0) or math.isnan(actual) and math.isnan(expected)
        return None if same else f"{path}: {actual!r} is not {expected!r}"
    else:
        return None if actual == expected else f"{path}: {actual!r} is not {expected!r}"
    return next((diff for p, want, got in pairs if (diff := difference(want, got, rel, p))), None)


def text(made_on: dict, values: dict) -> str:
    payload = {"made_on": made_on, "replications": REPLICATIONS, "seed": SEED, "series": SERIES, "k": K,
               "outputs": values}
    return json.dumps(payload, indent=1) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the outputs with the file byte for byte instead of writing it")
    args = parser.parse_args(argv)
    if not args.check:
        PATH.write_text(text(platform_record(), outputs()), encoding="utf-8")
        return 0
    made_on = json.loads(PATH.read_text(encoding="utf-8"))["made_on"]
    if made_on != platform_record():
        print(f"note: the file was made on {made_on}, this is {platform_record()}; "
              "only the recording platform is expected to match byte for byte", file=sys.stderr)
    values = outputs()
    if text(made_on, values) != PATH.read_text(encoding="utf-8"):
        diff = difference(json.loads(PATH.read_text(encoding="utf-8"))["outputs"], values, 0.0)
        print(f"{PATH.name}: the outputs differ from the file: {diff or 'in their text only'}", file=sys.stderr)
        return 1
    print(f"{PATH.name}: byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
