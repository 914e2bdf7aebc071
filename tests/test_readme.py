"""README.md states the package's contract; these tests keep it true.

Every fenced ``python`` block runs as one script, and every line of a fenced ``sh`` block is a command:
``tailshift ARGS`` runs in-process as ``cli.main(ARGS)``, except the commands of ``PARSED``, which take
over ~2 s at their documented size and are only parsed. The commands of ``NOT_RUN`` are skipped. The
blocks run in README order in one fresh directory, so a block may read what an earlier one wrote.
"""
import argparse
import re
import shlex
from dataclasses import fields
from pathlib import Path

import tailshift
from tailshift import cli, cusum, kernel

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)  # (info string, text) of each fenced block

NOT_RUN = {  # each README command that is not run here, and why
    "pip install -e .[test] --no-build-isolation": "installs the package",
    "pytest": "runs this suite",
    "pytest tests/test_acceptance.py -v -s": "runs a part of this suite",
    "PYTHONPATH=src python tests/golden/make_outputs.py --check": "recomputes what tests/test_golden.py checks",
}
PARSED = {  # each README command that is only parsed, and its time as a process on 2 cores
    "tailshift critical-values --mc --paths 10000 --reps 10000 --seed 0": "2.2 s",
}


def section(heading: str) -> str:
    """README's text under ``heading`` (a whole line), up to the next heading."""
    return re.split(r"^#+ ", README.split(f"\n{heading}\n", 1)[1], maxsplit=1, flags=re.M)[0]


def commands(block: str) -> list:
    """The commands of an ``sh`` block, each as its words joined by one space: continued lines are joined,
    and comments and blank lines dropped."""
    words = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [" ".join(w) for w in words if w]


def run(command: str, capsys) -> None:
    """Run a ``tailshift`` command in-process, or only parse it if it is one of ``PARSED``."""
    program, *args = shlex.split(command)
    assert program == "tailshift", f"run {command!r} here, or list it in NOT_RUN"
    if command in PARSED:
        cli.build_parser().parse_args(args)
    else:
        codes = (0, 2) if args[0] in ("test", "ar-test") else (0,)
        assert cli.main(args) in codes, (command, capsys.readouterr().err)


def test_every_example_runs_or_is_listed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    seen = []
    for lang, block in BLOCKS:
        if lang == "python":
            exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
        elif lang == "sh":
            seen += commands(block)
            for command in commands(block):
                if command not in NOT_RUN:
                    run(command, capsys)
    assert {*NOT_RUN, *PARSED} <= set(seen), "a listed command is no longer in README"
    assert Path("series.txt").is_file() and Path("table2.csv").is_file()


def test_the_cli_usage_names_each_subcommands_own_flags():
    usage = next(block for lang, block in BLOCKS if not lang and block.startswith("tailshift "))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    named = []
    for entry in re.split(r"^(?=tailshift )", usage, flags=re.M)[1:]:  # a command with its continuation lines
        command, flags = entry.split()[1], set(re.findall(r"--[a-z][a-z-]*", entry))
        assert flags <= set(subparsers[command]._option_string_actions), (command, flags)
        named.append(command)
    assert sorted(named) == sorted(subparsers)


def test_the_api_list_names_exactly_the_exports():
    bullets = "".join(re.findall(r"^(?:- |  ).*\n", section("## Public API"), re.M))
    assert sorted(re.findall(r"`(\w+)`", bullets)) == tailshift.__all__


def test_the_status_table_gives_each_bit_of_the_kernel():
    rows = re.findall(r"^\| (\d+) \| `(\w+)` \|", section("## Degenerate data"), re.M)
    bits = {name: value for name, value in vars(kernel).items() if name.isupper() and not name.startswith("_")}
    assert {name: int(bit) for bit, name in rows} == bits


def test_the_record_table_lists_the_outcome_fields_in_order():
    rows = re.findall(r"^\| `(\w+)` \|", section("### `test`/`ar-test` structured record (one JSON object)"), re.M)
    assert rows == [f.name for f in fields(cusum.TestOutcome)]
