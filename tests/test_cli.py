import csv
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

from tailshift import cli, cusum, experiments
from tailshift.ar_fit import residual_cusum
from tailshift.cli import main, read_series
from tailshift.cusum import TailTestConfig, run_test
from tailshift.variates import BurrParams, ChangeSpec, ModelSpec, TDistParams, replication_rng, simulate

HAND = "5\n1\n2\n3\n"


def write(tmp_path, text, name="series.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def test_read_series_skips_blanks_and_comments(tmp_path):
    path = write(tmp_path, "# header\n\n1.5\n  # indented comment\n-2\n\n3e2\n")
    assert np.array_equal(read_series(path), [1.5, -2.0, 300.0])


def test_read_series_reports_line_number(tmp_path):
    path = write(tmp_path, "1\n2\nabc\n4\n")
    with pytest.raises(ValueError, match="line 3"):
        read_series(path)


def test_unparseable_line_exits_one(tmp_path, capsys):
    assert main(["test", write(tmp_path, "1\nups\n3\n4\n"), "--k", "2"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_plain_file_takes_numpys_reader(tmp_path):
    path = write(tmp_path, "1.5\n\n-2\n  3e2 \n")
    assert cli._read_file_fast(path).tolist() == [1.5, -2.0, 300.0]
    assert cli._read_file_fast(write(tmp_path, "1\n# c\n2\n", "c.txt")) is None  # a '#' takes the loop


def test_a_byte_order_mark_is_skipped_by_both_readers(tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with one
    bom = "\ufeff"
    plain = write(tmp_path, bom + "1.5\n2\n3\n4\n", "bom.txt")
    commented = write(tmp_path, bom + "# c\n1.5\n2\n", "c.txt")
    assert cli._read_file_fast(plain).tolist() == cli._read_lines(plain).tolist() == [1.5, 2.0, 3.0, 4.0]
    assert cli._read_file_fast(commented) is None  # a '#' takes the loop
    assert read_series(commented).tolist() == [1.5, 2.0]
    assert main(["test", plain, "--k", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_pipes_are_read_once(tmp_path):
    text = "1.5\n# c\n-2\n3e2\n"
    r, w = os.pipe()  # an anonymous pipe, as `tailshift test <(cmd)` passes it
    try:
        os.write(w, text.encode())
        os.close(w)
        assert read_series(f"/dev/fd/{r}").tolist() == [1.5, -2.0, 300.0]
    finally:
        os.close(r)
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    assert read_series(str(fifo)).tolist() == [1.5, -2.0, 300.0]
    writer.join(timeout=10)


@pytest.mark.parametrize("text, line, bad", [
    ("1 2", 1, "1 2"),                       # numpy's reader: one row of two columns
    ("1 2\n3 4\n5 6\n7 8\n", 1, "1 2"),      # two columns
    ("1\n2\n3 4\n5\n", 3, "3 4"),            # ragged
    ("1\n2\n1.5 # note\n4\n", 3, "1.5 # note"),  # numpy's reader cuts an inline comment
    ("# a # b\n1\n2 # c\n", 3, "2 # c"),
])
def test_lines_the_loop_rejects_fail_with_their_line(tmp_path, text, line, bad):
    path = write(tmp_path, text)
    with pytest.raises(ValueError) as info:
        read_series(path)
    assert str(info.value) == f"{path}, line {line}: cannot parse {bad!r} as a number"
    assert cli._read_file_fast(path) is None


def test_float_syntax_numpy_rejects_still_reads(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("1_000\n１２\n# c\n  # d\n\n-0.0\n", encoding="utf-8")
    x = read_series(str(path))
    assert x.tolist() == [1000.0, 12.0, -0.0] and np.signbit(x[2])


def test_compressed_name_is_read_as_plain_text(tmp_path):
    import gzip

    assert read_series(write(tmp_path, "1\n2\n", name="plain.gz")).tolist() == [1.0, 2.0]
    packed = tmp_path / "series.txt.gz"
    packed.write_bytes(gzip.compress(b"1\n2\n3\n4\n"))
    with pytest.raises(UnicodeDecodeError):  # not decompressed behind the user's back
        read_series(str(packed))


@pytest.mark.parametrize("text", ["", "# only a comment\n\n  # and another\n"])
def test_empty_input_is_too_short_without_warning(tmp_path, capsys, text):
    assert main(["test", write(tmp_path, text), "--k", "2"]) == 1
    assert capsys.readouterr().err == "error: need n >= max(4, k + 2) = 4, got n = 0\n"


def test_unreadable_input_messages(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["test", missing, "--k", "2"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert main(["test", str(tmp_path), "--k", "2"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    invalid = tmp_path / "invalid.txt"
    invalid.write_bytes(b"1\n\xff\n3\n4\n")
    assert main(["test", str(invalid), "--k", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n")


_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "-0.0", "1e999", "-1e999", "nan", "inf", "5e-324", "2.2250738585072014e-308",
        "", " ", "\t", "\x0c", "\xa0", " \t\xa0 ",
        "# c", "  # c", "# a # b", "1.5 # c", "\t# 1",
        "1 2", "1,2", "1_000", "１２", " 3 ", "+4", ".5", "1e5",
    ]),
)


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("series")


def _outcome(reader, path):
    try:
        x = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return x.dtype, x.shape, x.tobytes()


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=12), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       last=st.booleans(), bom=st.sampled_from(["", "\ufeff"]))
def test_read_series_matches_the_line_loop(series_dir, lines, newline, last, bom):
    path = series_dir / "drawn.txt"
    path.write_bytes((bom + newline.join(lines) + (newline if last else "")).encode("utf-8"))
    assert _outcome(read_series, str(path)) == _outcome(cli._read_lines, str(path))


# ---------------------------------------------------------------------------
# test command
# ---------------------------------------------------------------------------

def test_hand_series_no_change(tmp_path, capsys):
    code = main(["test", write(tmp_path, HAND), "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision: no change detected" in out
    assert "scaled_statistic: 0.53033" in out
    assert out.splitlines()[-3:-1] == ["threshold: 3", "n_exceed: 1"]


def test_structured_output_round_trips(tmp_path, capsys):
    path = write(tmp_path, HAND)
    assert main(["test", path, "--k", "2", "--format", "structured"]) == 0
    first = capsys.readouterr().out
    record = json.loads(first)
    assert record["n"] == 4 and record["k"] == 2
    assert record["statistic"] == pytest.approx(0.530330, abs=1e-6)
    assert record["omega_hat"] is None
    assert record["reject"] is False
    assert record["tau_hat"] == 0.25
    # the diagnostics come after every other field
    assert list(record)[-3:] == ["tau_hat", "threshold", "n_exceed"]
    assert (record["threshold"], record["n_exceed"]) == (3.0, 1)
    # bit-identical rerun
    assert main(["test", path, "--k", "2", "--format", "structured"]) == 0
    assert capsys.readouterr().out == first


def no_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def test_an_infinite_alpha_hat_is_null_in_the_structured_record(tmp_path, capsys):
    # the four largest values tie at 5, so none exceeds the threshold and alpha_hat is infinite
    path = write(tmp_path, "5\n5\n5\n5\n1\n2\n3\n1\n2\n0.5\n")
    assert main(["test", path, "--k", "3", "--format", "structured"]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert (record["alpha_hat"], record["n_exceed"], record["threshold"]) == (None, 0, 5.0)
    assert main(["test", path, "--k", "3"]) == 0
    assert "alpha_hat: inf" in capsys.readouterr().out.splitlines()


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(HAND))
    assert main(["test", "-", "--k", "2"]) == 0
    assert "decision" in capsys.readouterr().out


def test_negative_values_notice_and_no_abs(tmp_path, capsys):
    path = write(tmp_path, "5\n-1\n2\n3\n")
    assert main(["test", path, "--k", "2"]) == 0
    assert "absolute values" in capsys.readouterr().err
    assert main(["test", path, "--k", "2", "--no-abs"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "negative" in err and "--no-abs" in err and "use_abs" not in err
    # -0.0 is not negative
    assert main(["test", write(tmp_path, "5\n-0.0\n2\n3\n", "zero.txt"), "--k", "2", "--no-abs"]) == 0
    assert capsys.readouterr().err == ""


def test_usage_errors_exit_one(tmp_path, capsys):
    single = write(tmp_path, "5\n")
    assert main(["test", single, "--k", "2"]) == 1
    capsys.readouterr()
    assert main(["test", write(tmp_path, HAND), "--k", "9"]) == 1  # k >= n
    capsys.readouterr()
    assert main(["test", write(tmp_path, HAND)]) == 1  # --k is required
    capsys.readouterr()
    assert main(["bogus-command"]) == 1
    capsys.readouterr()
    assert main(["test", str(tmp_path / "missing.txt"), "--k", "2"]) == 1
    capsys.readouterr()
    # test --level is a significance level, critical-values --levels are quantile levels
    for command, meaning in (("test", "significance level of the test"),
                             ("critical-values", "quantile levels of the reference law")):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert meaning in text and "significance level" in text and "quantile" in text


def test_bugs_propagate_out_of_main(tmp_path, monkeypatch):
    # only bad input exits 1; an IndexError is a bug and is not turned into "error: ..."
    def bug(*args):
        raise IndexError("index 9 is out of bounds")

    monkeypatch.setattr(cusum, "run_test", bug)  # where cmd_test imports it from
    with pytest.raises(IndexError, match="index 9"):
        main(["test", write(tmp_path, HAND), "--k", "2"])


def test_change_detection_exits_two(tmp_path, capsys):
    model = ModelSpec("iid", BurrParams.from_alpha(3.0, -1.0))
    change = ChangeSpec(0.5, BurrParams.from_alpha(3.0, -1.0), BurrParams.from_alpha(0.8, -1.0))
    x = simulate(model, 2000, seed=1, change=change)
    path = write(tmp_path, "".join(f"{float(v)!r}\n" for v in x))
    code = main(["test", path, "--k", "100", "--format", "structured"])
    record = json.loads(capsys.readouterr().out)
    assert code == 2
    assert record["reject"] is True


def test_localization_monte_carlo(tmp_path, capsys):
    # tail exponent 3 -> 0.8 at mid-sample: detection with a localized change
    # point in at least 90% of seeded runs
    model = ModelSpec("iid", BurrParams.from_alpha(3.0, -1.0))
    change = ChangeSpec(0.5, BurrParams.from_alpha(3.0, -1.0), BurrParams.from_alpha(0.8, -1.0))
    path = str(tmp_path / "mc.txt")
    hits = 0
    for r in range(200):
        x = simulate(model, 2000, seed=replication_rng(424, r), change=change)
        with open(path, "w") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in x)
        code = main(["test", path, "--k", "100", "--format", "structured"])
        record = json.loads(capsys.readouterr().out)
        if code == 2 and abs(record["tau_hat"] - 0.5) <= 0.1:
            hits += 1
    assert hits >= 180


# ---------------------------------------------------------------------------
# ar-test command
# ---------------------------------------------------------------------------

def test_ar_test_runs(tmp_path, capsys):
    x = simulate(ModelSpec("ar1", TDistParams(3.0), coef=0.5), 500, seed=6)
    path = write(tmp_path, "".join(f"{float(v)!r}\n" for v in x))
    code = main(["ar-test", path, "--k", "40", "--order", "1", "--format", "structured"])
    record = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    assert record["n"] == 499
    assert record["order"] == 1 and record["method"] == "ols"
    assert list(record)[-4:] == ["order", "method", "threshold", "n_exceed"]  # diagnostics last
    assert record["n_exceed"] <= 39
    assert main(["ar-test", path, "--k", "40", "--order", "1"]) == code  # human format, same decision
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[-3:-1]] == ["threshold", "n_exceed"]
    assert lines[-2] == f"n_exceed: {record['n_exceed']}"
    assert main(["ar-test", path, "--k", "40", "--order", "1", "--method", "yule-walker"]) in (0, 2)
    capsys.readouterr()


def test_ar_test_takes_signed_input_without_notice_or_no_abs(tmp_path, capsys):
    x = simulate(ModelSpec("ar1", TDistParams(3.0), coef=0.5), 200, seed=3)
    assert (x < 0).any()
    path = write(tmp_path, "".join(f"{float(v)!r}\n" for v in x))
    assert main(["ar-test", path, "--k", "10", "--order", "1"]) in (0, 2)
    assert capsys.readouterr().err == ""  # the test folds the residuals, not the input
    assert main(["ar-test", path, "--k", "10", "--order", "1", "--no-abs"]) == 1
    assert "unrecognized arguments: --no-abs" in capsys.readouterr().err
    assert main(["ar-test", "--help"]) == 0
    assert "--no-abs" not in capsys.readouterr().out


def test_the_flag_spellings_reach_the_library_names(tmp_path, capsys):
    # --phi log-excess and --method yule-walker must reach the library as log_excess and yule_walker
    x = simulate(ModelSpec("ar1", TDistParams(3.0), coef=0.5), 500, seed=6)
    path = write(tmp_path, "".join(f"{float(v)!r}\n" for v in x))
    assert main(["ar-test", path, "--k", "40", "--order", "1", "--phi", "log-excess", "--method", "yule-walker",
                 "--format", "structured"]) in (0, 2)
    outcome = residual_cusum(x, order=1, k=40, phi="log_excess", method="yule_walker")
    assert json.loads(capsys.readouterr().out) == {**asdict(outcome), "order": 1, "method": "yule_walker"}
    assert outcome != residual_cusum(x, order=1, k=40, phi="log_excess", method="ols")
    assert main(["test", path, "--k", "40", "--phi", "log-excess", "--adjust", "lag1", "--format", "structured"]) in (0, 2)
    outcome = run_test(x, TailTestConfig(k=40, phi="log_excess", adjust="lag1"))
    assert json.loads(capsys.readouterr().out) == asdict(outcome)


def test_ar_test_requires_order(tmp_path, capsys):
    path = write(tmp_path, HAND)
    assert main(["ar-test", path, "--k", "2"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# critical-values command
# ---------------------------------------------------------------------------

def test_critical_values_analytic(capsys):
    assert main(["critical-values"]) == 0
    rows = csv_rows(capsys.readouterr().out)
    assert rows[0] == ["level", "critical_value", "source"]
    values = [float(row[1]) for row in rows[1:]]
    assert values == pytest.approx([1.22387, 1.35810, 1.62762], abs=1e-3)


def test_critical_values_single_level_and_validation(capsys):
    assert main(["critical-values", "--levels", "0.5"]) == 0
    rows = csv_rows(capsys.readouterr().out)
    assert len(rows) == 2
    assert 0.8 < float(rows[1][1]) < 0.9
    assert main(["critical-values", "--levels", "1.5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("level", ["1e-17", "1e-300"])
def test_a_level_too_small_to_use_is_named(tmp_path, capsys, level):
    # 1 - level rounds to 1.0, yet both test commands solve the critical value at the level itself
    path = write(tmp_path, HAND * 2)
    for command in (["test", path, "--k", "2"], ["ar-test", path, "--k", "2", "--order", "1"]):
        assert main([*command, "--level", level, "--format", "structured"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        record = json.loads(captured.out)
        assert record["level"] == float(level)
        assert kolmogorov(record["critical_value"]) == pytest.approx(float(level), rel=1e-13, abs=0.0)


def test_critical_values_mc(capsys):
    assert main(["critical-values", "--mc", "--paths", "1000", "--reps", "300", "--seed", "7"]) == 0
    rows = csv_rows(capsys.readouterr().out)
    values = [float(row[1]) for row in rows[1:]]
    assert values[0] < values[1] < values[2]
    assert [row[2] for row in rows[1:]] == ["mc(paths=1000,reps=300,seed=7)"] * 3
    assert values[1] == pytest.approx(1.358, abs=0.12)
    assert main(["critical-values", "--mc", "--paths", "10", "--reps", "100", "--seed", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be non-negative, got -2\n"


@pytest.mark.parametrize("flags, message", [
    (["--reps", "50"], "--reps must be at least 100, got 50"),
    (["--paths", "1"], "--paths must be at least 2, got 1"),
])
def test_critical_values_mc_names_its_flags(capsys, flags, message):
    assert main(["critical-values", "--mc", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flags, name", [
    (["--paths", "1"], "paths"),
    (["--reps", "0"], "reps"),
    (["--seed", "5"], "seed"),
    (["--levels", "0.95", "--paths", "1", "--reps", "0", "--seed", "5"], "paths"),
])
def test_critical_values_mc_flags_require_mc(capsys, flags, name):
    # the analytic table would silently ignore them
    assert main(["critical-values", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --{name} requires --mc\n"


def test_critical_values_reads_env_seed_only_under_mc(monkeypatch, capsys):
    monkeypatch.setenv("TAILSHIFT_SEED", "abc")
    assert main(["critical-values", "--levels", "0.95"]) == 0
    assert capsys.readouterr().out.endswith(",analytic\n")
    assert main(["critical-values", "--mc", "--paths", "10", "--reps", "100"]) == 1
    assert capsys.readouterr().err == "error: TAILSHIFT_SEED must be an integer, got 'abc'\n"
    monkeypatch.setenv("TAILSHIFT_SEED", "4")
    assert main(["critical-values", "--mc", "--paths", "10", "--reps", "100"]) == 0
    assert "mc(paths=10,reps=100,seed=4)" in capsys.readouterr().out


def test_critical_values_runs_without_numpy_or_dataclasses():
    # the analytic command imports neither, so blocking them changes no output; --mc still loads numpy on its call
    script = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = sys.modules["dataclasses"] = None  # any import of either now raises ImportError
from tailshift import cli

out = []
for argv in (["critical-values"], ["critical-values", "--levels", "0.95"], ["critical-values", "--levels", "1.5"]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        out.append([cli.main(argv), stdout.getvalue(), stderr.getvalue()])
out.append(sorted(m for m in sys.modules if m.startswith("tailshift.")))
if sys.argv[1] == "unblocked":
    with contextlib.redirect_stdout(io.StringIO()):
        out.append(cli.main(["critical-values", "--mc", "--paths", "10", "--reps", "100"]))
print(json.dumps(out))
"""
    runs = {}
    for mode in ("blocked", "unblocked"):
        proc = subprocess.run([sys.executable, "-c", script, mode], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert runs["unblocked"][-1] == 0  # --mc
    assert runs["blocked"] == runs["unblocked"][:-1]
    default, single, rejected, modules = runs["blocked"]
    assert default[0] == single[0] == 0 and single[1].endswith(",analytic\n") and len(csv_rows(default[1])) == 4
    assert rejected == [1, "", "error: level must lie in (0, 1), got 1.5\n"]
    assert modules == ["tailshift._checks", "tailshift.cli", "tailshift.null_dist"]


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, monkeypatch, capsys):
    # main reuses one cached parser; no parse may leave a value or default behind for the next
    series, signed = write(tmp_path, HAND), write(tmp_path, "-1\n" + HAND, "signed.txt")
    burr = ["simulate", "--model", "iid-burr", "--lam", "1", "--gamma", "-1", "--n", "5"]
    calls = [
        ("1", ["test", signed, "--k", "2", "--no-abs"]),
        ("1", ["test", signed, "--k", "2"]),
        ("1", ["critical-values", "--mc", "--paths", "20", "--reps", "100", "--seed", "3"]),
        ("4", ["critical-values", "--mc", "--paths", "20", "--reps", "100"]),
        ("4", ["critical-values", "--levels", "0.95"]),
        ("4", ["critical-values"]),
        ("4", ["critical-values", "--seed", "3"]),
        ("5", burr + ["--seed", "2"]),
        ("5", burr),
        ("6", burr),
        ("6", ["test", series, "--k", "2", "--format", "structured"]),
        ("6", ["test", series, "--k", "2"]),
        ("6", ["test", series]),
        ("6", ["critical-values", "--help"]),
    ]

    def run(fresh):
        results = []
        for seed, argv in calls:
            monkeypatch.setenv("TAILSHIFT_SEED", seed)
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    shared = run(fresh=False)
    assert shared == run(fresh=True)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0]
    assert shared[2][1] != shared[3][1] and shared[8][1] != shared[9][1]  # each seed reached its call


def test_critical_values_mc_defaults_paths_and_reps(capsys):
    for flags, source in ((["--paths", "10"], "mc(paths=10,reps=10000,seed=0)"),
                          (["--reps", "100"], "mc(paths=10000,reps=100,seed=0)")):
        assert main(["critical-values", "--levels", "0.95", "--mc", *flags]) == 0
        header, row = csv_rows(capsys.readouterr().out)
        assert header == ["level", "critical_value", "source"]
        assert row[0] == "0.95" and 1.0 < float(row[1]) < 1.7 and row[2] == source


@pytest.mark.parametrize("argv", [
    ["tables", "--table", "2", "--replications", "1"],
    ["tables", "--table", "3", "--replications", "1"],
    ["critical-values", "--mc", "--paths", "100", "--reps", "100"],
])
def test_every_csv_row_is_as_wide_as_its_header(capsys, argv):
    # the row keys of tables 2 and 3 and the Monte Carlo source hold commas
    assert main(argv) == 0
    rows = csv_rows(capsys.readouterr().out)
    assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
    assert any("," in field for row in rows[1:] for field in row)


# ---------------------------------------------------------------------------
# tables command
# ---------------------------------------------------------------------------

def test_tables_writes_grid(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    report = tmp_path / "t2.json"
    code = main([
        "tables", "--table", "2", "--replications", "2", "--seed", "5",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 10  # header + 4 rows x 10 k cells
    payload = json.loads(report.read_text())
    assert len(payload["results"]) == 4


def test_a_cell_without_an_ok_replication_is_null_in_the_report(tmp_path, capsys, monkeypatch):
    # 12 points leave 3 residuals of an AR(9) fit, too few for k = 10 in every replication
    spec = experiments.SimulationSpec(model=ModelSpec("iid", BurrParams.from_alpha(2.0, -2.0)), n=12, k_grid=(10,),
                                      test="ar_residual", ar_order=9, replications=3)
    monkeypatch.setattr(experiments, "table_specs", lambda *args, **kwargs: [spec])
    grid, report = tmp_path / "grid.csv", tmp_path / "report.json"
    assert main(["tables", "--table", "9", "--out", str(grid), "--report", str(report)]) == 0
    (row,) = json.loads(report.read_text(), parse_constant=no_constant)["results"][0]["rows"]
    assert (row["mean_alpha_hat"], row["mse_tau"], row["error_count"]) == (None, None, 3)
    assert csv_rows(grid.read_text())[1][4:] == ["nan", "3", "3"]  # the CSV keeps nan


def test_tables_stdout_and_bad_id(capsys, monkeypatch):
    assert main(["tables", "--table", "6", "--replications", "1", "--seed", "2"]) == 0
    rows = csv_rows(capsys.readouterr().out)
    assert len(rows) == 1 + 2 * 10
    assert main(["tables", "--table", "99", "--replications", "1"]) == 1
    capsys.readouterr()
    assert main(["tables", "--table", "2", "--replications", "1", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no CSV: the other specs did not run on seeds 0-2
    assert captured.err == "error: seed must be non-negative, got -1\n"
    # a failing spec gets an ERROR row and a stderr line; the other spec still runs
    real_run_table = experiments.run_table

    def failing(spec):
        if spec.label == "size-ar1-resid(coef=0.5)":
            raise ValueError("boom, here")
        return real_run_table(spec)

    monkeypatch.setattr(experiments, "run_table", failing)
    assert main(["tables", "--table", "6", "--replications", "1", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    failed = csv_rows(captured.out)
    assert failed[:1] + failed[2:] == rows[:1] + rows[11:]
    assert rows[1][0].startswith("size-ar1-resid(coef=0.5)/")
    assert failed[1] == [rows[1][0], "", "", "", "", "1", "ERROR: boom, here"]  # the message verbatim
    assert captured.err == "error in spec size-ar1-resid(coef=0.5): boom, here\n"


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def test_simulate_outputs_parse_and_reproduce(capsys):
    argv = ["simulate", "--model", "iid-burr", "--alpha", "2", "--gamma", "-2",
            "--n", "40", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    values = [float(line) for line in first.strip().splitlines()]
    assert len(values) == 40 and all(v > 0 for v in values)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_models_and_change(capsys):
    assert main(["simulate", "--model", "ma1-t", "--nu", "3", "--coef", "0.5",
                 "--n", "10", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--model", "ar1-t", "--nu", "3", "--coef", "0.5",
                 "--n", "10", "--seed", "1", "--change-tau", "0.5", "--post-nu", "1"]) == 0
    capsys.readouterr()
    # missing parameters exit 1
    assert main(["simulate", "--model", "ma1-t", "--nu", "3", "--n", "10"]) == 1
    capsys.readouterr()
    assert main(["simulate", "--model", "iid-burr", "--alpha", "2", "--n", "10"]) == 1
    capsys.readouterr()
    # non-finite parameters exit 1 naming the field, with no series written
    for field, flags in (("coef", ["ma1-t", "--nu", "3", "--coef", "nan"]),
                         ("coef", ["ma1-t", "--nu", "3", "--coef", "inf"]),
                         ("nu", ["ma1-t", "--nu", "inf", "--coef", "0.5"]),
                         ("lam", ["iid-burr", "--lam", "inf", "--gamma", "-1"])):
        assert main(["simulate", "--model", *flags, "--n", "10", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {field} must be finite")
    # a negative seed is named, not numpy's "expected non-negative integer"
    assert main(["simulate", "--model", "ma1-t", "--nu", "3", "--coef", "0.5", "--n", "10", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be non-negative, got -1\n"


# each law is chosen so that a swapped --lam/--alpha, a dropped --beta or a pre-change
# law reused after the change gives another series
LAM = (["--lam", "2.5", "--gamma", "-2"], BurrParams(lam=2.5, gamma=-2.0))
ALPHA = (["--alpha", "3", "--gamma", "-2"], BurrParams.from_alpha(3.0, -2.0))
ALPHA_BETA = (["--alpha", "3", "--beta", "0.5", "--gamma", "-2"], BurrParams.from_alpha(3.0, -2.0, beta=0.5))
POST_LAM = (["--post-lam", "0.75", "--post-gamma", "-1"], BurrParams(lam=0.75, gamma=-1.0))
POST_ALPHA_BETA = (["--post-alpha", "1.5", "--post-beta", "2", "--post-gamma", "-0.5"],
                   BurrParams.from_alpha(1.5, -0.5, beta=2.0))
NU = (["--nu", "3"], TDistParams(3.0))
POST_NU = (["--post-nu", "1"], TDistParams(1.0))


@pytest.mark.parametrize("model, kind, coef, pre, post", [
    ("iid-burr", "iid", None, LAM, None),
    ("iid-burr", "iid", None, ALPHA, None),
    ("iid-burr", "iid", None, ALPHA_BETA, None),
    ("ma1-t", "ma1", 0.5, NU, None),
    ("ar1-t", "ar1", 0.5, NU, None),
    ("iid-burr", "iid", None, LAM, POST_ALPHA_BETA),
    ("iid-burr", "iid", None, ALPHA, POST_LAM),
    ("iid-burr", "iid", None, ALPHA_BETA, POST_LAM),
    ("ma1-t", "ma1", 0.5, NU, POST_NU),
    ("ar1-t", "ar1", 0.5, NU, POST_NU),
])
def test_simulate_flags_build_the_library_laws(capsys, model, kind, coef, pre, post):
    argv = ["simulate", "--model", model, "--n", "30", "--seed", "4", *pre[0]]
    argv += [] if coef is None else ["--coef", str(coef)]
    change = None
    if post is not None:
        argv += ["--change-tau", "0.4", *post[0]]
        change = ChangeSpec(tau=0.4, pre=pre[1], post=post[1])
    assert main(argv) == 0
    x = simulate(ModelSpec(kind, pre[1], coef=coef), 30, 4, change)
    assert capsys.readouterr().out == "".join(f"{float(value)!r}\n" for value in x)


def test_simulate_rejects_ignored_and_conflicting_flags(capsys):
    iid = ["simulate", "--model", "iid-burr", "--n", "10", "--seed", "1"]
    for argv, message in (
        # --coef with iid-burr was dropped; lam silently won over alpha
        (iid + ["--lam", "1", "--gamma", "-1", "--coef", "0.5"], "error: iid model takes no coefficient\n"),
        (["simulate", "--model", "ar1-t", "--nu", "3", "--n", "10"], "error: ar1 model requires a coefficient\n"),
        (["simulate", "--model", "ma1-t", "--nu", "3", "--coef", "0.5"],
         "error: the following arguments are required: --n\n"),
        (["simulate", "--nu", "3", "--n", "10"], "error: the following arguments are required: --model\n"),
        (["simulate", "--model", "ma1-t", "--coef", "0.5", "--n", "10"], "error: --nu is required for ma1-t\n"),
        (["simulate", "--model", "ar1-t", "--nu", "3", "--coef", "0.5", "--n", "10", "--change-tau", "0.5"],
         "error: --post-nu is required for ar1-t\n"),
        (iid + ["--lam", "1"], "error: --gamma is required for iid-burr\n"),
        (iid + ["--lam", "1", "--gamma", "-1", "--change-tau", "0.5", "--post-lam", "1"],
         "error: --post-gamma is required for iid-burr\n"),
        (iid + ["--lam", "1", "--alpha", "9", "--gamma", "-1"],
         "error: argument --alpha: not allowed with argument --lam\n"),
        (iid + ["--lam", "1", "--gamma", "-1", "--change-tau", "0.5", "--post-lam", "1", "--post-alpha", "2",
                "--post-gamma", "-1"], "error: argument --post-alpha: not allowed with argument --post-lam\n"),
        # the post-change message named the pre-change flags
        (iid + ["--alpha", "2", "--gamma", "-1", "--change-tau", "0.5", "--post-gamma", "-1"],
         "error: iid-burr requires --post-lam or --post-alpha (with --post-gamma)\n"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(message)


SIM_BURR = ["simulate", "--model", "iid-burr", "--lam", "1", "--gamma", "-1", "--n", "2", "--seed", "1"]
SIM_T = ["simulate", "--model", "ma1-t", "--nu", "3", "--coef", "0.5", "--n", "2", "--seed", "1"]


def assert_error_exit(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_simulate_rejects_t_flags_with_burr(capsys):
    assert_error_exit(capsys, SIM_BURR + ["--nu", "3"], "--nu does not apply to --model iid-burr")
    assert_error_exit(capsys, SIM_BURR + ["--change-tau", "0.5", "--post-lam", "2", "--post-gamma", "-1",
                                           "--post-nu", "3"], "--post-nu does not apply to --model iid-burr")


def test_simulate_rejects_burr_flags_with_t_models(capsys):
    for model in ("ma1-t", "ar1-t"):
        t = ["simulate", "--model", model, "--nu", "3", "--coef", "0.5", "--n", "2"]
        for flag in ("--lam", "--alpha", "--beta", "--gamma"):
            assert_error_exit(capsys, t + [flag, "1"], f"{flag} does not apply to --model {model}")
            assert_error_exit(capsys, t + ["--change-tau", "0.5", "--post-nu", "1", "--post" + flag[1:], "1"],
                               f"--post{flag[1:]} does not apply to --model {model}")


def test_simulate_rejects_post_flags_without_change_tau(capsys):
    for argv, flag in ((SIM_T, "--post-nu"), (SIM_BURR, "--post-lam"), (SIM_BURR, "--post-alpha"),
                       (SIM_BURR, "--post-beta"), (SIM_BURR, "--post-gamma")):
        assert_error_exit(capsys, argv + [flag, "2"], f"{flag} requires --change-tau")


def test_simulate_overflow_is_a_named_error(capsys):
    argv = ["simulate", "--model", "iid-burr", "--lam", "0.001", "--gamma", "-1", "--n", "5", "--seed", "1"]
    message = ("iid path of BurrParams(lam=0.001, beta=1.0, gamma=-1.0) is not finite: "
               "series contains a non-finite value at index 0 (inf)")
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert_error_exit(capsys, argv, message)


def test_simulate_pipes_into_test(tmp_path, capsys):
    out = tmp_path / "sim.txt"
    assert main(["simulate", "--model", "iid-burr", "--lam", "1", "--gamma", "-2",
                 "--n", "200", "--seed", "9", "--out", str(out)]) == 0
    assert main(["test", str(out), "--k", "20"]) in (0, 2)
    capsys.readouterr()


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("TAILSHIFT_SEED", "77")
    argv = ["simulate", "--model", "iid-burr", "--lam", "1", "--gamma", "-1", "--n", "5"]
    assert main(argv) == 0
    from_env = capsys.readouterr().out
    assert main(argv + ["--seed", "77"]) == 0
    assert capsys.readouterr().out == from_env  # flag with same value matches env default
    assert main(argv + ["--seed", "78"]) == 0
    assert capsys.readouterr().out != from_env  # flag overrides env
    monkeypatch.setenv("TAILSHIFT_SEED", "not-a-number")
    assert main(argv) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# console script wiring
# ---------------------------------------------------------------------------

def test_console_script_subprocess(monkeypatch, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "tailshift.cli", "test", "-", "--k", "2"],
        input=HAND, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "decision: no change detected" in proc.stdout
    # the console-script target exits with main's code
    for argv, code in ((["critical-values", "--levels", "0.95"], 0), (["bogus-command"], 1)):
        monkeypatch.setattr(sys, "argv", ["tailshift", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert exc.value.code == code
    capsys.readouterr()


def test_only_an_ar1_path_loads_scipy_signal(tmp_path):
    # scipy.signal takes about a second to import and only the AR(1) filter needs it
    x = simulate(ModelSpec("iid", TDistParams(3.0)), 200, seed=1)
    path = write(tmp_path, "".join(f"{v!r}\n" for v in x.tolist()))
    script = f"""
import sys

def absent(step):
    assert "scipy.signal" not in sys.modules, step

import tailshift
absent("import tailshift")
from tailshift import cli
assert cli.main(["test", {path!r}, "--k", "20"]) in (0, 2)
absent("test")
assert cli.main(["ar-test", {path!r}, "--k", "20", "--order", "1"]) in (0, 2)
absent("ar-test")
assert cli.main(["critical-values"]) == 0
absent("critical-values")
from tailshift import ModelSpec, TDistParams, simulate
assert simulate(ModelSpec("ar1", TDistParams(3.0), coef=0.5), 200, seed=1).shape == (200,)
assert "scipy.signal" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_each_scipy_module_loads_only_on_its_path(tmp_path):
    # critical values come from the package's own Newton solve; only a Yule-Walker fit needs scipy.linalg
    x = simulate(ModelSpec("iid", TDistParams(3.0)), 200, seed=1)
    path = write(tmp_path, "".join(f"{v!r}\n" for v in x.tolist()))
    out = str(tmp_path / "sim.txt")
    table = str(tmp_path / "table.csv")
    script = f"""
import sys

def loaded(step, linalg=False):
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if not linalg:
        assert not scipy, (step, scipy)
    assert ("scipy.linalg" in sys.modules) == linalg, step

def stdlib(step):
    # loaded on first use: csv by the commands that write CSV, json by the structured formats; concurrent.futures
    # by none (the paths of --mc run on plain threads)
    for name in ("csv", "json", "concurrent.futures"):
        assert name not in sys.modules, (step, name)

import tailshift
loaded("import tailshift")
stdlib("import tailshift")
from tailshift import cli
assert cli.main(["test", {path!r}, "--k", "20"]) in (0, 2)
loaded("test")
stdlib("test")
assert cli.main(["ar-test", {path!r}, "--k", "20", "--order", "1"]) in (0, 2)
loaded("ar-test")
stdlib("ar-test")
assert cli.main(["critical-values", "--mc", "--paths", "100", "--reps", "100"]) == 0
loaded("critical-values --mc")
assert "concurrent.futures" not in sys.modules, "critical-values --mc"  # its paths run on plain threads
assert cli.main(["simulate", "--model", "iid-burr", "--lam", "1", "--gamma", "-2", "--n", "200", "--out", {out!r}]) == 0
loaded("simulate iid-burr")
assert cli.main(["simulate", "--model", "ma1-t", "--nu", "3", "--coef", "0.5", "--n", "200", "--out", {out!r}]) == 0
loaded("simulate ma1-t")
assert cli.main(["critical-values"]) == 0
loaded("critical-values")
assert cli.main(["tables", "--table", "5", "--replications", "5", "--out", {table!r}]) == 0
loaded("tables --table 5")
assert "concurrent.futures" not in sys.modules, "tables"
assert cli.main(["ar-test", {path!r}, "--k", "20", "--order", "1", "--method", "yule-walker"]) in (0, 2)
loaded("ar-test --method yule-walker", linalg=True)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_each_documented_name_loads_only_its_module_on_first_use():
    names = [
        "ArFit", "BurrParams", "ChangeSpec", "CriticalValueTable", "DegenerateDataError", "DegenerateThresholdError",
        "ModelSpec", "SimulationSpec", "TDistParams", "TailTestConfig", "TestOutcome", "analytic_critical_values",
        "cusum_statistic", "deviation_process", "estimate_chi", "estimate_omega", "fit_ar", "hill",
        "mc_critical_values", "residual_cusum", "run_table", "run_test", "simulate", "sweep", "table_specs",
    ]
    script = f"""
import sys

def submodules():
    return sorted(m for m in sys.modules if m.startswith("tailshift."))

import tailshift
assert submodules() == [], submodules()
assert tailshift.__all__ == {names!r}, tailshift.__all__
tailshift.analytic_critical_values((0.95,))
assert submodules() == ["tailshift._checks", "tailshift.null_dist"], submodules()
assert "numpy" not in sys.modules  # the analytic critical values are pure math
assert "__future__" not in sys.modules  # every module on this path evaluates its own annotations
tailshift.run_test([5.0, 1.0, 2.0, 3.0, 4.0, 0.5], tailshift.TailTestConfig(k=2))
assert submodules() == [
    "tailshift._checks", "tailshift.cusum", "tailshift.kernel", "tailshift.null_dist", "tailshift.tail_core",
], submodules()
try:
    tailshift.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an undocumented name resolved")
from tailshift import *
from tailshift import experiments
assert experiments is sys.modules["tailshift.experiments"]
assert set(tailshift.__all__) <= set(dir(tailshift)), dir(tailshift)
for name in tailshift.__all__:
    value = globals()[name]
    assert value is getattr(tailshift, name) is getattr(sys.modules[value.__module__], name), name
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_annotation_resolves():
    # typing.get_type_hints on every function, class and method of every module; cli's resolve without numpy
    script = """
import importlib, inspect, pkgutil, sys, typing
import tailshift
from tailshift import cli

def hints(module):  # the names of the module's own functions, classes and methods, once each one's hints resolve
    names = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) == module.__name__ and callable(obj):
            methods = [m for m in vars(obj).values() if inspect.isfunction(m)] if inspect.isclass(obj) else []
            for member in [obj, *methods]:
                typing.get_type_hints(member)
                names.append(member.__qualname__)
    return names

assert "read_series" in hints(cli) and "_emit_outcome" in hints(cli)
assert "numpy" not in sys.modules
for info in pkgutil.iter_modules(tailshift.__path__):
    module = importlib.import_module(f"tailshift.{info.name}")
    assert hints(module), module
assert "TailGrid" in hints(sys.modules["tailshift.kernel"])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_read_series_rejects_non_finite_with_line_number(tmp_path):
    path = write(tmp_path, "# header\n1\n\n2\n# note\nnan\n4\n")
    with pytest.raises(ValueError, match="line 6: nan is not a finite number"):
        read_series(path)
    with pytest.raises(ValueError, match="line 2: inf"):
        read_series(write(tmp_path, "1\n1e999\n3\n"))
    # the first bad line wins, whether it does not parse or is not finite
    with pytest.raises(ValueError, match="line 1: nan is not a finite number"):
        read_series(write(tmp_path, "nan\nabc\n"))


def test_non_finite_line_exits_one(tmp_path, capsys):
    assert main(["test", write(tmp_path, "1\n2\n\n-inf\n4\n5\n"), "--k", "2"]) == 1
    assert "line 4" in capsys.readouterr().err
