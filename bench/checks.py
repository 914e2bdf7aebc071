"""Comparison of the package's outputs with the independent reference.

Tolerances, and why each is needed:

- ``statistic`` and ``scaled_statistic`` within ``STAT_RTOL`` relative: the
  log-excess total is summed in a different order than the package's,
- ``alpha_hat``, ``omega_hat`` and ``chi_hat`` within ``ALPHA_RTOL`` relative:
  sums in another order may move them in the last digits, and the project
  allows ``alpha_hat`` (unlike the statistic and ``l_hat``) to change
  within a stated tolerance,
- ``l_hat`` exactly, unless the reference deviation at the package's
  ``l_hat`` is within ``TIE_RTOL`` of the maximum (a rounding tie),
- ``reject`` exactly, unless the reference scaled statistic lies within
  ``BOUNDARY_ATOL`` of the critical value,
- ``critical_value`` within ``CV_ATOL``: the package bisects to 1e-9.
"""
from __future__ import annotations

import json
import math

import reference as ref

STAT_RTOL = 1e-9
ALPHA_RTOL = 1e-9
TIE_RTOL = 1e-12
BOUNDARY_ATOL = 1e-9
CV_ATOL = 1e-8

OUTCOME_FIELDS = ("n", "k", "alpha_hat", "omega_hat", "chi_hat", "statistic",
                  "scaled_statistic", "critical_value", "reject", "l_hat")


def _close(got, want, rtol) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return got == want or math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)


def outcome_mismatch(got: dict, want: dict, series) -> str | None:
    """First disagreement between a package outcome and the reference, or None.

    ``series`` is what the test ran on (the residuals for the AR test); it is
    needed only to settle an ``l_hat`` difference.
    """
    for key in ("n", "k"):
        if got[key] != want[key]:
            return f"{key} = {got[key]}, reference {want[key]}"
    for key, rtol in (("statistic", STAT_RTOL), ("scaled_statistic", STAT_RTOL),
                      ("alpha_hat", ALPHA_RTOL), ("omega_hat", ALPHA_RTOL), ("chi_hat", ALPHA_RTOL)):
        if not _close(got[key], want[key], rtol):
            return f"{key} = {got[key]!r}, reference {want[key]!r}"
    if not abs(got["critical_value"] - want["critical_value"]) <= CV_ATOL:
        return f"critical_value = {got['critical_value']!r}, reference {want['critical_value']!r}"
    if got["l_hat"] != want["l_hat"]:
        l_hat = got["l_hat"]
        peak = want["statistic"] * math.sqrt(want["k"])
        if not (isinstance(l_hat, int) and 1 <= l_hat <= want["n"]) or \
                ref.abs_deviation(series, want["k"], want["phi"], l_hat) < peak * (1.0 - TIE_RTOL):
            return f"l_hat = {l_hat}, reference {want['l_hat']}"
    if got["reject"] != want["reject"] and \
            abs(want["scaled_statistic"] - want["critical_value"]) >= BOUNDARY_ATOL:
        return f"reject = {got['reject']}, reference {want['reject']}"
    return None


def cli_mismatch(exit_code: int, stdout: str, want: dict, series, extra: dict) -> str | None:
    """Check one structured CLI record and its exit code against the reference."""
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return f"no structured record on stdout (exit {exit_code}): {stdout[:200]!r}"
    for key, value in extra.items():
        if record.get(key) != value:
            return f"{key} = {record.get(key)!r}, expected {value!r}"
    missing = [key for key in OUTCOME_FIELDS if key not in record]
    if missing:
        return f"record lacks {missing}"
    bad = outcome_mismatch(record, want, series)
    if bad:
        return bad
    if exit_code != (2 if record["reject"] else 0):
        return f"exit code {exit_code} does not match reject = {record['reject']}"
    return None


def block_mismatch(rows: list, cells: list, has_change: bool) -> str | None:
    """Compare ``run_table`` cells with the reference's per-k aggregates."""
    if [row["k"] for row in rows] != [cell["k"] for cell in cells]:
        return f"k grid {[row['k'] for row in rows]} != {[cell['k'] for cell in cells]}"
    for row, cell in zip(rows, cells):
        k = cell["k"]
        if row["error_count"] != cell["error_count"]:
            return f"k={k}: error_count {row['error_count']}, reference {cell['error_count']}"
        if abs(row["reject_count"] - cell["reject_count"]) > cell["boundary"]:
            return f"k={k}: reject_count {row['reject_count']}, reference {cell['reject_count']}"
        if not cell["ok"]:
            continue
        if not _close(row["mean_alpha_hat"], cell["alpha_sum"] / cell["ok"], ALPHA_RTOL):
            return f"k={k}: mean_alpha_hat {row['mean_alpha_hat']!r}, reference {cell['alpha_sum'] / cell['ok']!r}"
        want_mse = cell["sq_err"] / cell["ok"] if has_change else None
        if not _close(row["mse_tau"], want_mse, STAT_RTOL):
            return f"k={k}: mse_tau {row['mse_tau']!r}, reference {want_mse!r}"
    return None


def mc_tolerance(level: float, n_rep: int) -> float:
    """Allowed distance of a Monte Carlo quantile from the analytic one.

    Six standard errors of an empirical quantile, ``sqrt(p (1 - p) / n) / f(q)``,
    plus 0.02 for the downward bias of the discretised bridge supremum.
    """
    q = ref.kolmogorov_quantile(level)
    return 6.0 * math.sqrt(level * (1.0 - level) / n_rep) / ref.kolmogorov_pdf(q) + 0.02


def mc_mismatch(levels, values, n_rep: int) -> str | None:
    """Monte Carlo critical values must increase with the level and sit near the analytic law."""
    if len(values) != len(levels):
        return f"{len(values)} values for {len(levels)} levels"
    if any(a >= b for a, b in zip(values, values[1:])):
        return f"values {values} do not increase with the level"
    for level, value in zip(levels, values):
        want = ref.kolmogorov_quantile(level)
        if not abs(value - want) <= mc_tolerance(level, n_rep):
            return f"level {level}: {value!r} is far from the analytic {want!r}"
    return None
