"""Reference distribution of the scaled statistics: sup of a Brownian bridge.

The scaled CUSUM statistics converge to ``sup |B(t) - t B(1)|``, whose law is
the Kolmogorov distribution. Critical values come either from its inverse
(default: exact, seed-free, solved by Newton's method), or from the Monte Carlo
recipe that discretizes the bridge as a standard normal partial-sum path.
The analytic path is pure ``math`` and loads neither numpy nor ``dataclasses``
(the table is a ``NamedTuple``); the Monte Carlo recipe imports numpy and the
tail kernel's bridge supremum when it is called.
"""
import io
import math
import numbers
from collections.abc import Sequence
from typing import NamedTuple

from ._checks import as_int, require_level

__all__ = [
    "CriticalValueTable",
    "analytic_critical_values",
    "analytic_quantile",
    "mc_critical_values",
    "simulate_L",
]


class CriticalValueTable(NamedTuple):
    """Quantile levels and matching critical values, with their provenance: an immutable tuple of the three."""

    levels: tuple[float, ...]
    values: tuple[float, ...]
    source: str

    def to_delimited(self) -> str:
        """Render as CSV: a ``level,critical_value,source`` header and one row per level.

        ``source`` is quoted under the Monte Carlo recipe: ``mc(paths=...,reps=...,seed=...)`` holds commas.
        """
        rows = [(level, value, self.source) for level, value in zip(self.levels, self.values)]
        return _delimited([("level", "critical_value", "source"), *rows])


def _delimited(rows) -> str:
    """``rows`` as CSV text, each row ended by a newline.

    A field is quoted only where it holds a comma, a double quote or a newline, ``None`` is an empty field
    and a float is written as its ``repr``, so a row of plain fields is its fields joined by commas.
    """
    import csv  # here, so that importing the package and the test commands do not load it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _null_nonfinite(record: dict) -> dict:
    """``record`` with each non-finite float value as None, which strict JSON writes as ``null``."""
    return {key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in record.items()}


def analytic_quantile(level: float) -> float:
    """Quantile of sup|Brownian bridge| at ``level``, the inverse Kolmogorov CDF."""
    require_level(level)
    return _solve(level, 1.0 - level)


def _solve(cdf: float, sf: float) -> float:
    """The x where the Kolmogorov CDF is ``cdf`` and its survival function ``sf`` (``cdf + sf = 1``), by
    Newton's method on its series: from 1 up the survival series is solved for ``sf``, below 1 the theta
    series for ``cdf``. Each reads its own argument exactly, so a test at significance level ``a`` passes
    ``(1 - a, a)`` and keeps every digit of ``a``, also where ``1 - a`` rounds to 1."""
    # each start inverts a leading term: sf ~ 2 exp(-2 x^2), cdf ~ sqrt(2 pi) / 0.8 exp(-pi^2 / (8 x^2))
    x = math.sqrt(-math.log(sf / 2.0) / 2.0) if sf < 0.5 else math.pi / math.sqrt(8.0 * (1.142 - math.log(cdf)))
    for _ in range(50):  # at most 9 steps were seen over 2,000,000 random levels
        if x >= 1.0:  # survival 2 sum_j (-1)^(j-1) exp(-2 j^2 x^2); 5 terms reach the last bit
            t = [(-1) ** (j - 1) * math.exp(-2.0 * j * j * x * x) for j in (1, 2, 3, 4, 5)]
            step = (2.0 * sum(t) - sf) / (8.0 * x * (t[0] + 4.0 * t[1] + 9.0 * t[2] + 16.0 * t[3] + 25.0 * t[4]))
        else:  # CDF sqrt(2 pi) / x exp(-w) sum_j exp(-((2j-1)^2 - 1) w), w = pi^2 / (8 x^2); exp(-w) may underflow
            w = math.pi * math.pi / (8.0 * x * x)
            t = [1.0] + [math.exp(-k * w) for k in (8.0, 24.0, 48.0)]
            ratio = math.exp(math.log(cdf) + w) * x / (math.sqrt(2.0 * math.pi) * sum(t))  # cdf / CDF(x)
            step = (ratio - 1.0) * x * sum(t) / (2.0 * w * (t[0] + 9.0 * t[1] + 25.0 * t[2] + 49.0 * t[3]) - sum(t))
        x += step
        if abs(step) <= 4.0 * math.ulp(x):  # rounding in the series moves a step by up to ~2.5 ulp
            return x
    return x  # a step still cycling here is a few ulp wide; the bound only rules out a hang


def _levels(levels) -> tuple[float, ...]:
    """``levels`` as a non-empty tuple of floats. It must be a sequence of real numbers: a ``str`` (or ``bytes``),
    which would be read one character at a time, or an element that is not a real number (a ``bool`` too) is a
    ``TypeError`` naming ``levels``."""
    try:
        it = None if isinstance(levels, (str, bytes)) else iter(levels)
    except TypeError:  # not iterable, a 0-d array too
        it = None
    items = None if it is None else tuple(it)
    if items is None or not all(isinstance(lv, numbers.Real) and not isinstance(lv, bool) for lv in items):
        raise TypeError(f"levels must be a sequence of real numbers, got {levels!r}")
    if not items:
        raise ValueError("levels must be non-empty")
    return tuple(float(lv) for lv in items)


def simulate_L(n_points: int, seed=None) -> float:
    """One draw of the discretized bridge supremum.

    Generates ``n_points`` standard normals and returns the maximum absolute
    deviation of their partial sums from the proportional share of the total,
    scaled by ``1 / sqrt(n_points)``.
    """
    import numpy as np  # here, as are the kernel and the samplers, so that the analytic critical values load none

    from . import kernel, variates

    n_points = as_int(n_points, "n_points", 2)
    normals = variates.as_generator(seed).standard_normal(n_points)
    return kernel.sup_deviation(normals, np.arange(1, n_points + 1) / n_points)


def mc_critical_values(
    levels: Sequence[float],
    n_points: int = 10_000,
    n_rep: int = 10_000,
    seed: int = 0,
) -> CriticalValueTable:
    """Empirical quantiles of ``n_rep`` simulated bridge suprema.

    Replicate ``r`` draws from the split stream ``(seed, r)`` and its supremum
    is stored at position ``r``, so the table is deterministic given ``seed``.
    The paths run on one thread per available core, each thread taking one
    contiguous run of replicates: it keys that run's streams in one vectorised
    pass and draws every path into one reused row. numpy releases the GIL while
    it draws the normals, most of a path's time; the keys and the per-path
    calls hold it, so the wall time falls with the core count, but not in
    proportion. The table is identical to the serial recipe's for every core
    count and schedule.
    """
    levels = _levels(levels)
    for lv in levels:
        require_level(lv)
    n_rep = as_int(n_rep, "n_rep", 100)
    seed = as_int(seed, "seed", 0)
    n_points = as_int(n_points, "n_points", 2)
    import numpy as np  # here, as are the kernel and the samplers, so that the analytic critical values load none

    from . import kernel, variates

    share = np.arange(1, n_points + 1) / n_points
    draws = np.empty(n_rep)

    def fill(start: int, stop: int) -> None:
        normals, d = np.empty(n_points), np.empty(n_points)
        for r, rng in zip(range(start, stop), variates._streams(seed, start, stop)):
            draws[r] = kernel.sup_deviation(rng.standard_normal(out=normals), share, d)

    variates._fan(n_rep, fill)
    values = tuple(float(q) for q in np.quantile(draws, levels))
    return CriticalValueTable(
        levels=levels,
        values=values,
        source=f"mc(paths={n_points},reps={n_rep},seed={seed})",
    )


def analytic_critical_values(levels: Sequence[float]) -> CriticalValueTable:
    """Critical values at each quantile level in ``levels``, from the inverse Kolmogorov CDF.

    Each level must lie in (0, 1); the quantile at ``q`` is the critical value of a
    test at significance level ``1 - q``. Exact and seed-free, unlike
    :func:`mc_critical_values`. An empty ``levels`` is a ``ValueError``.
    """
    levels = _levels(levels)
    return CriticalValueTable(
        levels=levels,
        values=tuple(analytic_quantile(lv) for lv in levels),
        source="analytic",
    )
