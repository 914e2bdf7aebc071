"""Reference distribution of the scaled statistics: sup of a Brownian bridge.

The scaled CUSUM statistics converge to ``sup |B(t) - t B(1)|``, whose law is
the Kolmogorov distribution. Critical values come either from its inverse,
``scipy.special.kolmogi`` (default: exact, seed-free), or from the Monte Carlo
recipe that discretizes the bridge as a standard normal partial-sum path.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import deviation
from .tail_core import as_int
from .variates import as_generator, replication_rng

__all__ = [
    "CriticalValueTable",
    "analytic_critical_values",
    "analytic_quantile",
    "mc_critical_values",
    "simulate_L",
]


@dataclass(frozen=True)
class CriticalValueTable:
    """Quantile levels and matching critical values, with their provenance."""

    levels: tuple[float, ...]
    values: tuple[float, ...]
    source: str

    def to_delimited(self) -> str:
        """Render as ``level,critical_value,source`` rows with a header line."""
        lines = ["level,critical_value,source"]
        for level, value in zip(self.levels, self.values):
            lines.append(f"{level!r},{value!r},{self.source}")
        return "\n".join(lines) + "\n"


def analytic_quantile(level: float) -> float:
    """Quantile of sup|Brownian bridge| at ``level``, the inverse Kolmogorov CDF."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    from scipy.special import kolmogi  # ~0.3 s and ~25 MB of scipy, so only where a critical value is taken

    return float(kolmogi(1.0 - level))


def _sup_deviation(rng: np.random.Generator, ls: np.ndarray) -> float:
    """One bridge supremum from ``ls.size`` normals of ``rng``; ``ls`` is ``1..n``."""
    n_points = ls.size
    partial = np.cumsum(rng.standard_normal(n_points))
    d = deviation(partial, ls, n_points, partial[-1])
    # D(n) = 0, so max(d.max(), -d.min()) is exactly max |d|, without the |d| temporary
    return float(max(d.max(), -d.min()) / math.sqrt(n_points))


def simulate_L(n_points: int, seed=None) -> float:
    """One draw of the discretized bridge supremum.

    Generates ``n_points`` standard normals and returns the maximum absolute
    deviation of their partial sums from the proportional share of the total,
    scaled by ``1 / sqrt(n_points)``.
    """
    n_points = as_int(n_points, "n_points", 2)
    return _sup_deviation(as_generator(seed), np.arange(1, n_points + 1))


def _worker_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    contiguous run of replicates; numpy releases the GIL while it draws and
    sums a path. The table is identical to the serial recipe's for every core
    count and schedule.
    """
    levels = tuple(float(lv) for lv in levels)
    if not levels:
        raise ValueError("levels must be non-empty")
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError(f"levels must lie in (0, 1), got {levels}")
    n_rep = as_int(n_rep, "n_rep", 100)
    seed = as_int(seed, "seed", 0)
    n_points = as_int(n_points, "n_points", 2)
    ls = np.arange(1, n_points + 1)
    draws = np.empty(n_rep)

    def fill(start: int, stop: int) -> None:
        for r in range(start, stop):
            draws[r] = _sup_deviation(replication_rng(seed, r), ls)

    workers = min(_worker_count(), n_rep)
    bounds = [n_rep * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = [pool.submit(fill, start, stop) for start, stop in zip(bounds, bounds[1:])]
        for chunk in chunks:
            chunk.result()  # re-raises a worker's exception here
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
    levels = tuple(float(lv) for lv in levels)
    if not levels:
        raise ValueError("levels must be non-empty")
    return CriticalValueTable(
        levels=levels,
        values=tuple(analytic_quantile(lv) for lv in levels),
        source="analytic",
    )
