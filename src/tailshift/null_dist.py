"""Reference distribution of the scaled statistics: sup of a Brownian bridge.

The scaled CUSUM statistics converge to ``sup |B(t) - t B(1)|``, whose law is
the Kolmogorov distribution. Critical values come either from its inverse,
``scipy.special.kolmogi`` (default: exact, seed-free), or from the Monte Carlo
recipe that discretizes the bridge as a standard normal partial-sum path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import kolmogi

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
    return float(kolmogi(1.0 - level))


def simulate_L(n_points: int, seed=None) -> float:
    """One draw of the discretized bridge supremum.

    Generates ``n_points`` standard normals and returns the maximum absolute
    deviation of their partial sums from the proportional share of the total,
    scaled by ``1 / sqrt(n_points)``.
    """
    n_points = as_int(n_points, "n_points", 2)
    rng = as_generator(seed)
    eps = rng.standard_normal(n_points)
    partial = np.cumsum(eps)
    deviations = deviation(partial, np.arange(1, n_points + 1), n_points, partial[-1])
    return float(np.max(np.abs(deviations)) / math.sqrt(n_points))


def mc_critical_values(
    levels: Sequence[float],
    n_points: int = 10_000,
    n_rep: int = 10_000,
    seed: int = 0,
) -> CriticalValueTable:
    """Empirical quantiles of ``n_rep`` simulated bridge suprema.

    Replicate ``r`` draws from the split stream ``(seed, r)``, so the table is
    deterministic given ``seed`` and independent of evaluation order.
    """
    levels = tuple(float(lv) for lv in levels)
    if not levels:
        raise ValueError("levels must be non-empty")
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError(f"levels must lie in (0, 1), got {levels}")
    n_rep = as_int(n_rep, "n_rep", 100)
    draws = np.empty(n_rep)
    for r in range(n_rep):
        draws[r] = simulate_L(n_points, replication_rng(seed, r))
    values = tuple(float(q) for q in np.quantile(draws, levels))
    return CriticalValueTable(
        levels=levels,
        values=values,
        source=f"mc(paths={n_points},reps={n_rep},seed={seed})",
    )


def analytic_critical_values(levels: Sequence[float]) -> CriticalValueTable:
    levels = tuple(float(lv) for lv in levels)
    if not levels:
        raise ValueError("levels must be non-empty")
    return CriticalValueTable(
        levels=levels,
        values=tuple(analytic_quantile(lv) for lv in levels),
        source="analytic",
    )
