"""Order statistics, the Hill estimator and lag-1 dependence scalings.

The estimators here, and the single-k tests of :mod:`tailshift.cusum`, reach
the tail kernel (:mod:`tailshift.kernel`), the single implementation of their
formulas and the only sort, through one entry, ``_at_k``: it views the
series, checks ``k`` and evaluates a one-element k grid.

All operations act on the absolute values of the data, so signed series such
as regression residuals are handled transparently. Thresholds are order
statistics of the absolute values with ties kept as-is: exceedance is always
strict, so duplicated threshold values reduce the excess count below ``k - 1``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import kernel

__all__ = [
    "DegenerateThresholdError",
    "HillEstimate",
    "estimate_chi",
    "estimate_omega",
    "hill",
    "nonneg_view",
]


class DegenerateThresholdError(ValueError):
    """Raised when the order-statistic threshold is zero and log excesses are undefined."""


@dataclass(frozen=True)
class HillEstimate:
    """Mean log excess over the (k+1)-th largest value and its reciprocal.

    ``alpha_hat`` is ``1 / hill_mean``; a zero mean (all excesses vanish) is
    flagged as ``alpha_hat = inf`` rather than raising.
    """

    hill_mean: float
    alpha_hat: float
    k: int


def finite_series(x) -> np.ndarray:
    """``x`` as a 1-d float array; NaN and infinite values are rejected with the index of the first one."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {v.shape}")
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"series contains a non-finite value at index {i} ({float(v[i])!r})")
    return v


def nonneg_view(x) -> np.ndarray:
    """Absolute values of the finite series ``x`` as a 1-d float array."""
    return np.abs(finite_series(x))


def as_int(value, name: str, low: int | None = None) -> int:
    """``value`` as a Python int of at least ``low``; bools and values of a non-integer type are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r} of type {type(value).__name__}")
    value = int(value)
    if low is not None and value < low:
        rule = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def _zero_floor(k: int) -> DegenerateThresholdError:
    return DegenerateThresholdError(f"(k+1)-th largest value is 0 (k={k}); the mean log excess is undefined")


def _at_k(x, k: int, phi: str | None = None, adjust: str = "iid",
          test: bool = False) -> tuple[np.ndarray, kernel.TailGrid]:
    """The absolute values of ``x`` and the one-element kernel grid at ``k``.

    ``k`` must be an integer with ``1 <= k <= n - 1``; with ``test`` set, the
    series must instead hold the ``max(4, k + 2)`` values the change test needs.
    """
    v = nonneg_view(x)
    n = v.size
    if test:
        if n < max(4, k + 2):
            raise ValueError(f"need n >= max(4, k + 2) = {max(4, k + 2)}, got n = {n}")
    elif not 1 <= as_int(k, "k") <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n - 1 = {n - 1}, got {k}")
    return v, kernel.tail_grid(v, [k], phi, adjust)


def _positive_threshold(grid: kernel.TailGrid, k: int) -> kernel.TailGrid:
    """The one-element ``grid`` at ``k``, unless its threshold is 0 and log excesses over it are undefined."""
    if grid.threshold[0] <= 0.0:
        raise DegenerateThresholdError(f"k-th largest value is 0 (k={k}); log excesses are undefined")
    return grid


def hill(x, k: int) -> HillEstimate:
    """Mean positive part of ``log X_i - log X_(k+1)`` over the whole sample, and its reciprocal.

    Parameters
    ----------
    x : array_like
        Observed series; its absolute values are used.
    k : int
        Tail sample fraction, ``1 <= k <= n - 1``. The threshold is the
        (k+1)-th largest viewed value and must be positive.
    """
    _, grid = _at_k(x, k)
    if np.isnan(grid.hill_mean[0]):
        raise _zero_floor(k)
    return HillEstimate(hill_mean=float(grid.hill_mean[0]), alpha_hat=float(grid.alpha_hat[0]), k=int(k))


def estimate_omega(x, k: int) -> float:
    """Joint-exceedance estimate of the variance inflation of the indicator statistic.

    Computes ``(2 / k) * sum_i I(X_i > X_(k), X_{i+1} > X_(k))``, the lag-1
    estimator, adequate for 2-dependent series such as MA(1).
    """
    return float(_at_k(x, k, adjust="lag1")[1].omega_hat[0])


def estimate_chi(x, k: int, alpha_hat: float) -> float:
    """Joint log-excess estimate of the variance inflation of the log-excess statistic.

    Computes the lag-1 estimator ``(2 * alpha_hat / k) * sum_i
    (log X_i - log X_(k))_+ (log X_{i+1} - log X_(k))_+``.
    """
    if not np.isfinite(alpha_hat) or alpha_hat <= 0.0:
        raise DegenerateThresholdError(
            f"alpha_hat must be finite and positive, got {alpha_hat}"
        )
    cross = float(_positive_threshold(_at_k(x, k, adjust="lag1")[1], k).cross[0])
    return kernel.chi(alpha_hat, cross, k)
