"""Order statistics, the Hill estimator and lag-1 dependence scalings.

The estimators here, and the single-k tests of :mod:`tailshift.cusum`, reach
the tail kernel (:mod:`tailshift.kernel`), the single implementation of their
formulas and the only sort, through one entry, ``_at_k``: it views the
series, checks ``k``, evaluates a one-element k grid and raises for the
status bits of the degeneracies the caller's statistic cannot evaluate. The
kernel rejects a NaN or infinite value from its own scan and sort, so the test
path reads the series once; ``_finite_rows``, which the simulated paths and
``nonneg_view`` pass through, decides with one sum of the block instead (no
BLAS call).

All operations act on the absolute values of the data, so signed series such
as regression residuals are handled transparently. Thresholds are order
statistics of the absolute values with ties kept as-is: exceedance is always
strict, so duplicated threshold values reduce the excess count below ``k - 1``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from ._checks import as_int, require_real

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


def _real_series(x) -> np.ndarray:
    """``x`` as a 1-d float array, viewed, not copied, if it is a float64 array. A complex or bool series is
    rejected with its dtype: the conversion to float would drop an imaginary part or read truth values as
    0 and 1."""
    if (dtype := np.asarray(x).dtype).kind in "bc":
        raise TypeError(f"expected a real series, got dtype {dtype}")
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {v.shape}")
    return v


def _finite_rows(v: np.ndarray) -> np.ndarray:
    """The ``(R, n)`` block of series ``v``; a NaN or infinite value is rejected with its index in its series.

    One sum of the block decides, with no BLAS call and no floating-point warning: only when its magnitude is
    not below inf (a bad value, -inf too, or finite values whose sum overflows) is the block searched, by the
    kernel's rule.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not abs(np.add.reduce(v, axis=None)) < np.inf:
            kernel.reject_non_finite(v)
    return v


def nonneg_view(x) -> np.ndarray:
    """Absolute values of the finite series ``x`` as a 1-d float array; a NaN or infinite value is rejected with
    the index of the first one."""
    return np.abs(_finite_rows(_real_series(x)[None])[0])


_UNDEFINED = {  # the text of each status bit ``_at_k`` can raise for, in the order it checks them
    kernel.ZERO_FLOOR: "(k+1)-th largest value is 0 (k={k}); the mean log excess is undefined",
    kernel.ZERO_THRESHOLD: "k-th largest value is 0 (k={k}); log excesses are undefined",
    kernel.INFINITE_ALPHA: "alpha_hat is infinite; the log-excess scaling is undefined",
}


def _at_k(x, k: int, phi: str | None = None, adjust: str = "iid",
          needs: int = 0) -> tuple[np.ndarray, kernel.TailGrid]:
    """``x`` as a 1-d float array and the one-element kernel grid of its absolute values at ``k``.

    ``k`` must be an integer with ``1 <= k <= n - 1``; with ``TOO_SHORT`` in the
    status bits ``needs``, the series must instead hold the ``max(4, k + 2)``
    values the change test needs, and any other bit of ``needs`` the cell holds raises.
    The kernel rejects a NaN or infinite value from its own scan and sort; only for a bad ``k``
    is the series checked here, so that a non-finite value is named first.
    """
    v = _real_series(x)
    n = v.size
    try:
        if needs & kernel.TOO_SHORT:
            if n < max(4, k + 2):
                raise ValueError(f"need n >= max(4, k + 2) = {max(4, k + 2)}, got n = {n}")
        elif not 1 <= as_int(k, "k") <= n - 1:
            raise ValueError(f"k must satisfy 1 <= k <= n - 1 = {n - 1}, got {k}")
    except (TypeError, ValueError):
        kernel.reject_non_finite(v[None])
        raise
    grid = kernel.tail_grid(v, [k], phi, adjust)
    for bit, text in _UNDEFINED.items():
        if needs & bit & grid.status[0]:
            raise DegenerateThresholdError(text.format(k=k))
    return v, grid


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
    grid = _at_k(x, k, needs=kernel.ZERO_FLOOR)[1]
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
    require_real("alpha_hat", alpha_hat)
    if not np.isfinite(alpha_hat) or alpha_hat <= 0.0:
        raise DegenerateThresholdError(
            f"alpha_hat must be finite and positive, got {alpha_hat}"
        )
    cross = float(_at_k(x, k, adjust="lag1", needs=kernel.ZERO_THRESHOLD)[1].cross[0])
    return kernel.chi(alpha_hat, cross, k)
