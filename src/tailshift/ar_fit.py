"""AR(p) coefficient estimation and the residual-based change test.

Fits are intercept-free (the modelled processes are mean-zero with symmetric
innovations), either by least squares on the lagged design or by the
Yule-Walker equations on raw (uncentered) autocovariances solved with
``scipy.linalg.solve_toeplitz`` (the Levinson-Durbin recursion). The
residual test applies the CUSUM machinery to the absolute residuals with the
i.i.d. scaling: filtering out the autoregression removes the correlation
effect, so no lag adjustment is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_toeplitz

from .cusum import TailTestConfig, TestOutcome, run_test
from .tail_core import as_int, finite_series

__all__ = [
    "ArFit",
    "DegenerateDataError",
    "FIT_METHODS",
    "fit_ar",
    "residual_cusum",
]

FIT_METHODS = ("ols", "yule_walker")


class DegenerateDataError(ValueError):
    """Raised when the regression design or autocovariance system is singular."""


@dataclass(frozen=True)
class ArFit:
    """Fitted AR(p) coefficients with the implied one-step residuals.

    ``residuals[i]`` is the innovation estimate for observation ``order + 1 + i``
    (1-based), i.e. residuals exist only where all ``order`` lags are observed,
    giving ``n - order`` of them. The defining identity
    ``x[i] = coefficients . lags + residuals[...]`` holds exactly.
    """

    order: int
    coefficients: np.ndarray
    residuals: np.ndarray
    method: str


def _lag_matrix(x: np.ndarray, p: int) -> np.ndarray:
    # column j holds the lag-(j+1) values aligned with x[p:]
    return np.column_stack([x[p - j: x.size - j] for j in range(1, p + 1)])


def _fit_ols(x: np.ndarray, p: int, design: np.ndarray) -> np.ndarray:
    gram = design.T @ design
    rhs = design.T @ x[p:]
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"singular normal equations for order {p}") from exc
    if not np.all(np.isfinite(coef)):
        raise DegenerateDataError(f"non-finite least-squares solution for order {p}")
    return coef


def _fit_yule_walker(x: np.ndarray, p: int) -> np.ndarray:
    n = x.size
    # raw second moments, no mean-centering
    acov = np.array([float(np.dot(x[: n - h], x[h:])) / n for h in range(p + 1)])
    if acov[0] <= 0.0:
        raise DegenerateDataError(
            "zero lag-0 autocovariance; series is identically zero or vanishes at double precision"
        )
    try:
        return solve_toeplitz(acov[:p], acov[1:])
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"singular autocovariance system for order {p}") from exc


def check_fit_args(n: int, order, method: str, prefix: str = "") -> int:
    """Check an AR(``order``) fit by ``method`` on ``n`` values; return ``order`` as an int.

    ``prefix`` goes in front of the argument names in the error messages.
    """
    if method not in FIT_METHODS:
        raise ValueError(f"{prefix}method must be one of {FIT_METHODS}, got {method!r}")
    order = as_int(order, prefix + "order", 1)
    if n < order + 2:
        raise ValueError(f"need n >= {prefix}order + 2 = {order + 2}, got n = {n}")
    return order


def fit_ar(x, order: int, method: str = "ols") -> ArFit:
    """Fit an intercept-free AR(``order``) model and attach the residuals.

    Parameters
    ----------
    x : array_like
        Observed finite series, length at least ``order + 2``. NaN and
        infinite values are rejected with the index of the first one.
    order : int
        Autoregressive order ``p >= 1``.
    method : str
        ``"ols"`` minimizes the sum of squared one-step errors;
        ``"yule_walker"`` solves the raw-autocovariance Toeplitz system with
        ``scipy.linalg.solve_toeplitz`` (for p = 1 this is the lag-1/lag-0
        moment ratio, always inside [-1, 1]).
    """
    v = finite_series(x)
    order = check_fit_args(v.size, order, method)
    lags = _lag_matrix(v, order)
    coef = _fit_ols(v, order, lags) if method == "ols" else _fit_yule_walker(v, order)
    residuals = v[order:] - np.dot(lags, coef)  # not lags @ coef: matmul is slow for (n, p) by (p,)
    return ArFit(order=order, coefficients=coef, residuals=residuals, method=method)


def residual_cusum(
    x,
    order: int,
    k: int,
    phi: str = "indicator",
    method: str = "ols",
    level: float = 0.05,
) -> TestOutcome:
    """Change test on the absolute AR residuals with the i.i.d. scaling.

    ``k`` is checked by :func:`run_test` against the residual count: the
    ``n - order`` residuals must number at least ``max(4, k + 2)``. The
    returned outcome's ``n``, ``l_hat`` and ``tau_hat`` refer to the residual
    axis, which trails the original series by ``order`` observations.
    """
    fit = fit_ar(x, order, method)
    cfg = TailTestConfig(k=k, phi=phi, adjust="iid", level=level)
    return run_test(fit.residuals, cfg)
