"""AR(p) coefficient estimation and the residual-based change test.

Fits are intercept-free (the modelled processes are mean-zero with symmetric
innovations), either by least squares on the lagged design or by the
Yule-Walker equations on raw (uncentered) autocovariances solved with
``scipy.linalg.solve_toeplitz`` (the Levinson-Durbin recursion). Fits run on
the rows of a block, least squares as one stacked solve, and a single series
is the block of one. Both methods share one failure rule: a row has no fit
when its solve finds the system singular or returns a non-finite
coefficient, as when finite values overflow the second moments, and it is
then a ``DegenerateDataError`` naming the method and the order. The
residual test applies the CUSUM machinery to the absolute residuals with the
i.i.d. scaling: filtering out the autoregression removes the correlation
effect, so no lag adjustment is needed.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import kernel
from .cusum import TailTestConfig, TestOutcome, run_test
from ._checks import as_int
from .tail_core import _real_series

__all__ = [
    "ArFit",
    "DegenerateDataError",
    "FIT_METHODS",
    "fit_ar",
    "residual_cusum",
]

FIT_METHODS = ("ols", "yule_walker")


class DegenerateDataError(ValueError):
    """Raised when an AR fit has no finite solution: its system is singular or its moments overflow."""


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


def _fit_yule_walker(x: np.ndarray, p: int) -> np.ndarray:
    from scipy.linalg import solve_toeplitz  # ~8 MB more of scipy, so only where a Yule-Walker fit runs

    n = x.size
    # raw second moments, no mean-centering
    acov = np.array([float(np.dot(x[: n - h], x[h:])) / n for h in range(p + 1)])
    return solve_toeplitz(acov[:p], acov[1:], check_finite=False)


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
    v = _real_series(x)
    order = check_fit_args(v.size, order, method)
    coef, residuals, errors = _fit_rows(v[None], order, method)
    if errors:  # a NaN or infinite value always leaves the fit without a finite solution, so it is sought only here
        kernel.reject_non_finite(v[None])
        raise errors[0]
    return ArFit(order=order, coefficients=coef[0], residuals=residuals[0], method=method)


def _fit_rows(x: np.ndarray, order: int, method: str):
    """:func:`fit_ar` of each row of the block ``x``, bit for bit: the coefficients, the residuals and,
    by row index, the ``DegenerateDataError`` of each row without a fit (whose values are then NaN)."""
    n = x.shape[-1]
    # lags[i, :, j]: lag-(j+1) values of row i aligned with x[i, order:]; at order 1 a view, read by BLAS as the copy
    lags = np.stack([x[:, order - 1 - j: n - 1 - j] for j in range(order)], axis=-1) if order > 1 else x[:, :-1, None]
    coef, errors = None, {}
    # finite values can still overflow the moments; such a row gets no finite fit and is named below
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "ols":
            gram, rhs = np.matmul(lags.swapaxes(1, 2), lags), np.matmul(lags.swapaxes(1, 2), x[:, order:, None])
            with suppress(np.linalg.LinAlgError):  # a singular row is found row by row below
                coef = np.linalg.solve(gram, rhs)[..., 0]
        if coef is None or not np.isfinite(coef).all():
            coef = np.full((len(x), order), np.nan)
            for i in range(len(x)):
                with suppress(np.linalg.LinAlgError):
                    coef[i] = np.linalg.solve(gram[i], rhs[i, :, 0]) if method == "ols" else _fit_yule_walker(x[i], order)
                if not np.isfinite(coef[i]).all():
                    coef[i] = np.nan
                    errors[i] = DegenerateDataError(f"no finite {method} fit of order {order}: singular or overflowing system")
        residuals = np.empty((len(x), n - order))
        for i in range(len(x)):
            np.dot(lags[i], coef[i], out=residuals[i])  # not matmul: slow for (n, p) by (p,)
        np.subtract(x[:, order:], residuals, out=residuals)
    return coef, residuals, errors


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
