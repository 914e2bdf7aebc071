"""The tail kernel: every quantity of the change test at every k of a grid in one pass.

:func:`tail_grid` takes the non-negative view ``v`` of a series and an
integer grid ``ks``, and sorts ``v`` once. For all k at once it evaluates the
thresholds (the k-th largest values), the exceedances over them and their
log sizes (on the values above the smallest threshold only), the deviation
process as a ``(K, n)`` array with its first maximizer, the Hill estimate
over the (k+1)-th largest value, the lag-1 inflations and the scaling. It is
the only implementation of these formulas and the only sort: the simulation
harness passes a replication's whole grid, and every single-k function of
:mod:`tailshift.tail_core` and :mod:`tailshift.cusum` is a one-element grid
evaluated through ``tail_core._at_k``. Callers decide at a level by comparing
``scale * statistic`` with the critical value; the kernel imports no package module.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class TailGrid(NamedTuple):
    """Per-k results of :func:`tail_grid`; row ``j`` belongs to ``ks[j]``.

    ``threshold`` is the k-th largest value. ``hill_mean`` is NaN where the
    (k+1)-th largest value is 0; ``alpha_hat`` is then NaN as well, and
    ``inf`` where every log excess vanishes. Only with a statistic requested
    are ``deviations`` (shape ``(K, n)``), ``statistic``, ``l_hat``, ``scale``
    (no decision at a level) and ``total`` set; ``total`` is the count of strict
    exceedances under ``indicator`` (ties lower it below ``k - 1``) and the summed
    log excesses under ``log_excess`` (meaningless for a zero threshold). Only with
    the lag-1 adjustment are ``cross`` (summed products of adjacent log excesses,
    NaN for a zero threshold), ``omega_hat`` and ``chi_hat`` (NaN unless
    ``alpha_hat`` is finite). ``degenerate`` marks the documented degeneracies
    of the test, where no outcome exists: ``n < max(4, k + 2)``, a zero
    (k+1)-th largest value (every outcome reports ``alpha_hat``), and an
    infinite ``alpha_hat`` under the log-excess scaling.
    """

    ks: np.ndarray
    threshold: np.ndarray
    hill_mean: np.ndarray
    alpha_hat: np.ndarray
    degenerate: np.ndarray
    deviations: np.ndarray | None = None
    total: np.ndarray | None = None
    statistic: np.ndarray | None = None
    l_hat: np.ndarray | None = None
    scale: np.ndarray | None = None
    cross: np.ndarray | None = None
    omega_hat: np.ndarray | None = None
    chi_hat: np.ndarray | None = None


def scale(phi: str, adjust: str, alpha_hat, omega_hat=None, chi_hat=None):
    """Scaling of the raw statistic; elementwise on arrays.

    indicator:  1 under iid, ``1 / sqrt(1 + omega_hat)`` under lag1.
    log_excess: ``alpha_hat / sqrt(2)`` under iid,
                ``alpha_hat / sqrt(2 + chi_hat)`` under lag1.
    """
    if phi == "indicator":
        return np.ones(np.shape(alpha_hat)) if adjust == "iid" else 1.0 / np.sqrt(1.0 + omega_hat)
    return alpha_hat / np.sqrt(2.0 if adjust == "iid" else 2.0 + chi_hat)


def chi(alpha_hat, cross, k):
    """Lag-1 inflation of the log-excess statistic, ``2 * alpha_hat * cross / k``; elementwise on arrays."""
    return 2.0 * alpha_hat * cross / k


def excess_sizes(top: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """``(K, m)`` array of ``log(top / threshold[j])`` where ``top`` exceeds it, exactly 0 elsewhere.

    Clamping ``top`` at the threshold turns every non-exceedance, and every
    value tied with the threshold, into ``log 1 = 0``. Rows with a zero
    threshold hold no log excesses; their values are meaningless.
    """
    t = (threshold if threshold.all() else np.where(threshold > 0.0, threshold, 1.0))[:, None]
    return np.log(np.maximum(top, t) / t)


def tail_grid(v: np.ndarray, ks, phi: str | None = None, adjust: str = "iid") -> TailGrid:
    """Evaluate the tail quantities at every ``k`` of ``ks`` at once.

    ``v`` is a finite non-negative series of length ``n >= 2``; every ``k``
    is at least 1. Hill is always evaluated; the deviation process,
    statistic and scaling only when ``phi`` names a transform; the lag-1
    inflations only when ``adjust == "lag1"``. A row with ``k > n - 1`` is
    evaluated at ``n - 1`` and flagged degenerate.
    """
    n = v.size
    ks = np.asarray(ks, dtype=np.int64)
    kk = np.minimum(ks, n - 1)
    srt = np.sort(v)[::-1]
    threshold = srt[kk - 1]

    # Hill over the (k+1)-th largest value from the sorted top k: tied order
    # statistics give log 1 = 0 exactly, so a fully tied top keeps alpha_hat = inf.
    floor = srt[kk]
    defined = floor > 0.0
    hill_mean = excess_sizes(srt[: kk.max()], floor).sum(axis=1) / kk
    hill_mean[~defined] = np.nan
    with np.errstate(divide="ignore"):
        alpha_hat = 1.0 / hill_mean
    # NaN in place of inf: the scalings below then stay NaN instead of meeting inf * 0
    finite_alpha = np.where(np.isfinite(alpha_hat), alpha_hat, np.nan)

    degenerate = (ks > n - 2) | ~defined if n >= 4 else np.ones(ks.shape, dtype=bool)
    if phi == "log_excess":
        degenerate |= np.isinf(alpha_hat)
    lag1 = adjust == "lag1"
    out = dict(ks=ks, threshold=threshold, hill_mean=hill_mean, alpha_hat=alpha_hat, degenerate=degenerate)
    if phi is None and not lag1:
        return TailGrid(**out)

    # Every row's exceedances lie among the m values above the smallest
    # threshold; the per-k work runs on those (K, m) columns only.
    idx = np.nonzero(v > threshold.min())[0]
    top = v[idx]
    exceed = top > threshold[:, None]
    sizes = excess_sizes(top, threshold) if phi == "log_excess" or lag1 else None
    bounds = np.empty(idx.size + 2, dtype=np.int64)
    bounds[0], bounds[1:-1], bounds[-1] = 0, idx, n
    gaps = bounds[1:] - bounds[:-1]
    if lag1:
        linked = gaps[1:-1] == 1  # columns a and a + 1 are neighbours in the series
        joint = (exceed[:, :-1] & exceed[:, 1:] & linked).sum(axis=1)
        cross = (sizes[:, :-1] * sizes[:, 1:] * linked).sum(axis=1)
        if not threshold.all():
            cross[threshold <= 0.0] = np.nan
        out.update(cross=cross, omega_hat=2.0 * joint / kk, chi_hat=chi(finite_alpha, cross, kk))
    if phi is None:
        return TailGrid(**out)

    # Running sums change only at the m columns: cumulate there and repeat
    # each partial sum up to the next column (adding the zeros in between is exact).
    values = sizes if phi == "log_excess" else exceed
    partial = np.zeros((kk.size, idx.size + 1))
    np.cumsum(values, axis=1, out=partial[:, 1:])
    if phi == "log_excess":
        dense = np.zeros((kk.size, n))
        dense[:, idx] = values
        total = dense.sum(axis=1)  # the full-length row sum fixes the rounding of D
        del dense
    else:
        total = partial[:, -1]  # an exact count
    d = np.repeat(partial, gaps, axis=1)
    d -= np.arange(1.0, n + 1) / n * total[:, None]
    abs_d = np.abs(d)
    l_idx = abs_d.argmax(axis=1)  # first maximum
    statistic = abs_d.max(axis=1) / np.sqrt(kk)
    del abs_d
    scaling = scale(phi, adjust, finite_alpha, out.get("omega_hat"), out.get("chi_hat"))
    return TailGrid(**out, deviations=d, total=total, statistic=statistic, l_hat=l_idx + 1, scale=scaling)
