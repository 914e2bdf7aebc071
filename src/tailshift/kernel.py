"""The tail kernel: every quantity of the change test at every k of a grid in one pass.

:func:`tail_grid` takes the non-negative view ``v`` of a series and an
integer grid ``ks``. It selects the top ``max(k) + 1`` values of ``v`` and
sorts only those. For all k at once it evaluates the thresholds (the k-th
largest values), the exceedances over them and their log sizes (on the m
values above the smallest threshold only), the statistic with its first
maximizer, the Hill estimate over the (k+1)-th largest value, the lag-1
inflations and the scaling. The deviation process ``D(l)`` moves only at the
exceedances and is monotone between them, so the statistic reads ``D`` at
the at most ``2m + 2`` segment ends; the full ``(K, n)`` path is built, by the
same formula, only on request. The kernel is the only implementation of these
formulas and the only sort: the simulation harness passes a replication's
whole grid, and every single-k function of :mod:`tailshift.tail_core` and
:mod:`tailshift.cusum` is a one-element grid evaluated through
``tail_core._at_k``. Callers decide at a level by comparing
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
    are ``statistic``, ``l_hat``, ``scale`` (no decision at a level),
    ``total`` and ``n_exceed`` set, and ``deviations`` (shape ``(K, n)``)
    only if the path was requested as well. ``n_exceed`` is the count of
    strict exceedances (ties lower it below ``k - 1``); ``total`` is that
    count under ``indicator`` and the summed log excesses under
    ``log_excess`` (meaningless for a zero threshold). Only with the lag-1
    adjustment are ``cross`` (summed products of adjacent log excesses,
    meaningless for a zero threshold), ``omega_hat`` and ``chi_hat`` (NaN unless
    ``alpha_hat`` is finite). ``degenerate`` marks the documented degeneracies
    of the test, where no outcome exists: ``n < max(4, k + 2)``, a zero
    (k+1)-th largest value (every outcome reports ``alpha_hat``), and an
    infinite ``alpha_hat`` under the log-excess scaling.
    """

    threshold: np.ndarray
    hill_mean: np.ndarray
    alpha_hat: np.ndarray
    degenerate: np.ndarray
    deviations: np.ndarray | None = None
    total: np.ndarray | None = None
    n_exceed: np.ndarray | None = None
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


def excess_sizes(top: np.ndarray, threshold: np.ndarray, low: float) -> np.ndarray:
    """``(K, m)`` array of ``log(top / threshold[j])`` where ``top`` exceeds it, exactly 0 elsewhere.

    ``low`` is the smallest threshold. Clamping ``top`` at the threshold turns
    every non-exceedance, and every value tied with the threshold, into
    ``log 1 = 0``. Rows with a zero threshold hold no log excesses; their
    values are meaningless.
    """
    t = (threshold if low > 0.0 else np.where(threshold > 0.0, threshold, 1.0))[:, None]
    return np.log(np.maximum(top, t) / t)


def deviation(running, ls, n: int, total):
    """``D(l) = S(l) - (l / n) * total`` at the positions ``ls``, given the running sums ``S(l)`` there.

    The one formula of the deviation process, for its segment ends and its full
    path alike; the arguments broadcast.
    """
    return running - ls / n * total


def tail_grid(v: np.ndarray, ks, phi: str | None = None, adjust: str = "iid", path: bool = False) -> TailGrid:
    """Evaluate the tail quantities at every ``k`` of ``ks`` at once.

    ``v`` is a finite non-negative series of length ``n >= 2``; every ``k``
    is at least 1. Hill is always evaluated; the statistic and scaling only
    when ``phi`` names a transform, and the full ``(K, n)`` deviation process
    only if ``path`` is set as well; the lag-1 inflations only when
    ``adjust == "lag1"``. A row with ``k > n - 1`` is evaluated at ``n - 1``
    and flagged degenerate.
    """
    n = v.size
    ks = np.asarray(ks, dtype=np.int64)
    kk = np.minimum(ks, n - 1)
    # ufunc reductions in place of the .max()/.sum() methods: on a short series
    # the methods' Python wrappers cost more than the work
    kmax = int(np.maximum.reduce(kk))
    # Only the top kmax + 1 values are read: select them, then sort that slice.
    srt = np.sort(np.partition(v, n - kmax - 1)[n - kmax - 1:])[::-1]
    threshold = srt[kk - 1]
    low = srt[kmax - 1]  # the smallest threshold

    # Hill over the (k+1)-th largest value from the sorted top k: tied order
    # statistics give log 1 = 0 exactly, so a fully tied top keeps alpha_hat = inf.
    floor = srt[kk]
    undefined = floor <= 0.0
    hill_sum = np.add.reduce(excess_sizes(srt[:kmax], floor, srt[kmax]), axis=1)
    hill_mean = np.where(undefined, np.nan, hill_sum / kk)
    with np.errstate(divide="ignore"):
        alpha_hat = 1.0 / hill_mean

    degenerate = (ks > n - 2) | undefined if n >= 4 else np.ones(ks.shape, dtype=bool)
    if phi == "log_excess":
        degenerate |= np.isinf(alpha_hat)
    lag1 = adjust == "lag1"
    out = dict(threshold=threshold, hill_mean=hill_mean, alpha_hat=alpha_hat, degenerate=degenerate)
    if phi is None and not lag1:
        return TailGrid(**out)

    # NaN in place of inf: the scalings below then stay NaN instead of meeting
    # inf * 0 (the indicator scaling without lag 1 reads no alpha_hat)
    finite_alpha = alpha_hat
    if phi == "log_excess" or lag1:
        finite_alpha = np.where(np.isinf(alpha_hat), np.nan, alpha_hat)
    # Every row's exceedances lie among the m values above the smallest
    # threshold; the per-k work runs on those (K, m) columns only.
    idx = (v > low).nonzero()[0]
    top = v[idx]
    exceed = top > threshold[:, None]
    sizes = excess_sizes(top, threshold, low) if phi == "log_excess" or lag1 else None
    if lag1:
        linked = idx[1:] - idx[:-1] == 1  # columns a and a + 1 are neighbours in the series
        joint = (exceed[:, :-1] & exceed[:, 1:] & linked).sum(axis=1)
        cross = (sizes[:, :-1] * sizes[:, 1:] * linked).sum(axis=1)
        out.update(cross=cross, omega_hat=2.0 * joint / kk, chi_hat=chi(finite_alpha, cross, kk))
    if phi is None:
        return TailGrid(**out)

    # The running sums change only at the m columns: partial[:, s] holds them
    # on segment s, the positions l from ends[s, 0] to ends[s, 1].
    values = sizes if phi == "log_excess" else exceed
    partial = np.zeros((kk.size, idx.size + 1))
    values.cumsum(axis=1, out=partial[:, 1:])
    ends = np.empty((idx.size + 1, 2), dtype=np.int64)
    ends[0, 0], ends[-1, 1] = 1, n
    ends[1:, 0] = idx + 1
    ends[:-1, 1] = idx
    n_exceed = np.add.reduce(exceed, axis=1)
    if phi == "log_excess":
        # the full-length row sum fixes the rounding of D; one row is reused for every k
        row = np.zeros(n)
        total = np.empty(kk.size)
        for j in range(kk.size):
            row[idx] = values[j]
            total[j] = np.add.reduce(row)
    else:
        total = partial[:, -1]  # an exact count

    # On a segment S is constant and (l / n) * total grows with l, strictly
    # unless total == 0 (rounding keeps this for n far below 2**50), so the
    # largest |D| and the first position attaining it lie among the segment
    # ends. The first end evaluated is l = 1: an empty first segment, where
    # the first value exceeds, is skipped.
    first = 1 if ends[0, 1] == 0 else 0
    d_ends = deviation(partial[:, first:, None], ends[first:], n, total[:, None, None])
    abs_d = np.abs(d_ends).reshape(kk.size, -1)
    at = abs_d.argmax(axis=1)  # first maximum
    statistic = np.maximum.reduce(abs_d, axis=1) / np.sqrt(kk)
    deviations = None
    if path:
        gaps = ends[:, 1] - ends[:, 0] + 1
        deviations = deviation(np.repeat(partial, gaps, axis=1), np.arange(1, n + 1), n, total[:, None])
    scaling = scale(phi, adjust, finite_alpha, out.get("omega_hat"), out.get("chi_hat"))
    return TailGrid(**out, deviations=deviations, total=total, n_exceed=n_exceed, statistic=statistic,
                    l_hat=ends[first:].ravel()[at], scale=scaling)
