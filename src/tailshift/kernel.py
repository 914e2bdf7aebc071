"""The tail kernel: every quantity of the change test at every k of a grid in one pass.

:func:`tail_grid` takes the non-negative view ``v`` of one series, shape
``(n,)``, or of a block of series, shape ``(R, n)``, and an integer grid
``ks``; its fields have shape ``(K,)`` or ``(R, K)``. It selects the top
``max(k) + 1`` values of each series and sorts only those. For all k at once
it evaluates the thresholds (the k-th largest values), the exceedances over
them and their log sizes (on the m values above the smallest threshold only),
the statistic with its first maximizer, the Hill estimate over the (k+1)-th
largest value, the lag-1 inflations and the scaling. The deviation process
``D(l)`` moves only at the exceedances and is monotone between them, so the
statistic reads ``D`` at the at most ``2m + 2`` segment ends. Only m depends on
the row: a block's rows that share m are evaluated together, each equal to its
series alone, bit for bit. The kernel is the only implementation of these
formulas and the only sort: the simulation harness passes a block of
replications, and every single-k function of :mod:`tailshift.tail_core` and
:mod:`tailshift.cusum` is a one-element grid evaluated through ``tail_core._at_k``.
Callers decide at a level by comparing ``scale * statistic`` with the critical
value; the kernel imports no package module.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class TailGrid(NamedTuple):
    """Per-k results of :func:`tail_grid`; column ``j`` belongs to ``ks[j]``.

    ``threshold`` is the k-th largest value. ``hill_mean`` is NaN where the
    (k+1)-th largest value is 0; ``alpha_hat`` is then NaN as well, and
    ``inf`` where every log excess vanishes. Only with a statistic requested
    are ``statistic``, ``l_hat``, ``scale`` (no decision at a level),
    ``total`` and ``n_exceed`` set. ``n_exceed`` is the count of strict
    exceedances (ties lower it below ``k - 1``); ``total`` is that count
    under ``indicator`` and the summed log excesses under ``log_excess``
    (meaningless for a zero threshold). Only with the lag-1 adjustment are
    ``cross`` (summed products of adjacent log excesses, meaningless for a
    zero threshold), ``omega_hat`` and ``chi_hat`` (NaN unless ``alpha_hat``
    is finite). ``degenerate`` marks the documented degeneracies of the test,
    where no outcome exists: ``n < max(4, k + 2)``, a zero (k+1)-th largest
    value (every outcome reports ``alpha_hat``), and an infinite
    ``alpha_hat`` under the log-excess scaling.
    """

    threshold: np.ndarray
    hill_mean: np.ndarray
    alpha_hat: np.ndarray
    degenerate: np.ndarray
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
    """``(..., K, m)``: ``log(top / threshold[..., j])`` where ``top`` (``(..., 1, m)``) exceeds it, else 0.

    ``low`` is at most the smallest threshold. Clamping ``top`` at the threshold turns every non-exceedance,
    and every value tied with it, into ``log 1 = 0``. Rows with a zero threshold hold meaningless values.
    """
    t = (threshold if low > 0.0 else np.where(threshold > 0.0, threshold, 1.0))[..., None]
    return np.log(np.maximum(top, t) / t)


def deviation(running, ls, n: int, total):
    """``D(l) = S(l) - (l / n) * total`` at the positions ``ls``, given the running sums ``S(l)`` there.

    The one formula of the deviation process, for its segment ends and its full
    path alike; the arguments broadcast.
    """
    return running - ls / n * total


def tail_grid(v: np.ndarray, ks, phi: str | None = None, adjust: str = "iid") -> TailGrid:
    """Evaluate the tail quantities at every ``k`` of ``ks`` at once.

    ``v`` is a finite non-negative series of length ``n >= 2``, or a block of
    such series of shape ``(R, n)``; every ``k`` is at least 1. Hill is always
    evaluated; the statistic and scaling only when ``phi`` names a transform;
    the lag-1 inflations only when ``adjust == "lag1"``. A column with
    ``k > n - 1`` is evaluated at ``n - 1`` and flagged degenerate.
    """
    n = v.shape[-1]
    ks = np.asarray(ks, dtype=np.int64)
    kk = np.minimum(ks, n - 1)
    # ufunc reductions, not the .max()/.sum() methods, whose wrappers outweigh the work on a short series
    kmax = int(np.maximum.reduce(kk))
    # Only the top kmax + 1 values are read: copy them out of the partition (freed at once), sort them.
    srt = np.partition(v, n - kmax - 1)[..., n - kmax - 1:].copy()
    srt.sort()
    srt = srt[..., ::-1]
    threshold = srt.take(kk - 1, axis=-1)
    # the block's smallest threshold and (k+1)-th largest value, for excess_sizes
    lowest = srt[kmax - 1:kmax + 1] if v.ndim == 1 else np.minimum.reduce(srt[:, kmax - 1:kmax + 1])

    # Hill over the (k+1)-th largest value from the sorted top k: tied order
    # statistics give log 1 = 0 exactly, so a fully tied top keeps alpha_hat = inf.
    floor = srt.take(kk, axis=-1)
    undefined = floor <= 0.0
    hill_sum = np.add.reduce(excess_sizes(srt[..., None, :kmax], floor, lowest[1]), axis=-1)
    hill_mean = hill_sum / kk
    hill_mean[undefined] = np.nan
    with np.errstate(divide="ignore"):
        alpha_hat = 1.0 / hill_mean

    degenerate = (ks > n - 2) | undefined if n >= 4 else np.ones(undefined.shape, dtype=bool)
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
    # Every row's exceedances lie among its m values above its smallest threshold; the per-k
    # work runs on those (..., K, m) columns only. Ties give rows different m: padding to one m
    # would regroup the pairwise sums, so the rows of each m go together.
    if v.ndim == 1:
        hits = (v > srt[kmax - 1]).nonzero()[0]
        sums = _segments(v, hits, threshold, lowest[0], kk, finite_alpha, phi, adjust)
    else:
        above = v > srt[:, kmax - 1, None]  # each series' values above its smallest threshold
        counts = np.add.reduce(above, axis=-1)
        sums = {}
        for m in np.unique(counts):
            rows = (counts == m).nonzero()[0]
            hits = above[rows].ravel().nonzero()[0].reshape(rows.size, m)
            part = _segments(v[rows], hits, threshold[rows], lowest[0], kk, finite_alpha[rows], phi, adjust)
            for name, value in part.items():
                sums.setdefault(name, np.empty(threshold.shape, value.dtype))[rows] = value
    return TailGrid(**out, **sums)


def _segments(v, hits, threshold, low, kk, finite_alpha, phi, adjust) -> dict:
    """Lag-1 inflations, statistic and scaling of one series or a block sharing m; ``hits`` index its data."""
    n = v.shape[-1]
    lead = () if v.ndim == 1 else (np.arange(len(v))[:, None],)  # each column's row in a block
    idx = hits - n * lead[0] if lead else hits  # the columns' positions in their series
    top = v.take(hits)[..., None, :]
    exceed = top > threshold[..., None]
    sizes = excess_sizes(top, threshold, low) if phi == "log_excess" or adjust == "lag1" else None
    sums = {}
    if adjust == "lag1":
        linked = (idx[..., 1:] - idx[..., :-1] == 1)[..., None, :]  # columns a and a + 1 are neighbours
        joint = np.add.reduce(exceed[..., :-1] & exceed[..., 1:] & linked, axis=-1)
        cross = np.add.reduce(sizes[..., :-1] * sizes[..., 1:] * linked, axis=-1)
        sums.update(cross=cross, omega_hat=2.0 * joint / kk, chi_hat=chi(finite_alpha, cross, kk))
    if phi is None:
        return sums

    # The running sums change only at the m columns: partial[..., s, :] holds them on
    # segment s, once for each of its ends ends[..., s, :] (so arrays stay contiguous).
    values = sizes if phi == "log_excess" else exceed
    partial = np.zeros(exceed.shape[:-1] + (idx.shape[-1] + 1, 2))
    np.add.accumulate(values, axis=-1, out=partial[..., 1:, 0])
    partial[..., 1] = partial[..., 0]
    ends = np.empty(idx.shape[:-1] + partial.shape[-2:], dtype=np.int64)
    ends[..., 0, 0], ends[..., -1, 1] = 0, n
    ends[..., 1:, 0] = idx + 1
    ends[..., :-1, 1] = idx
    if phi == "log_excess":
        # the full-length row sum fixes the rounding of D; one array of rows is reused for every k
        row = np.zeros(v.shape)
        total = np.empty(threshold.shape)
        for j in range(kk.size):
            row.reshape(-1)[hits] = values[..., j, :]
            total[..., j] = np.add.reduce(row, axis=-1)
    else:
        total = partial[..., -1, 0]  # an exact count

    # On a segment S is constant and (l / n) * total grows with l, strictly
    # unless total == 0 (rounding keeps this for n far below 2**50), so the
    # largest |D| and the first position attaining it lie among the segment
    # ends. The first segment is read from l = 0 (D = 0) in place of l = 1: on
    # it |D(l)| = (l / n) * total, and where the first value exceeds it is empty.
    # Only D == 0 everywhere then puts the first maximum at l = 0, reported as l = 1.
    abs_d = np.abs(deviation(partial, ends[..., None, :, :], n, total[..., None, None])).reshape(
        threshold.shape + (-1,))
    first_max = abs_d.argmax(axis=-1)
    ends[..., 0, 0] = 1
    sums.update(total=total, n_exceed=np.add.reduce(exceed, axis=-1),
                statistic=np.maximum.reduce(abs_d, axis=-1) / np.sqrt(kk),
                l_hat=ends.reshape(idx.shape[:-1] + (-1,))[lead + (first_max,)],
                scale=scale(phi, adjust, finite_alpha, sums.get("omega_hat"), sums.get("chi_hat")))
    return sums
