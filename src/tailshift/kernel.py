"""The tail kernel: every quantity of the change test at every k of a grid in one pass.

:func:`tail_grid` takes one series, shape ``(n,)``, or a block of series, shape
``(R, n)``, whose absolute values it reads, and an integer grid ``ks``; its
fields have shape ``(K,)`` or ``(R, K)``. It selects the top ``max(k) + 1``
values of each series and sorts only those. A long single series with a small
``max(k)`` is read in place: it is cut, one fixed chunk at a time, to its
values not strictly inside ``(-c, c)`` for a bound ``c``, read off a sample of
``max(k) + 1`` runs of 8 contiguous values, that ``max(k) + 1`` of them reach
(so none is lost), and only those are folded, into the pool that is sorted;
the exceedances are then read again from the series at their positions and
folded there (:func:`_segments`). Every other series, and every block, is
folded whole into a copy of its own, which the kernel only reads. Every NaN
and infinite value is in what is sorted, and NaN sorts last, so the kernel
rejects non-finite input from its sorted top alone, without a pass of its own.
For all k at once it evaluates the thresholds (the k-th largest values), the exceedances over
them and their log sizes (on the m values above the smallest threshold only),
the statistic with its first maximizer, the Hill estimate over the (k+1)-th
largest value, the lag-1 inflations and the scaling. The deviation process
``D(l)`` moves only at the exceedances and is monotone between them, so the
statistic reads ``D`` at the at most ``2m + 2`` segment ends. The total is the
last running sum, added in series order as in :func:`sup_deviation`, so
``D(n) = 0`` exactly. Only m depends on
the row: a block's rows that share m are evaluated together, each equal to its
series alone, bit for bit. The kernel is the only implementation of these
formulas and the only sort: the simulation harness passes a block of
replications, and every single-k function of :mod:`tailshift.tail_core` and
:mod:`tailshift.cusum` is a one-element grid evaluated through ``tail_core._at_k``.
Callers decide at a level by comparing ``scale * statistic`` with the critical
value. Only the kernel classifies the degeneracies of the test, as one status
bit each per cell (0: the test has an outcome); it imports no package module.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TOO_SHORT = 1  # n < max(4, k + 2): too few values for the change test
ZERO_FLOOR = 2  # the (k+1)-th largest value is 0: Hill and alpha_hat are undefined
ZERO_THRESHOLD = 4  # the k-th largest value is 0: log excesses are undefined (ZERO_FLOOR holds too)
INFINITE_ALPHA = 8  # alpha_hat is infinite; flagged only under log_excess, whose scaling reads it
_CHUNK = 2**15  # values of a long series scanned at a time by _pool (256 KB, within a core's cache)


class TailGrid(NamedTuple):
    """Per-k results of :func:`tail_grid`; column ``j`` belongs to ``ks[j]``.

    ``threshold`` is the k-th largest value. ``hill_mean`` is NaN where the
    (k+1)-th largest value is 0; ``alpha_hat`` is then NaN as well, and
    ``inf`` where every log excess vanishes. Only with a statistic requested
    are ``statistic``, ``l_hat``, ``scale`` (no decision at a level),
    ``total`` and ``n_exceed`` set. ``n_exceed`` is the count of strict
    exceedances (ties lower it below ``k - 1``); ``total`` is the last
    running sum: that count under ``indicator``, the log excesses added in
    series order under ``log_excess`` (meaningless for a zero threshold).
    Only with the lag-1 adjustment are ``cross`` (summed products of adjacent
    log excesses, meaningless for a zero threshold), ``omega_hat`` and
    ``chi_hat`` (NaN unless ``alpha_hat`` is finite). ``status`` holds one bit
    per documented degeneracy of the cell (``TOO_SHORT``, ``ZERO_FLOOR``,
    ``ZERO_THRESHOLD``, and ``INFINITE_ALPHA`` under ``log_excess`` only); the
    change test has an outcome exactly where it is 0 (every outcome reports
    ``alpha_hat``).
    """

    threshold: np.ndarray
    hill_mean: np.ndarray
    alpha_hat: np.ndarray
    status: np.ndarray
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


def excess_sizes(top: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """``(..., K, m)``: ``log(top / threshold[..., j])`` where ``top`` (``(..., 1, m)``) exceeds it, else 0.

    Clamping ``top`` at the threshold turns every non-exceedance, and every value tied with it, into
    ``log 1 = 0``. Rows with a zero threshold hold meaningless values.
    """
    t = np.where(threshold > 0.0, threshold, 1.0)[..., None]
    return np.log(np.maximum(top, t) / t)


def deviation(running, share, total, out=None):
    """``D(l) = S(l) - (l / n) * total`` at the positions ``l`` whose shares ``l / n`` are ``share``, given the
    running sums ``S(l)`` there.

    The one formula of the deviation process, for its segment ends and its full
    path alike; ``share * total`` has the shape of ``running``, and holds the result, in ``out`` if given.
    """
    d = np.multiply(share, total, out=out)
    return np.subtract(running, d, out=d)


def sup_deviation(normals: np.ndarray, share: np.ndarray, out: np.ndarray | None = None) -> float:
    """The bridge supremum of the path of ``normals``, which are summed in place; ``share`` is ``(1..n) / n``, and
    ``out``, if given, an n-length row for the deviations."""
    partial = np.add.accumulate(normals, out=normals)
    d = deviation(partial, share, partial[-1], out)
    # D(n) = 0, so the larger of max d and -min d is exactly max |d|, without the |d| temporary
    return float(max(np.maximum.reduce(d), -np.minimum.reduce(d)) / math.sqrt(share.size))


def tail_grid(x: np.ndarray, ks, phi: str | None = None, adjust: str = "iid") -> TailGrid:
    """Evaluate the tail quantities at every ``k`` of ``ks`` at once.

    ``x`` is a float series of length ``n >= 2``, or a block of such series of
    shape ``(R, n)``, whose absolute values are used; a NaN or infinite value is
    a ValueError naming its index (:func:`reject_non_finite`). Every ``k`` is
    at least 1. Hill is always evaluated; the statistic and scaling only when
    ``phi`` names a transform; the lag-1 inflations only when ``adjust ==
    "lag1"``. A column with ``k > n - 1`` is evaluated at ``n - 1`` and flagged
    :data:`TOO_SHORT`.
    """
    n = x.shape[-1]
    ks = np.asarray(ks, dtype=np.int64)
    kk = np.minimum(ks, n - 1)
    # ufunc reductions, not the .max()/.sum() methods, whose wrappers outweigh the work on a short series
    kmax = int(np.maximum.reduce(kk))
    # Only the top kmax + 1 values are read: sort a copy of them out of the partition (freed at once).
    pos, pool = _pool(x, kmax)
    v = x if pos is not None else pool  # a sampled series is folded only at its hits, by _segments
    srt = np.sort(np.partition(pool, -kmax - 1)[..., -kmax - 1:])[..., ::-1]
    # NaN sorts last and the pool holds every NaN and infinite value: a row is finite exactly when its top is
    if not np.isfinite(srt[..., 0]).all():
        reject_non_finite(np.atleast_2d(x))
    threshold = srt.take(kk - 1, axis=-1)

    # Hill over the (k+1)-th largest value from the sorted top k: tied order
    # statistics give log 1 = 0 exactly, so a fully tied top keeps alpha_hat = inf.
    floor = srt.take(kk, axis=-1)
    undefined = floor <= 0.0
    hill_sum = np.add.reduce(excess_sizes(srt[..., None, :kmax], floor), axis=-1)
    hill_mean = hill_sum / kk
    hill_mean[undefined] = np.nan
    with np.errstate(divide="ignore"):
        alpha_hat = 1.0 / hill_mean

    status = TOO_SHORT * (np.maximum(ks + 2, 4) > n) | ZERO_FLOOR * undefined | ZERO_THRESHOLD * (threshold <= 0.0)
    if phi == "log_excess":
        status |= INFINITE_ALPHA * np.isinf(alpha_hat)
    lag1 = adjust == "lag1"
    out = dict(threshold=threshold, hill_mean=hill_mean, alpha_hat=alpha_hat, status=status)
    if phi is None and not lag1:
        return TailGrid(**out)

    # NaN in place of inf: the scalings below then stay NaN instead of meeting
    # inf * 0 (the indicator scaling without lag 1 reads only its shape)
    finite_alpha = np.where(np.isinf(alpha_hat), np.nan, alpha_hat)
    # Every row's exceedances lie among its m values above its smallest threshold; the per-k
    # work runs on those (..., K, m) columns only. Ties give rows different m: the rows of each m go
    # together, so that their hits reshape to (rows, m) and no padding regroups the float lag-1 cross sums.
    if v.ndim == 1:
        hits = (pool > srt[kmax - 1]).nonzero()[0] if pos is None else pos[pool > srt[kmax - 1]]
        sums = _segments(v, hits, threshold, kk, finite_alpha, phi, adjust)
    else:
        above = v > srt[:, kmax - 1, None]  # each series' values above its smallest threshold
        counts = np.add.reduce(above, axis=-1)
        sums = {}
        for m in np.unique(counts) if counts.size else [0]:  # an empty block still gets every field, (0, K)
            rows = (counts == m).nonzero()[0]
            hits = above[rows].ravel().nonzero()[0].reshape(rows.size, m)
            part = _segments(v[rows], hits, threshold[rows], kk, finite_alpha[rows], phi, adjust)
            for name, value in part.items():
                sums.setdefault(name, np.empty(threshold.shape, value.dtype))[rows] = value
    return TailGrid(**out, **sums)


def reject_non_finite(rows: np.ndarray) -> None:
    """Raise a ValueError for the first NaN or infinite value of the first of ``rows`` (``(R, n)``) that holds
    one, naming its index in that row; return if there is none."""
    if (bad := np.argwhere(~np.isfinite(rows))).size:
        r, i = bad[0]
        raise ValueError(f"series contains a non-finite value at index {i} ({float(rows[r, i])!r})")


def _pool(x: np.ndarray, kmax: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Positions (ascending) and absolute values of the part of ``x`` that holds the top ``kmax + 1`` of ``|x|``
    and every NaN and infinite value; the kernel's one choice between reading ``x`` in place and folding it.

    A series of at least ``_CHUNK`` values whose stride ``n // (8 * (kmax + 1))`` is at least 16 is sampled in
    ``kmax + 1`` evenly spaced runs of 8 contiguous values (one cache line each): the first 8 values of each of
    ``kmax + 1`` equal parts, so the ``n % (kmax + 1)`` values past the last part are never sampled. On a
    shorter series, or at a larger ``kmax``, one partition of the whole is cheaper. It keeps its values at least
    the g-th largest of the folded sample (a guess at the 2(kmax+1)-th largest of ``|x|``) if kmax + 1 of them
    reach it, else at least the sample's (kmax+1)-th, which at least kmax + 1 values of ``x`` reach. A bound
    that kmax + 1 values reach lies at or below the (kmax+1)-th largest, so the pool holds the top values and
    every exceedance, and the grid is exactly that of the whole series. It is scanned in chunks of ``_CHUNK``
    values for the values not strictly inside ``(-c, c)``: those with ``|x| >= c``, and every NaN and infinite
    value for any bound ``c``; no folded copy of it is made. Every other input (a shorter series, a ``kmax`` above about
    n/128, a block) gives ``(None, np.abs(x))``: all of ``x``, folded into the kernel's own copy.
    """
    n = x.shape[-1]
    s = n // (8 * (kmax + 1))
    if s < 16 or n < _CHUNK or x.ndim > 1:
        return None, np.abs(x)
    g = 2 * (kmax + 1) // s + 1
    # the sample's kmax + 1 largest, the least first
    top = np.partition(np.abs(x[:n - n % (kmax + 1)].reshape(kmax + 1, -1)[:, :8]), -kmax - 1, None)[-kmax - 1:]
    for c in (np.partition(top, -g)[-g], top[0]):
        pos = np.concatenate([(~((x[a:a + _CHUNK] < c) & (x[a:a + _CHUNK] > -c))).nonzero()[0] + a
                              for a in range(0, n, _CHUNK)])
        if pos.size > kmax:
            return pos, np.abs(x.take(pos))


def _segments(v, hits, threshold, kk, finite_alpha, phi, adjust) -> dict:
    """Lag-1 inflations, statistic and scaling of one series or a block sharing m; ``hits`` index its data,
    whose absolute values are read there and nowhere else."""
    n = v.shape[-1]
    lead = () if v.ndim == 1 else (np.arange(len(v))[:, None],)  # each column's row in a block
    idx = hits - n * lead[0] if lead else hits  # the columns' positions in their series
    top = v.take(hits)[..., None, :]
    np.abs(top, out=top)  # a sampled series is signed (in place: one more array here slowed the block path)
    exceed = top > threshold[..., None]
    sizes = excess_sizes(top, threshold) if phi == "log_excess" or adjust == "lag1" else None
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
    total = partial[..., -1, 0]  # S(n), so D(n) = 0: an exact count, or the log excesses added in series order

    # On a segment S is constant and (l / n) * total grows with l, strictly
    # unless total == 0 (rounding keeps this for n far below 2**50), so the
    # largest |D| and the first position attaining it lie among the segment
    # ends. The first segment is read from l = 0 (D = 0) in place of l = 1: on
    # it |D(l)| = (l / n) * total, and where the first value exceeds it is empty.
    # Only D == 0 everywhere then puts the first maximum at l = 0, reported as l = 1.
    width = 2 * ends.shape[-2]  # a row's segment ends, spelt out: -1 cannot be inferred for an empty block
    abs_d = np.abs(deviation(partial, ends[..., None, :, :] / n, total[..., None, None])).reshape(
        threshold.shape + (width,))
    first_max = abs_d.argmax(axis=-1)
    ends[..., 0, 0] = 1
    sums.update(total=total, n_exceed=np.add.reduce(exceed, axis=-1),
                statistic=np.maximum.reduce(abs_d, axis=-1) / np.sqrt(kk),
                l_hat=ends.reshape(idx.shape[:-1] + (width,))[lead + (first_max,)],
                scale=scale(phi, adjust, finite_alpha, sums.get("omega_hat"), sums.get("chi_hat")))
    return sums
