"""CUSUM statistics for a change in the tail index, and the change-point estimate.

The deviation process compares the running count (or running sum of log
excesses) over a high order-statistic threshold with its proportional share;
its maximum absolute value, scaled for dependence, is referred against the
sup-Brownian-bridge law. The first index attaining the maximum locates the
change.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, null_dist
from ._checks import as_int, require_level
from .tail_core import _at_k

__all__ = [
    "PHI_KINDS",
    "ADJUST_MODES",
    "TailTestConfig",
    "TestOutcome",
    "cusum_statistic",
    "deviation_process",
    "run_test",
]

PHI_KINDS = ("indicator", "log_excess")
ADJUST_MODES = ("iid", "lag1")


def _check_phi(phi: str) -> None:
    if phi not in PHI_KINDS:
        raise ValueError(f"phi must be one of {PHI_KINDS}, got {phi!r}")


@dataclass(frozen=True)
class TailTestConfig:
    """Configuration of a tail-index change test.

    ``k`` is the tail sample fraction (number of upper order statistics),
    ``phi`` selects the exceedance transform ("indicator" counts exceedances,
    "log_excess" accumulates their log sizes), ``adjust`` picks the scaling
    ("iid" for independent data, "lag1" to correct for short-range dependence
    with the lag-1 estimates), and ``level`` is the nominal significance level,
    in (0, 1) and at least ``2**-1022``, the smallest normal float.
    """

    k: int
    phi: str = "indicator"
    adjust: str = "iid"
    level: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "k", 1))
        _check_phi(self.phi)
        if self.adjust not in ADJUST_MODES:
            raise ValueError(f"adjust must be one of {ADJUST_MODES}, got {self.adjust!r}")
        require_level(self.level)
        # a subnormal level has too few digits for its critical value (the smallest cannot be solved at all)
        if self.level < 2.0**-1022:
            raise ValueError(f"level must be at least 2**-1022, the smallest normal float, got {self.level!r}")


@dataclass(frozen=True)
class TestOutcome:
    """Full record of one test run.

    ``scaled_statistic = scale_factor * statistic`` is compared against
    ``critical_value`` (reject when >=). ``l_hat`` is the smallest index
    attaining the maximum deviation and ``tau_hat = l_hat / n`` the implied
    change-point fraction. ``omega_hat``/``chi_hat`` are filled only in lag1
    mode, and ``chi_hat`` stays None there when ``alpha_hat`` is infinite
    (the indicator scaling does not use it). ``threshold`` is the k-th largest
    viewed value and ``n_exceed`` the number of values strictly above it:
    ties at the threshold bring it below ``k - 1``, while the statistic is
    still divided by ``sqrt(k)``.
    """

    n: int
    k: int
    phi: str
    adjust: str
    level: float
    alpha_hat: float
    omega_hat: float | None
    chi_hat: float | None
    statistic: float
    scale_factor: float
    scaled_statistic: float
    critical_value: float
    reject: bool
    l_hat: int
    tau_hat: float
    threshold: float
    n_exceed: int


def deviation_process(x, k: int, phi: str = "indicator") -> np.ndarray:
    """Partial deviations ``D(l)`` of the transformed exceedances, ``l = 1..n``.

    ``D(l)`` is the sum of the first ``l`` transformed values minus ``l/n``
    times their total, the last of those sums, so ``D(n) = 0`` exactly. The
    threshold is the k-th largest absolute value and must be positive for the
    log transform.
    """
    _check_phi(phi)
    v, grid = _at_k(x, k, phi, needs=kernel.ZERO_THRESHOLD if phi == "log_excess" else 0)
    t = grid.threshold
    hits = ((v > t[0]) | (v < -t[0])).nonzero()[0]  # |v| > t, with only the exceedances folded
    # the running sums of the kernel's transformed exceedances, held from each one to the next
    values = kernel.excess_sizes(np.abs(v[hits]), t)[0] if phi == "log_excess" else np.ones(hits.size)
    running = np.repeat(np.concatenate([[0.0], np.cumsum(values)]), np.diff(hits, prepend=0, append=v.size))
    return kernel.deviation(running, np.arange(1.0, v.size + 1.0) / v.size, grid.total[0])


def cusum_statistic(x, k: int, phi: str = "indicator") -> tuple[float, int]:
    """Raw statistic ``max_l |D(l)| / sqrt(k)`` and the smallest maximizing ``l``."""
    _check_phi(phi)
    grid = _at_k(x, k, phi, needs=kernel.ZERO_THRESHOLD if phi == "log_excess" else 0)[1]
    return float(grid.statistic[0]), int(grid.l_hat[0])


def run_test(x, cfg: TailTestConfig) -> TestOutcome:
    """Run the full change test on a series and fill every outcome field.

    Requires ``n >= max(4, k + 2)`` so that both order-statistic thresholds
    exist. Deterministic: the critical value is the analytic quantile at
    ``1 - level``, solved at ``level`` itself so that no digit of a small level
    is lost, and the test rejects when ``scale * statistic`` reaches it.
    """
    if not isinstance(cfg, TailTestConfig):
        raise TypeError(f"cfg must be a TailTestConfig, got {type(cfg).__name__}")
    v, grid = _at_k(x, cfg.k, cfg.phi, cfg.adjust, kernel.TOO_SHORT | kernel.ZERO_FLOOR | kernel.INFINITE_ALPHA)
    n = v.size
    omega_hat = chi_hat = None
    if cfg.adjust == "lag1":
        omega_hat = float(grid.omega_hat[0])
        if np.isfinite(grid.chi_hat[0]):
            chi_hat = float(grid.chi_hat[0])
    statistic = float(grid.statistic[0])
    scale = float(grid.scale[0])
    scaled = scale * statistic
    l_hat = int(grid.l_hat[0])
    critical_value = null_dist._solve(1.0 - cfg.level, cfg.level)
    return TestOutcome(
        n=n,
        k=cfg.k,
        phi=cfg.phi,
        adjust=cfg.adjust,
        level=cfg.level,
        alpha_hat=float(grid.alpha_hat[0]),
        omega_hat=omega_hat,
        chi_hat=chi_hat,
        statistic=statistic,
        scale_factor=scale,
        scaled_statistic=scaled,
        critical_value=critical_value,
        reject=scaled >= critical_value,
        l_hat=l_hat,
        tau_hat=l_hat / n,
        threshold=float(grid.threshold[0]),
        n_exceed=int(grid.n_exceed[0]),
    )
