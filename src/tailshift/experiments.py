"""Batch simulation harness: empirical size, power and change-point MSE grids.

Each grid cell simulates ``replications`` series, runs the configured test at
every tail fraction in ``k_grid`` on the same simulated path (common random
numbers across the k axis), and aggregates rejection rates, the mean squared
error of the change-point fraction (when a change is injected) and the mean
tail-exponent estimate. Replication ``r`` draws from the split stream
``(seed, r)``; blocks of replications go through one kernel pass each, and the
sums run in replication order, so reruns and any block size are bit-identical.

``table_specs`` reproduces the benchmark grids (numbered 2-10) used to
calibrate this implementation: sizes for i.i.d. Burr samples and for MA(1)/
AR(1) paths with Student-t innovations, powers under a mid-sample tail
change, and the localization MSE.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ar_fit import DegenerateDataError, check_fit_args, fit_ar
from .cusum import TailTestConfig
from .kernel import tail_grid
from .null_dist import analytic_quantile
from .tail_core import as_int, nonneg_view
from .variates import (
    BurrParams,
    ChangeSpec,
    ModelSpec,
    TDistParams,
    replication_rng,
    simulate,
)

__all__ = [
    "KCell",
    "SimulationSpec",
    "TableResult",
    "results_to_csv",
    "results_to_report",
    "run_table",
    "spec_fingerprint",
    "sweep",
    "table_specs",
    "TABLE_IDS",
]

TEST_KINDS = ("direct", "ar_residual")

_BLOCK = 64  # replications simulated together and evaluated in one kernel pass


@dataclass(frozen=True)
class SimulationSpec:
    """One simulation design: model, optional change, test configuration and grid."""

    model: ModelSpec
    n: int
    k_grid: tuple[int, ...]
    phi: str = "indicator"
    adjust: str = "iid"
    test: str = "direct"
    ar_order: int = 1
    ar_method: str = "ols"
    level: float = 0.05
    replications: int = 2000
    seed: int = 0
    change: ChangeSpec | None = None
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise TypeError(f"model must be a ModelSpec, got {type(self.model).__name__}")
        if not isinstance(self.change, (ChangeSpec, type(None))):
            raise TypeError(f"change must be a ChangeSpec or None, got {type(self.change).__name__}")
        for name, low in (("n", 4), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        # each k, phi, adjust and level is checked as for a single test
        tests = [TailTestConfig(k=k, phi=self.phi, adjust=self.adjust, level=self.level) for k in self.k_grid]
        object.__setattr__(self, "k_grid", tuple(test.k for test in tests))
        if not self.k_grid:
            raise ValueError("k_grid must be non-empty")
        for k in self.k_grid:
            if not 1 <= k <= self.n - 2:
                raise ValueError(f"every k must satisfy 1 <= k <= n - 2, got k={k}, n={self.n}")
        if self.test not in TEST_KINDS:
            raise ValueError(f"test must be one of {TEST_KINDS}, got {self.test!r}")
        if self.test == "ar_residual":
            # the AR order and method are checked as for a single fit
            object.__setattr__(self, "ar_order", check_fit_args(self.n, self.ar_order, self.ar_method, "ar_"))


@dataclass(frozen=True)
class KCell:
    """Aggregates for one (spec, k) cell."""

    k: int
    reject_count: int
    rejection_rate: float
    mse_tau: float | None
    mean_alpha_hat: float
    error_count: int


@dataclass(frozen=True)
class TableResult:
    spec: SimulationSpec
    rows: tuple[KCell, ...]
    error: str | None = None


def run_table(spec: SimulationSpec) -> TableResult:
    """Run every replication of ``spec`` and aggregate per k.

    Replications are simulated by blocks, each evaluated with its whole k grid
    in one kernel pass. A documented degeneracy (a singular AR fit, or a grid
    cell the kernel flags: too few residuals for k, a zero order-statistic
    threshold, an infinite ``alpha_hat`` under the log-excess scaling) counts
    as neither rejection nor acceptance; it is reported in ``error_count`` and
    the rejection rate keeps ``replications`` as its denominator. Any other
    error propagates.
    """
    ks = np.asarray(spec.k_grid)
    n_k = ks.size
    rejects = np.zeros(n_k, dtype=np.int64)
    sq_err = np.zeros(n_k)
    ok_count = np.zeros(n_k, dtype=np.int64)
    alpha_sum = np.zeros(n_k)
    critical = analytic_quantile(1.0 - spec.level)

    for start in range(0, spec.replications, _BLOCK):
        block = []
        for r in range(start, min(start + _BLOCK, spec.replications)):
            series = simulate(spec.model, spec.n, replication_rng(spec.seed, r), spec.change)
            if spec.test == "ar_residual":
                try:
                    series = fit_ar(series, spec.ar_order, spec.ar_method).residuals
                except DegenerateDataError:  # an error at every k
                    continue
            block.append(nonneg_view(series))
        if not block:
            continue
        grid = tail_grid(np.stack(block), ks, spec.phi, spec.adjust)
        ok = ~grid.degenerate
        ok_count += np.add.reduce(ok, axis=0)
        rejects += np.add.reduce((grid.scale * grid.statistic >= critical) & ok, axis=0)
        alpha_sum = _add_in_order(alpha_sum, grid.alpha_hat, ok)
        if spec.change is not None:
            sq_err = _add_in_order(sq_err, (grid.l_hat / block[0].size - spec.change.tau) ** 2, ok)

    rows = []
    for j, k in enumerate(spec.k_grid):
        ok = int(ok_count[j])
        rows.append(
            KCell(
                k=k,
                reject_count=int(rejects[j]),
                rejection_rate=int(rejects[j]) / spec.replications,
                mse_tau=(float(sq_err[j]) / ok if spec.change is not None and ok else None),
                mean_alpha_hat=(float(alpha_sum[j]) / ok if ok else float("nan")),
                error_count=spec.replications - ok,
            )
        )
    return TableResult(spec=spec, rows=tuple(rows))


def _add_in_order(running: np.ndarray, rows: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``running`` plus the ``ok`` cells of ``rows``, added one row after another (a cell not ok adds 0)."""
    return np.cumsum(np.vstack([running, np.where(ok, rows, 0.0)]), axis=0)[-1]


def sweep(specs) -> list[TableResult]:
    """Run independent specs in order; one failing spec does not abort the rest."""
    specs = list(specs)
    if not specs:
        raise ValueError("sweep requires at least one spec")
    results = []
    for spec in specs:
        try:
            results.append(run_table(spec))
        except Exception as exc:  # isolate per spec
            results.append(TableResult(spec=spec, rows=(), error=str(exc)))
    return results


def _innovation_tag(params) -> str:
    # semicolon separators keep the fingerprint comma-free for the CSV column
    if isinstance(params, BurrParams):
        return f"burr(lam={params.lam:g};beta={params.beta:g};gamma={params.gamma:g})"
    return f"t(nu={params.nu:g})"


def spec_fingerprint(spec: SimulationSpec) -> str:
    """Compact deterministic description used as the row key in delimited output."""
    model = spec.model
    parts = [model.kind + ("" if model.coef is None else f"[coef={model.coef:g}]")]
    parts.append(_innovation_tag(model.innovation))
    if spec.change is not None:
        parts.append(
            f"change(tau={spec.change.tau:g};pre={_innovation_tag(spec.change.pre)};"
            f"post={_innovation_tag(spec.change.post)})"
        )
    parts.append(f"n={spec.n}")
    parts.append(f"phi={spec.phi}")
    parts.append(f"adjust={spec.adjust}")
    test = spec.test if spec.test == "direct" else f"ar_residual(p={spec.ar_order};{spec.ar_method})"
    parts.append(f"test={test}")
    parts.append(f"level={spec.level:g}")
    parts.append(f"seed={spec.seed}")
    if spec.label:
        parts.insert(0, spec.label)
    return "/".join(parts)


def results_to_csv(results) -> str:
    """One ``spec,k,...`` row per grid cell; empty mse_tau when no change is injected."""
    lines = ["spec,k,rejection_rate,mse_tau,mean_alpha_hat,replications,error_count"]
    for result in results:
        if result.error is not None:
            message = result.error.replace(",", ";")  # keep the row parseable
            lines.append(f"{spec_fingerprint(result.spec)},,,,,{result.spec.replications},ERROR: {message}")
            continue
        for cell in result.rows:
            mse = "" if cell.mse_tau is None else repr(cell.mse_tau)
            lines.append(
                f"{spec_fingerprint(result.spec)},{cell.k},{cell.rejection_rate!r},"
                f"{mse},{cell.mean_alpha_hat!r},{result.spec.replications},{cell.error_count}"
            )
    return "\n".join(lines) + "\n"


def _spec_dict(spec: SimulationSpec) -> dict:
    """The spec's fields, with ``label``, ``model`` and ``change`` first and the laws as tags."""
    model, change = spec.model, spec.change
    head = {
        "label": spec.label,
        "model": {"kind": model.kind, "coef": model.coef, "innovation": _innovation_tag(model.innovation)},
        "change": None if change is None else {
            "tau": change.tau, "pre": _innovation_tag(change.pre), "post": _innovation_tag(change.post)},
    }
    return head | {name: value for name, value in asdict(spec).items() if name not in head}


def results_to_report(results) -> str:
    """Structured JSON report: full spec echo plus per-cell aggregates."""
    payload = []
    for result in results:
        rows = [asdict(cell) for cell in result.rows]  # empty for a failed spec
        entry = {"spec": _spec_dict(result.spec), "error": result.error, "rows": rows}
        payload.append(entry)
    return json.dumps({"results": payload}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Benchmark table designs
# ---------------------------------------------------------------------------

TABLE_IDS = tuple(range(2, 11))

_K_SMALL = tuple(range(10, 101, 10))       # n = 1000
_K_LARGE = tuple(range(25, 251, 25))       # n = 3000
_BURR_ROWS = ((2.0, -2.0), (2.0, -0.5), (1.0, -2.0), (1.0, -0.5))
_MA_THETAS = (0.1, 0.5, 1.0)
_AR_COEFS = (0.5, 0.9)
_POWER_TAUS = (0.25, 0.5, 0.75)
_CHANGE_3_TO_1 = ChangeSpec(tau=0.5, pre=TDistParams(3.0), post=TDistParams(1.0))


def table_specs(
    table_id: int,
    replications: int = 2000,
    seed: int = 0,
    include_large: bool = False,
) -> list[SimulationSpec]:
    """Specs for one benchmark grid.

    Tables 2/3: size, i.i.d. Burr, indicator/log-excess statistic.
    Tables 4/5: size, MA(1) with t(2) innovations, lag-1 adjusted.
    Tables 6/7: size, AR(1) with t(2) innovations, residual test.
    Tables 8/9: power under a t(3) -> t(1) innovation change (MA direct /
    AR residual). Table 10: change-point MSE for the MA design of table 8.

    The ``n = 3000`` half of each grid is heavy and only included when
    ``include_large`` is set.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"table_id must be in {TABLE_IDS[0]}..{TABLE_IDS[-1]}, got {table_id}")
    blocks = [(1000, _K_SMALL)]
    if include_large:
        blocks.append((3000, _K_LARGE))

    specs: list[SimulationSpec] = []

    def add(spec: SimulationSpec) -> None:
        specs.append(replace(spec, seed=seed + len(specs), replications=replications))

    for n, k_grid in blocks:
        if table_id in (2, 3):
            phi = "indicator" if table_id == 2 else "log_excess"
            for alpha, gamma in _BURR_ROWS:
                add(SimulationSpec(
                    model=ModelSpec("iid", BurrParams.from_alpha(alpha, gamma)),
                    n=n, k_grid=k_grid, phi=phi, adjust="iid",
                    label=f"size-iid-burr(alpha={alpha:g},gamma={gamma:g})",
                ))
        elif table_id in (4, 5):
            phi = "indicator" if table_id == 4 else "log_excess"
            for theta in _MA_THETAS:
                add(SimulationSpec(
                    model=ModelSpec("ma1", TDistParams(2.0), coef=theta),
                    n=n, k_grid=k_grid, phi=phi, adjust="lag1",
                    label=f"size-ma1(theta={theta:g})",
                ))
        elif table_id in (6, 7):
            phi = "indicator" if table_id == 6 else "log_excess"
            for coef in _AR_COEFS:
                add(SimulationSpec(
                    model=ModelSpec("ar1", TDistParams(2.0), coef=coef),
                    n=n, k_grid=k_grid, phi=phi, adjust="iid",
                    test="ar_residual", ar_order=1, ar_method="ols",
                    label=f"size-ar1-resid(coef={coef:g})",
                ))
        elif table_id in (8, 10):  # table 10 reads the MSE of the located change off table 8's design
            for tau in _POWER_TAUS:
                add(SimulationSpec(
                    model=ModelSpec("ma1", TDistParams(3.0), coef=0.5),
                    n=n, k_grid=k_grid, phi="indicator", adjust="lag1",
                    change=replace(_CHANGE_3_TO_1, tau=tau),
                    label=f"{'power' if table_id == 8 else 'mse'}-ma1(tau={tau:g})",
                ))
        else:  # table 9
            for tau in _POWER_TAUS:
                add(SimulationSpec(
                    model=ModelSpec("ar1", TDistParams(3.0), coef=0.5),
                    n=n, k_grid=k_grid, phi="indicator", adjust="iid",
                    test="ar_residual", ar_order=1, ar_method="ols",
                    change=replace(_CHANGE_3_TO_1, tau=tau),
                    label=f"power-ar1-resid(tau={tau:g})",
                ))
    return specs
