"""Batch simulation harness: empirical size, power and change-point MSE grids.

Each grid cell simulates ``replications`` series, runs the configured test at
every tail fraction in ``k_grid`` on the same simulated path (common random
numbers across the k axis), and aggregates rejection rates, the mean squared
error of the change-point fraction (when a change is injected) and the mean
tail-exponent estimate. Replication ``r`` draws from the split stream
``(seed, r)``, and only those draws run per replication: the paths, the AR fit
and the fold of a block of replications are computed once for each run of the
block, as rows each bit-identical to its series alone, and each run goes
through one kernel pass. A block is cut into one contiguous run per usable
core, each on its own thread; numpy releases the GIL in the draws, the filters
and the kernel's sorts and reductions. The sums run in replication order, so
reruns, any block size and any core count are bit-identical.

``table_specs`` reproduces the benchmark grids (numbered 2-10) used to
calibrate this implementation: sizes for i.i.d. Burr samples and for MA(1)/
AR(1) paths with Student-t innovations, powers under a mid-sample tail
change, and the localization MSE.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._checks import TABLE_IDS, as_int
from .ar_fit import _fit_rows, check_fit_args
from .cusum import TailTestConfig
from .kernel import TailGrid, tail_grid
from .null_dist import _delimited, _null_nonfinite, _solve
from .variates import (
    BurrParams,
    ChangeSpec,
    ModelSpec,
    TDistParams,
    _fan,
    _require_change,
    _simulate_rows,
    _streams,
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
        _require_change(self.change)
        for name, low in (("n", 4), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        if isinstance(self.k_grid, (str, bytes)) or not np.iterable(self.k_grid):
            raise TypeError(f"k_grid must be a sequence of integers, got {self.k_grid!r}")
        # each k, phi, adjust and level is checked as for a single test
        tests = [TailTestConfig(k=k, phi=self.phi, adjust=self.adjust, level=self.level) for k in self.k_grid]
        object.__setattr__(self, "k_grid", tuple(test.k for test in tests))
        if not self.k_grid:
            raise ValueError("k_grid must be non-empty")
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a str, got {type(self.label).__name__}")
        if "\r" in self.label:  # csv.writer leaves a bare carriage return unquoted before Python 3.13
            raise ValueError(f"label must not hold a carriage return, got {self.label!r}")
        for k in self.k_grid:
            if not 1 <= k <= self.n - 2:
                raise ValueError(f"every k must satisfy 1 <= k <= n - 2, got k={k}, n={self.n}")
        if self.test not in TEST_KINDS:
            raise ValueError(f"test must be one of {TEST_KINDS}, got {self.test!r}")
        # the AR order and method are checked as for a single fit, for every test kind
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

    Replications are simulated, fitted and folded by blocks, each evaluated
    with its whole k grid in one kernel pass. A block's rows run as one
    contiguous run per usable core, whose grids are summed in row order, so
    the result is the same for every core count. A documented degeneracy (a
    singular or non-finite AR fit, or a grid cell whose kernel ``status`` is
    not 0: too few residuals for k, a zero (k+1)-th largest value, an infinite
    ``alpha_hat`` under the log-excess scaling) counts as neither rejection
    nor acceptance; it is reported in ``error_count`` and the rejection rate
    keeps ``replications`` as its denominator. Any other error propagates.
    """
    ks = np.asarray(spec.k_grid)
    n_k = ks.size
    rejects = np.zeros(n_k, dtype=np.int64)
    sq_err = np.zeros(n_k)
    ok_count = np.zeros(n_k, dtype=np.int64)
    alpha_sum = np.zeros(n_k)
    critical = _solve(1.0 - spec.level, spec.level)
    n = spec.n - spec.ar_order * (spec.test == "ar_residual")  # the length of a tested series

    for start in range(0, spec.replications, _BLOCK):
        rngs = _streams(spec.seed, start, min(start + _BLOCK, spec.replications))
        # the runs' grids in row order, so the sums still run in replication order
        for grid in _fan(len(rngs), lambda a, b: _block_grid(spec, ks, rngs[a:b])):
            ok = grid.status == 0
            ok_count += np.add.reduce(ok, axis=0)
            rejects += np.add.reduce((grid.scale * grid.statistic >= critical) & ok, axis=0)
            alpha_sum = _add_in_order(alpha_sum, grid.alpha_hat, ok)
            if spec.change is not None:
                sq_err = _add_in_order(sq_err, (grid.l_hat / n - spec.change.tau) ** 2, ok)

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


def _block_grid(spec: SimulationSpec, ks: np.ndarray, rngs) -> TailGrid:
    """The kernel grid of the replications of ``rngs``: of their paths, or of the AR residuals of those that
    have a fit (a row without one is an error at every k; a residual that overflows is the kernel's error).
    With no row left, every field is ``(0, K)``."""
    block = _simulate_rows(spec.model, spec.n, rngs, spec.change)
    if spec.test == "ar_residual":
        _, block, unfit = _fit_rows(block, spec.ar_order, spec.ar_method)
        block = np.delete(block, list(unfit), axis=0) if unfit else block
    return tail_grid(block, ks, spec.phi, spec.adjust)


def _add_in_order(running: np.ndarray, rows: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``running`` plus the ``ok`` cells of ``rows``, added one row after another (a cell not ok adds 0)."""
    return np.cumsum(np.vstack([running, np.where(ok, rows, 0.0)]), axis=0)[-1]


def sweep(specs) -> list[TableResult]:
    """Run independent specs in order; one failing spec does not abort the rest."""
    specs = list(specs)
    if not specs:
        raise ValueError("sweep requires at least one spec")
    for i, spec in enumerate(specs):  # before any spec runs: a spec's error is its own degeneracy, never a bug
        if not isinstance(spec, SimulationSpec):
            raise TypeError(f"specs[{i}] must be a SimulationSpec, got {type(spec).__name__}")
    results = []
    for spec in specs:
        try:
            results.append(run_table(spec))
        except Exception as exc:  # isolate per spec
            results.append(TableResult(spec=spec, rows=(), error=str(exc)))
    return results


def _innovation_tag(params) -> str:
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
    """CSV with one ``spec,k,...`` row per grid cell; empty mse_tau when no change is injected.

    The ``spec`` key is quoted where it holds a comma (the labels of tables 2 and 3). A failed spec gives one
    row with empty cell fields and ``ERROR: <message>`` under ``error_count``, the message verbatim.
    """
    rows = [("spec", "k", "rejection_rate", "mse_tau", "mean_alpha_hat", "replications", "error_count")]
    for result in results:
        key, reps = spec_fingerprint(result.spec), result.spec.replications
        if result.error is not None:
            rows.append((key, None, None, None, None, reps, f"ERROR: {result.error}"))
        rows += [(key, cell.k, cell.rejection_rate, cell.mse_tau, cell.mean_alpha_hat, reps, cell.error_count)
                 for cell in result.rows]  # none for a failed spec
    return _delimited(rows)


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
    """Structured JSON report: full spec echo plus per-cell aggregates, a non-finite one as ``null``."""
    import json  # here, so that importing the package does not load it

    payload = []
    for result in results:
        rows = [_null_nonfinite(asdict(cell)) for cell in result.rows]  # empty for a failed spec
        entry = {"spec": _spec_dict(result.spec), "error": result.error, "rows": rows}
        payload.append(entry)
    return json.dumps({"results": payload}, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Benchmark table designs
# ---------------------------------------------------------------------------

_K_SMALL = tuple(range(10, 101, 10))       # n = 1000
_K_LARGE = tuple(range(25, 251, 25))       # n = 3000
_BURR_ROWS = ((2.0, -2.0), (2.0, -0.5), (1.0, -2.0), (1.0, -0.5))
_MA_THETAS = (0.1, 0.5, 1.0)
_AR_COEFS = (0.5, 0.9)
_POWER_TAUS = (0.25, 0.5, 0.75)


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

    Each table is a list of ``(label, model, change)`` designs, and three
    fields follow from the model and the table: ``adjust="lag1"`` exactly
    for MA(1) models, ``test="ar_residual"`` (order 1, least squares: the
    spec's defaults) exactly for AR(1) models, and ``phi="log_excess"``
    exactly for tables 3, 5 and 7. The specs come by block of ``n`` (1000,
    then 3000), each block in design order, and spec ``i`` of that order is
    seeded ``seed + i``.

    The ``n = 3000`` half of each grid is heavy and only included when
    ``include_large`` is set.
    """
    if as_int(table_id, "table_id") not in TABLE_IDS:
        raise ValueError(f"table_id must be in {TABLE_IDS[0]}..{TABLE_IDS[-1]}, got {table_id}")
    if table_id in (2, 3):
        designs = [(f"size-iid-burr(alpha={alpha:g},gamma={gamma:g})",
                    ModelSpec("iid", BurrParams.from_alpha(alpha, gamma)), None) for alpha, gamma in _BURR_ROWS]
    elif table_id in (4, 5):
        designs = [(f"size-ma1(theta={theta:g})", ModelSpec("ma1", TDistParams(2.0), coef=theta), None)
                   for theta in _MA_THETAS]
    elif table_id in (6, 7):
        designs = [(f"size-ar1-resid(coef={coef:g})", ModelSpec("ar1", TDistParams(2.0), coef=coef), None)
                   for coef in _AR_COEFS]
    else:  # table 10 reads the MSE of the located change off table 8's design
        kind = "ar1" if table_id == 9 else "ma1"
        name = {8: "power-ma1", 9: "power-ar1-resid", 10: "mse-ma1"}[table_id]
        designs = [(f"{name}(tau={tau:g})", ModelSpec(kind, TDistParams(3.0), coef=0.5),
                    ChangeSpec(tau=tau, pre=TDistParams(3.0), post=TDistParams(1.0))) for tau in _POWER_TAUS]
    blocks = [(1000, _K_SMALL)] + ([(3000, _K_LARGE)] if include_large else [])
    cells = [(n, k_grid, *design) for n, k_grid in blocks for design in designs]
    return [SimulationSpec(model=model, n=n, k_grid=k_grid, change=change, label=label,
                           phi="log_excess" if table_id in (3, 5, 7) else "indicator",
                           adjust="lag1" if model.kind == "ma1" else "iid",
                           test="ar_residual" if model.kind == "ar1" else "direct",
                           replications=replications, seed=seed + i)
            for i, (n, k_grid, label, model, change) in enumerate(cells)]
