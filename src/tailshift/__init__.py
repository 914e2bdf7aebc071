"""CUSUM tests for changes in the tail index of heavy-tailed time series.

The names below are the documented entry points; helpers such as the samplers,
the stream splitter or the per-k primitives are imported from their modules.
"""

from .ar_fit import ArFit, DegenerateDataError, fit_ar, residual_cusum
from .cusum import TailTestConfig, TestOutcome, cusum_statistic, deviation_process, run_test
from .experiments import SimulationSpec, run_table, sweep, table_specs
from .null_dist import CriticalValueTable, analytic_critical_values, mc_critical_values
from .tail_core import DegenerateThresholdError, estimate_chi, estimate_omega, hill
from .variates import BurrParams, ChangeSpec, ModelSpec, TDistParams, simulate

__version__ = "0.1.0"

__all__ = [
    "ArFit",
    "BurrParams",
    "ChangeSpec",
    "CriticalValueTable",
    "DegenerateDataError",
    "DegenerateThresholdError",
    "ModelSpec",
    "SimulationSpec",
    "TDistParams",
    "TailTestConfig",
    "TestOutcome",
    "analytic_critical_values",
    "cusum_statistic",
    "deviation_process",
    "estimate_chi",
    "estimate_omega",
    "fit_ar",
    "hill",
    "mc_critical_values",
    "residual_cusum",
    "run_table",
    "run_test",
    "simulate",
    "sweep",
    "table_specs",
]
