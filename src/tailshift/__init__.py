"""CUSUM tests for changes in the tail index of heavy-tailed time series.

The names below are the documented entry points; helpers such as the samplers,
the stream splitter or the per-k primitives are imported from their modules.
Each name loads its module on first use (PEP 562), so ``import tailshift``
loads no submodule and a critical value loads only what it needs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys(["ArFit", "DegenerateDataError", "fit_ar", "residual_cusum"], "ar_fit"),
    **dict.fromkeys(["TailTestConfig", "TestOutcome", "cusum_statistic", "deviation_process", "run_test"], "cusum"),
    **dict.fromkeys(["SimulationSpec", "run_table", "sweep", "table_specs"], "experiments"),
    **dict.fromkeys(["CriticalValueTable", "analytic_critical_values", "mc_critical_values"], "null_dist"),
    **dict.fromkeys(["DegenerateThresholdError", "estimate_chi", "estimate_omega", "hill"], "tail_core"),
    **dict.fromkeys(["BurrParams", "ChangeSpec", "ModelSpec", "TDistParams", "simulate"], "variates"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A documented name, from its module, which is imported on first access; the name is then cached here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
