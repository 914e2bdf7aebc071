"""Argument checks shared by every module; they import no numpy, so the analytic critical values load none.

The ids of the benchmark grids are here too, so that the CLI can name them without loading the harness.
"""
import numbers

TABLE_IDS = tuple(range(2, 11))  # the grids ``experiments.table_specs`` builds


def as_int(value, name: str, low: int | None = None) -> int:
    """``value`` as a Python int of at least ``low``; bools and values of a non-integer type are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r} of type {type(value).__name__}")
    value = int(value)
    if low is not None and value < low:
        rule = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def require_real(name: str, value) -> None:
    """Reject a bool or a value of a non-real type, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r} of type {type(value).__name__}")


def require_level(level) -> None:
    """Reject a ``level`` that is not a real number in (0, 1)."""
    require_real("level", level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
