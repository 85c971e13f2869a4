"""Exception types shared across the package, and its one range check."""

from functools import lru_cache


class UpperTailError(Exception):
    """Base class for all package errors."""


class ValidationError(UpperTailError):
    """Invalid input: bad parameter ranges, malformed graphs, size caps exceeded."""


class ResourceBudgetError(UpperTailError):
    """An enumeration or sampling loop exceeded its configured budget."""


@lru_cache(maxsize=256)
def _ends(interval: str) -> tuple:
    low, high = (float(end) for end in interval[1:-1].split(","))
    return low, interval[0] == "[", high, interval[-1] == "]"


# Private, though every layer imports it: perfbench/tracer.py wraps each
# public function bound in a layer module, and errors is not a layer.
def _check_range(name: str, value, interval: str):
    """Return ``value`` if it lies in ``interval``, written as in
    mathematics: "(0, 1)", "[0, inf)", "(-inf, inf)", "[1, 6]".  NaN lies
    in no interval, and an infinite end is written open, so +-inf fail every
    finite bound.  A value outside raises ``ValidationError`` with the one
    message ``<name> must lie in <interval>, got <value!r>``."""
    low, closed_low, high, closed_high = _ends(interval)
    if (low < value or closed_low and low == value) and (
            value < high or closed_high and value == high):
        return value
    raise ValidationError(f"{name} must lie in {interval}, got {value!r}")
