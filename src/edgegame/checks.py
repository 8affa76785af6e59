"""Value checks shared by every config and game function.

A count is an ``int`` and a probability a real number, never a ``bool``.
Each check returns its value, or raises a ValueError that starts with the
field's name. Exact ints and floats pass first: ``isinstance(x, Real)`` is slow.
"""

from __future__ import annotations

from numbers import Real


def integer(name: str, value, low: int | None = None) -> int:
    """``value`` if it is an int, not a bool, and at least ``low`` when given."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def real(name: str, value) -> float:
    """``value`` if it is a real number, not a bool; NaN and infinities pass."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def probability(name: str, value, positive: bool = False) -> float:
    """``value`` if it is a real number in [0, 1], or in (0, 1] if ``positive``."""
    if not (0.0 < real(name, value) <= 1.0 or value == 0.0 and not positive):
        raise ValueError(f"{name} must be in {'(0, 1]' if positive else '[0, 1]'}, got {value}")
    return value
