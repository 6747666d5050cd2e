"""Exception hierarchy shared across the planner modules, and the number
contract: the one place a raw input number becomes a :class:`ConfigError`."""

from __future__ import annotations

import math
from typing import Any


class PlanningError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(PlanningError):
    """Invalid configuration input (bad schema, bad value, unknown key).

    ``path`` points at the offending entry, e.g. ``"cluster.device_mem"``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DimensionError(ConfigError):
    """A geometric dimension violates a divisibility or size constraint."""


class MalformedTimelineError(PlanningError):
    """An activation timeline frees memory it never allocated."""


class InfeasibleError(PlanningError):
    """No plan satisfies the memory/placement constraints."""


# No real model or cluster needs a non-zero number outside [MIN_MAGNITUDE,
# MAX_MAGNITUDE] or an integer above MAX_INTEGER; beyond them costs
# overflow to infinity and divisor walks run for hours.
MIN_MAGNITUDE = 1e-30
MAX_MAGNITUDE = 1e30
MAX_INTEGER = 2**31


def finite_number(value: Any, path: str) -> int | float:
    """``value`` unchanged when it is a finite JSON number that is zero or
    of magnitude within [MIN_MAGNITUDE, MAX_MAGNITUDE]; anything else
    (bools, strings, nulls, NaN, infinities, too small or too large)
    raises :class:`ConfigError` at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", path)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"expected a finite number, got {value}", path)
    if value and not MIN_MAGNITUDE <= abs(value) <= MAX_MAGNITUDE:
        raise ConfigError(
            f"expected 0 or a magnitude in [{MIN_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], got {value}", path
        )
    return value


def integer_value(value: Any, path: str) -> int:
    """``value`` as an int when it is a whole JSON number of magnitude at
    most MAX_INTEGER, else a :class:`ConfigError`."""
    if isinstance(value, int) and not isinstance(value, bool):
        number = value
    elif isinstance(value, float) and value.is_integer():
        number = int(value)
    else:
        raise ConfigError("expected an integer", path)
    if abs(number) > MAX_INTEGER:
        raise ConfigError(f"expected a magnitude of at most {MAX_INTEGER}, got {value}", path)
    return number
