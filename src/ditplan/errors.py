"""Exception hierarchy shared across the planner modules."""

from __future__ import annotations


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
