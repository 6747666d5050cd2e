"""Exceptions shared across the planner modules, the number contract (the one
place a raw input number becomes a :class:`ConfigError`), and the one way the
package declares a checked input value: :class:`_Record`.

Inputs are records: the config sections, buckets, chunk tables and timeline
events. Each record class declares its fields, defaults and checks in one
schema beside it, and the same rows drive JSON parsing, so every malformed
input is a :class:`ConfigError` that names its path. Results are plain
``typing.NamedTuple``s.
"""

from __future__ import annotations

import math
from operator import attrgetter
from pathlib import Path
from typing import Any, Mapping


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


def read_json(path: str | Path, what: str) -> Any:
    """The JSON document in file ``path``. An unreadable file or bad JSON is a
    :class:`ConfigError` at ``path``; ``what`` names the file in the former."""
    import json  # here, so that a call that reads no JSON file never loads json

    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}", str(path)) from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int too long to convert
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc


# ---------------------------------------------------------------------------
# Records. A record class declares ``_schema = (section, rows)`` and
# ``__slots__ = _field_names(_schema)``. A row is (keys, kind, default,
# *checks) and gives each of its space-separated keys, in order, one field.
# ``kind`` names the JSON parser in ``_PARSERS`` (a trailing "?" lets a null
# keep the default; None marks a field JSON cannot set); _REQUIRED marks a key
# the JSON object must carry. A check is (condition, message[, path]):
# construction raises ConfigError(message, path) unless the condition holds,
# where ``v`` is the field's value and the record's other fields are in scope
# (a condition names a constant by value, as it runs in this module);
# ``path`` is an f-string template, ``section.key`` by default (``key`` when
# the section is "").
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _rows(schema: tuple[str, tuple[tuple, ...]]) -> list[tuple]:
    """``schema``'s rows, one per field."""
    return [(key, *rest) for keys, *rest in schema[1] for key in keys.split()]


def _field_names(schema: tuple[str, tuple[tuple, ...]]) -> tuple[str, ...]:
    return tuple(row[0] for row in _rows(schema))


def _require_mapping(obj: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError("expected a JSON object", path)
    return obj


def _parse_record(cls: type, doc: Any, path: str) -> Any:
    """Build record ``cls`` from JSON object ``doc`` found at ``path`` ("" for the root)."""
    doc = _require_mapping(doc, path or "<root>")
    prefix = f"{path}." if path else ""
    kinds = cls._kinds
    for key in doc:
        if key not in kinds:
            raise ConfigError("unknown key", prefix + key)
    for key in cls._required:
        if key not in doc:
            raise ConfigError(f"missing required {'key' if path else 'section'}", prefix + key)
    kwargs = {}
    for key, kind in kinds.items():
        if key in doc:
            value = doc[key]
            if value is not None or kind[-1] != "?":
                kwargs[key] = _PARSERS[kind.rstrip("?")](value, prefix + key)
    return cls(**kwargs)


def _instance_of(kind: type, message: str):
    """The parser that passes a ``kind`` value through and rejects anything else."""
    def parse(value: Any, path: str) -> Any:
        if not isinstance(value, kind):
            raise ConfigError(message, path)
        return value
    return parse


# JSON parsers by schema kind: each takes the raw value and its path. A module
# adds its own kinds; each record class adds itself when it is built.
_PARSERS = {
    "int": integer_value,
    "float": lambda value, path: float(finite_number(value, path)),
    "number": finite_number,  # keeps the JSON int or float
    "bool": _instance_of(bool, "expected true or false"),
    "str": _instance_of(str, "expected a string"),
    "choice": lambda value, path: value,  # the row's checks name the choices
}

_set_field = object.__setattr__


class _Record:
    """Base of the records: value equality, hashing, immutability, ``repr``,
    iteration in field order, and the ``_fields``/``_asdict``/``_replace``/
    ``_make`` helpers.

    A subclass's ``__init__`` is generated once from its schema rows: one
    inline test per check and one store per field, with no per-field loop, so
    a record costs no more to build than a hand-written class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        section, rows = cls._schema[0], _rows(cls._schema)
        cls._fields = tuple(row[0] for row in rows)
        cls._values = attrgetter(*cls._fields)
        cls._kinds = {key: kind for key, kind, *_ in rows if kind is not None}
        cls._required = tuple(key for key, _, default, *_ in rows if default is _REQUIRED)
        cls._field_defaults = {key: default for key, _, default, *_ in rows
                               if default is not _REQUIRED}
        lines = []
        for key, kind, _, *checks in rows:
            if checks:
                lines.append(f"v = {key}")
            for condition, message, *path in checks:
                where = path[0] if path else f"{section}.{key}" if section else key
                lines.append(f"if not ({condition}): raise ConfigError({message!r}, f{where!r})")
        for key, kind, *_ in rows:
            lines.append(f"_set_field(self, {key!r}, {f'tuple({key})' if kind == 'names' else key})")
        namespace: dict[str, Any] = {}
        exec(f"def __init__(self, {', '.join(cls._fields)}):\n    " + "\n    ".join(lines),
             globals(), namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(cls._field_defaults.values()) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        _PARSERS[cls.__name__] = lambda value, path: _parse_record(cls, value, path)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __iter__(self):
        return iter(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)

    def _asdict(self) -> dict[str, Any]:
        return dict(zip(self._fields, self._values(self)))

    def _replace(self, **changes: Any):
        """A copy with ``changes`` applied, checked like a new record."""
        return type(self)(**{**self._asdict(), **changes})

    @classmethod
    def _make(cls, iterable):
        """A record from its field values in order, checked like a new record."""
        return cls(*iterable)
