"""The one JSON emitter for reports and CLI payloads.

:func:`dump` writes ``json.dumps(value, indent=2)``'s exact bytes. It is a
leaf module so that a CLI call that only prints a small payload never
loads the planner; it takes json's C string encoder from ``_json``, so it
never loads the ``json`` package either.
"""

from __future__ import annotations

from _json import encode_basestring_ascii
from typing import Any


def _json_scalar(value: Any) -> str:
    """json's spelling of a str, int, float, bool or None."""
    # Floats, the most common leaf, go first: only bool is two of these
    # types (an int), so the order is json's wherever it matters.
    if isinstance(value, float):
        if value - value == 0.0:  # finite
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(value: Any, parts: list[str], indent: str) -> None:
    """Append the container ``value`` to ``parts`` as ``json.dumps(value,
    indent=2)`` writes it, nested at ``indent``."""
    is_dict = isinstance(value, dict)
    if not value:
        parts.append("{}" if is_dict else "[]")
        return
    inner = indent + "  "
    head, sep = ("{\n" if is_dict else "[\n") + inner, ",\n" + inner
    for item in value.items() if is_dict else value:
        if is_dict:
            key, item = item
            head = f"{head}{encode_basestring_ascii(key)}: "
        # Exact finite floats, ints and strs, the report's leaves, skip
        # _json_scalar's isinstance checks (subclasses still take them).
        kind = type(item)
        if kind is float and item - item == 0.0 or kind is int:
            parts.append(f"{head}{item!r}")
        elif kind is str:
            parts.append(head + encode_basestring_ascii(item))
        elif isinstance(item, (dict, list, tuple)):
            parts.append(head)
            _emit(item, parts, inner)
        else:
            parts.append(head + _json_scalar(item))
        head = sep
    parts.append("\n" + indent + ("}" if is_dict else "]"))


def dump(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte (dict keys must be str), in
    about half the time of the pure-Python encoder json falls back to for ``indent``."""
    if not isinstance(value, (dict, list, tuple)):
        return _json_scalar(value)
    parts: list[str] = []
    _emit(value, parts, "")
    return "".join(parts)
