"""The one JSON emitter for reports and CLI payloads.

:func:`dump` writes ``json.dumps(value, indent=2)``'s exact bytes. It is a
leaf module so that a CLI call that only prints a small payload never
loads the planner.
"""

from __future__ import annotations

import io
from json.encoder import encode_basestring_ascii
from typing import Any, Callable


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


def _write_json(value: Any, write: Callable[[str], Any], indent: str) -> None:
    """Write ``value`` as ``json.dumps(value, indent=2)`` does, nested at ``indent``."""
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            head = sep + encode_basestring_ascii(key) + ": "
            if isinstance(item, (dict, list, tuple)):
                write(head)
                _write_json(item, write, inner)
            else:
                write(head + _json_scalar(item))
            sep = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                write(sep)
                _write_json(item, write, inner)
            else:
                write(sep + _json_scalar(item))
            sep = ",\n" + inner
        write("\n" + indent + "]")
    else:
        write(_json_scalar(value))


def dump(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte (dict keys must be str), in
    about half the time of the pure-Python encoder json falls back to for ``indent``."""
    buffer = io.StringIO()
    _write_json(value, buffer.write, "")
    return buffer.getvalue()
