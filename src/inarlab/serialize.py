"""Deterministic JSON emission for reports and tables.

Floats are written with 17 significant digits so every value round-trips
exactly; keys are sorted; output is byte-identical across runs of the same
computation.
"""

from __future__ import annotations

import json
import math

from .errors import InvalidParameterError


def _format(obj, level: int) -> str:
    indent = "  " * level
    indent_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvalidParameterError("non-finite floats are not serializable")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_format(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(indent_in + it for it in items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        items = [f"{json.dumps(str(k))}: {_format(obj[k], level + 1)}" for k in keys]
        return "{\n" + ",\n".join(indent_in + it for it in items) + "\n" + indent + "}"
    raise InvalidParameterError(f"unserializable value of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize with sorted keys, 17-significant-digit floats, two-space indents."""
    return _format(obj, 0) + "\n"
