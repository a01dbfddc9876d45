"""Deterministic JSON emission: sorted keys, floats printed with 17
significant digits (lossless round-trip), exact rationals as "p/q"
strings.  Reports serialized through here are byte-identical across runs
on the same platform and build."""

from __future__ import annotations

import hashlib
from fractions import Fraction


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def dumps(obj, indent: int = 0, _level: int = 0) -> str:
    """JSON text with deterministic key order and float formatting.
    Fractions become "p/q" strings; tuples become arrays."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    end_pad = " " * (indent * _level) if indent else ""
    sep = ",\n" if indent else ", "
    open_nl = "\n" if indent else ""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Fraction):
        return _escape(str(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(v, indent, _level + 1) for v in obj]
        return "[" + open_nl + sep.join(pad + it for it in items) + open_nl + end_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        items = [
            pad + _escape(str(k)) + ": " + dumps(obj[k], indent, _level + 1) for k in keys
        ]
        return "{" + open_nl + sep.join(items) + open_nl + end_pad + "}"
    if hasattr(obj, "to_json"):
        return dumps(obj.to_json(), indent, _level)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def digest(obj) -> str:
    """Stable identifier for a parameter set."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()[:16]
