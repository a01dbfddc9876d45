"""Deterministic JSON emission through the stdlib encoder: sorted keys,
floats printed as Python's shortest repr that round-trips exactly (an
integral float keeps its ".0", -0.0 its sign; NaN and the infinities print
as the NaN/Infinity/-Infinity tokens), exact rationals as "p/q" strings.
Reports serialized through here are byte-identical across runs on the
same platform and build."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def _plain(obj):
    """obj with Fractions as "p/q" strings, tuples as lists, dict keys as
    str and objects with a to_json method as its output."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if hasattr(obj, "to_json"):
        return _plain(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj, indent: int = 0) -> str:
    """JSON text with sorted keys; one line when indent is 0."""
    return json.dumps(_plain(obj), indent=indent or None, sort_keys=True, ensure_ascii=False)


def digest(obj) -> str:
    """Stable identifier for a parameter set."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()[:16]
