"""Canonical JSON helpers for checkpoints, records, and reports.

Canonical means sorted keys, compact separators, and a trailing newline,
so that identical state always serializes to identical bytes.  Floats go
through Python's repr, which round-trips float64 exactly; NaN and infinity
are refused rather than written as the non-standard ``NaN``/``Infinity``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def canonical_dumps(obj) -> str:
    """Raises ValueError on NaN or infinity, which JSON cannot represent."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    try:
        text = canonical_dumps(obj)
    except ValueError as e:
        raise ValueError(f"cannot write {path}: {e}") from None
    Path(path).write_text(text, encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def require_keys(obj, keys, what: str) -> None:
    """Raise ValueError naming each of ``keys`` that the JSON object ``obj``
    lacks (all of them when ``obj`` is not an object)."""
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list"}


def require_type(obj: dict, key: str, kind: type, what: str):
    """``obj[key]``, or a ValueError naming the field when it is not a JSON
    value of ``kind`` (int, bool, str or list; true and false are not
    integers)."""
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def decode_array(d: dict) -> np.ndarray:
    require_keys(d, ("shape", "data"), "encoded array")
    shape = require_type(d, "shape", list, "encoded array")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in shape):
        raise ValueError(f"encoded array 'shape' must hold integers, got {shape!r}")
    try:
        array = np.array(require_type(d, "data", list, "encoded array"), dtype=np.float64)
    except TypeError as e:
        raise ValueError(f"encoded array 'data' must hold numbers: {e}") from None
    if not np.isfinite(array).all():
        raise ValueError("encoded array 'data' must hold finite numbers")
    return array.reshape(shape)
