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


def decode_array(d: dict) -> np.ndarray:
    require_keys(d, ("shape", "data"), "encoded array")
    return np.array(d["data"], dtype=np.float64).reshape(d["shape"])
