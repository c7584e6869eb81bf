"""Canonical JSON helpers for checkpoints, records, and reports, and the
one CSV writer.

Canonical means sorted keys, compact separators, and a trailing newline,
so that identical state always serializes to identical bytes.  Floats go
through Python's repr, which round-trips float64 exactly; NaN and infinity
are refused rather than written as the non-standard ``NaN``/``Infinity``.
"""

from __future__ import annotations

import csv
import json
import math
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


def write_csv(path, header: list, rows, preamble: tuple[str, ...] = ()) -> None:
    """Write UTF-8 CSV: the ``preamble`` lines, each ended by LF, then
    ``header`` and ``rows`` (lists of fields) in the csv module's default
    dialect, which quotes fields as needed and ends each row with CR LF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def require_keys(obj, keys, what: str) -> None:
    """Raise ValueError naming each of ``keys`` that the JSON object ``obj``
    lacks (all of them when ``obj`` is not an object)."""
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


_KINDS = {int: "an integer", str: "a string", list: "a list"}


def require_type(obj: dict, key: str, kind: type, what: str):
    """``obj[key]``, or a ValueError naming the field when it is not a JSON
    value of ``kind`` (int, str or list; true and false are not integers)."""
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def decode_array(d: dict) -> np.ndarray:
    """The float64 array of an ``encode_array`` object; a ValueError names
    the field unless ``shape`` is a list of integers >= 0 and ``data`` a
    list of that many finite JSON numbers (true and false are not numbers)."""
    require_keys(d, ("shape", "data"), "encoded array")
    shape = require_type(d, "shape", list, "encoded array")
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"encoded array 'shape' must be a list of integers >= 0, got {shape!r}")
    values = require_type(d, "data", list, "encoded array")
    if not set(map(type, values)) <= {float, int}:
        bad = next(x for x in values if type(x) not in (float, int))
        raise ValueError(f"encoded array 'data' must be a list of numbers, got {bad!r}")
    if len(values) != math.prod(shape):
        raise ValueError(f"encoded array 'data' must be {math.prod(shape)} numbers for "
                         f"'shape' {shape}, got {len(values)}")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        array = np.full(1, np.inf)
    if not np.isfinite(array).all():
        raise ValueError("encoded array 'data' must be finite numbers")
    return array.reshape(shape)
