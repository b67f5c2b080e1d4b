"""Deterministic CSV and JSON emission.

All files use UTF-8, LF line endings, comma delimiters and dot decimals.
Floats are written with 9 significant digits in CSV; JSON keys are
sorted and non-finite numbers are replaced by the string "undefined" so
every emitted file is strict JSON and byte-stable for a given payload.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidParameterError

UNDEFINED = "undefined"

# CSV cells are written unquoted, so a string may hold none of these.
_UNQUOTED_FORBIDDEN = frozenset(',"\r\n')


def format_cell(value):
    """One CSV cell: 9-significant-digit floats, plain ints and strings.

    Cells are never quoted, so a string holding a comma, a double quote
    or a line break is rejected.
    """
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    if isinstance(value, str):
        if not _UNQUOTED_FORBIDDEN.isdisjoint(value):
            raise InvalidParameterError(
                f"CSV cell {value!r} holds a comma, quote or line break"
            )
        return value
    raise InvalidParameterError(f"cannot format a {type(value).__name__} CSV cell")


def write_csv(path, header, columns):
    """Write a header and equal-length 1-D columns; returns the path.

    A column's type is its array dtype: a float column is written with
    ``'%.9g'`` (the same bytes as ``format_cell``), and any other column
    (bool, int, str) is formatted once, cell by cell, by ``format_cell``.
    """
    names = [format_cell(name) for name in header]
    arrays = [np.asarray(column) for column in columns]
    if len(arrays) != len(names):
        raise InvalidParameterError(
            f"{len(arrays)} columns do not match header width {len(names)}"
        )
    if any(array.ndim != 1 for array in arrays):
        raise InvalidParameterError("CSV columns must be 1-D")
    lengths = {array.shape[0] for array in arrays}
    if len(lengths) > 1:
        raise InvalidParameterError(f"CSV columns differ in length: {sorted(lengths)}")
    specs, values = [], []
    for array in arrays:
        if array.dtype.kind == "f":
            specs.append("%.9g")
            values.append(array.tolist())
        else:
            specs.append("%s")
            values.append([format_cell(value) for value in array.tolist()])
    template = ",".join(specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(map(template.__mod__, zip(*values)))
    return path


def sanitize(value):
    """Recursively convert a payload into strict-JSON-serializable data."""
    if isinstance(value, dict):
        return {str(key): sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    if isinstance(value, np.ndarray):
        return [sanitize(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else UNDEFINED
    if value is None or isinstance(value, str):
        return value
    raise InvalidParameterError(
        f"cannot serialize a {type(value).__name__} value to JSON"
    )


def write_json(path, payload):
    """Write a sanitized, sorted, indented JSON document; returns the path."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(sanitize(payload), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path
