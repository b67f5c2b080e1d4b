"""Deterministic CSV and JSON emission.

All files use UTF-8, LF line endings, comma delimiters and dot decimals.
Floats are written with 9 significant digits in CSV; JSON keys are
sorted and non-finite numbers are replaced by the string "undefined" so
every emitted file is strict JSON and byte-stable for a given payload.
"""

from __future__ import annotations

import functools
import json
import math
import types

import numpy as np

from .detector_chain import BLOCK
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
    (bool, int, str) cell by cell by ``format_cell``. Rows are formatted
    and written ``BLOCK`` at a time. A list of strings is kept as an
    object array, so its cells keep trailing NULs; a numpy str array has
    already lost them, since its trailing NULs are padding.
    """
    names = [format_cell(name) for name in header]
    arrays = [_column_array(column) for column in columns]
    if len(arrays) != len(names):
        raise InvalidParameterError(
            f"{len(arrays)} columns do not match header width {len(names)}"
        )
    if any(array.ndim != 1 for array in arrays):
        raise InvalidParameterError("CSV columns must be 1-D")
    lengths = {array.shape[0] for array in arrays}
    if len(lengths) > 1:
        raise InvalidParameterError(f"CSV columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    with open(path, "wb") as handle:
        handle.write((",".join(names) + "\n").encode("utf-8"))
        for start in range(0, rows, BLOCK):
            block = [array[start:start + BLOCK] for array in arrays]
            handle.write(_csv_rows(block))
    return path


def _column_array(column):
    """The column as an array; a list of strings as an object array."""
    array = np.asarray(column)
    if array.dtype.kind == "U" and not isinstance(column, np.ndarray):
        array = np.array(column, dtype=object)
    return array


# Pads each cell to its field's width; valid UTF-8 never holds this byte,
# so a NUL inside a string cell stays data.
_PAD = b"\xff"


def _csv_rows(block):
    """The bytes of one block of rows, each cell followed by ',' or LF.

    Every column is formatted straight into its fixed-width field of one
    byte table, its text padded with 0xFF, and the spare byte after each
    field holds the separator; deleting the pad leaves each cell's text
    and its separator.
    """
    texts = [None if part.dtype.kind == "f" else _text_cells(part) for part in block]
    widths = [_FLOAT_WIDTH if text is None else text.shape[1] for text in texts]
    buffer = np.empty((block[0].shape[0], sum(widths) + len(widths)), np.uint8)
    start = 0
    for part, text, width in zip(block, texts, widths):
        if text is None:
            _float_cells(part, buffer[:, start:start + width])
        else:
            buffer[:, start:start + width] = text
        buffer[:, start + width] = ord(",")
        start += width + 1
    buffer[:, -1] = ord("\n")
    del texts
    # the table is freed before its compacted copy is made
    table = buffer.tobytes()
    del buffer
    return table.translate(None, _PAD)


def _text_cells(values):
    """``format_cell`` of each value as UTF-8 padded with 0xFF: rows x width bytes."""
    encoded = [format_cell(value).encode("utf-8") for value in values.tolist()]
    width = max(max(map(len, encoded)), 1)
    cells = np.array([cell.ljust(width, _PAD) for cell in encoded], f"S{width}")
    return cells.view(np.uint8).reshape(len(encoded), width)


# Every '%.9g' of a double fits in 16 bytes: '-1.23456789e-100'.
_FLOAT_WIDTH = 16
# Decimal exponents e of the fast path, |8 - e| <= 22, and one carry above.
_EXP_LO, _EXP_HI = -14, 31
_SMALLEST_NORMAL = 2.2250738585072014e-308


def _float_cells(values, cells):
    """Write ``'%.9g'`` of each float into ``cells`` (rows x 16 bytes), exact,
    padded with 0xFF.

    A finite normal nonzero |x| with decimal exponent e is printed from
    the integer m = round(|x| * 10**(8 - e)) in [1e8, 1e9). The fast
    path computes s = |x| * 10**k / 10**j with k = max(8 - e, 0) and
    j = max(e - 8, 0), and is taken only where |8 - e| <= 22. There
    10**k and 10**j are exact doubles, one of them is 1, so s is one
    correctly rounded product or quotient: |s - S| <= 2**-24 for the
    exact S = |x| * 10**(8 - e) < 2**30. e starts as floor(log10|x|) and
    is moved once by one decade when s falls outside [1e8, 1e9).

    Where 1e8 <= s < 1e9 and |s - rint(s)| < 0.5 - 1e-6, rint(s) is
    the correctly rounded S: the margin exceeds the error of s, so S lies
    on the same side of every half-integer, ties included. Rounding is
    monotonic and 1e8 and 1e9 are doubles, so s >= 1e8 gives S >= 1e8 -
    2**-24; an S just below 1e8 belongs to exponent e - 1, where 10 S
    rounds up to 1e9 and carries back to m = 1e8 at e, the same digits.
    m = 1e9 carries to m = 1e8 at exponent e + 1. None of this depends
    on log10 being exact: a wrong e leaves s outside [1e8, 1e9).

    m's nine digits, as byte values 0..9 from a 3-digit table, make a
    little-endian 128-bit number held in two uint64 words, and its
    trailing zeros are counted. The exponent, the number of digits kept
    and the sign select a row of the layout table (``_float_layout``):
    the row's constant bytes, with '0' where a digit goes and the 0xFF
    pad after the text, and how many leading digits stand before the
    decimal point and how far the digits move. A byte is opened after
    those leading digits, the digits are shifted into place and or-ed
    onto the constant bytes; the trailing zeros of m are zero bytes, so
    they change nothing where they land, the pad included.
    ±0 has rows of its own. Every other value (non-finite, subnormal,
    outside the exponent range, within 1e-6 of a tie) is formatted by
    ``'%.9g'`` itself.
    """
    layout = _float_layout()
    # as in '%': a longdouble beyond the double range is inf, a signaling NaN nan
    with np.errstate(over="ignore", invalid="ignore"):
        x = values.astype(np.float64, copy=False)
    magnitude = np.abs(x)
    normal = (magnitude >= _SMALLEST_NORMAL) & (magnitude < np.inf)
    magnitude[~normal] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = _scale(magnitude, exponent, layout.pow10)
    off = np.flatnonzero((scaled < 1e8) | (scaled >= 1e9))
    if off.size:
        exponent[off] += np.where(scaled[off] >= 1e9, 1, -1)
        scaled[off] = _scale(magnitude[off], exponent[off], layout.pow10)
    del magnitude
    mantissa = np.rint(scaled)
    fast = (
        normal
        & (np.abs(8 - exponent) <= 22)
        & (scaled >= 1e8)
        & (scaled < 1e9)
        & (np.abs(scaled - mantissa) < 0.5 - 1e-6)
    )
    del scaled
    mantissa = np.where(fast, mantissa, 0.0).astype(np.int32)
    carry = mantissa == 10**9
    mantissa[carry] = 10**8
    exponent += carry
    middle = mantissa // 1000
    low = mantissa - middle * 1000
    high = middle // 1000
    middle -= high * 1000
    del mantissa
    trailing = layout.trailing[low] + (low == 0) * (
        layout.trailing[middle] + (middle == 0) * layout.trailing[high]
    )
    row = (np.clip(exponent, _EXP_LO, _EXP_HI) - _EXP_LO) * 18 + (8 - trailing) * 2
    row += np.signbit(x)
    del exponent, trailing
    slow = ~fast
    row[slow] = layout.const.size - 2 + np.signbit(x[slow])
    # digits 1..8 in the low word, digit 9 in the high word; a value off
    # the fast path has m = 0, no digits
    top = layout.three[low]
    digits = layout.three[high]
    digits |= top << np.uint64(48)
    top >>= np.uint64(16)
    part = layout.three[middle]
    part <<= np.uint64(24)
    digits |= part
    del high, middle, low
    # open the byte after the leading digits: digits = head | rest << 8
    head = layout.head[row]
    head &= digits
    digits ^= head
    np.right_shift(digits, np.uint64(56), out=part)
    digits <<= np.uint64(8)
    digits |= head
    head_top = layout.head_top[row]
    head_top &= top
    top ^= head_top
    top <<= np.uint64(8)
    top |= head_top
    top |= part
    del head, head_top
    # shift both words into place and or them onto the constant bytes
    # (the spill into the high word takes two shifts, so none reaches 64 bits)
    words = cells.view("<u8")
    np.right_shift(digits, np.uint64(8), out=part)
    part >>= layout.spill[row]
    top <<= layout.shift[row]
    top |= part
    np.bitwise_or(top, layout.const_top[row], out=words[:, 1])
    digits <<= layout.shift[row]
    np.bitwise_or(digits, layout.const[row], out=words[:, 0])
    slow &= x != 0.0
    slow = np.flatnonzero(slow)
    if slow.size:
        text = [
            ("%.9g" % value).encode("ascii").ljust(_FLOAT_WIDTH, _PAD)
            for value in x[slow].tolist()
        ]
        cells[slow] = np.array(text, f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(
            slow.size, _FLOAT_WIDTH
        )


def _scale(magnitude, exponent, pow10):
    """|x| * 10**(8 - e) as one rounding, for |8 - e| <= 22 (else unused)."""
    up = np.clip(8 - exponent, 0, 22)
    down = np.clip(exponent - 8, 0, 22)
    return magnitude * pow10[up] / pow10[down]


@functools.cache
def _float_layout():
    """Read-only lookup tables of the fast ``'%.9g'`` path, built on first
    use (see ``_float_cells``)."""
    # One row per (exponent, digits kept, sign), in _float_cells' order,
    # printed by '%.9g' itself from the distinct digits 1..9; then ±0.
    text = [
        "%.9g" % float(f"{sign}{'123456789'[:kept]}e{exp - kept + 1}")
        for exp in range(_EXP_LO, _EXP_HI + 1)
        for kept in range(1, 10)
        for sign in ("", "-")
    ] + ["0", "-0"]
    table = np.array(
        [t.encode("ascii").ljust(_FLOAT_WIDTH, _PAD) for t in text], f"S{_FLOAT_WIDTH}"
    )
    table = table.view(np.uint8).reshape(len(text), _FLOAT_WIDTH)
    mantissa_end = np.array([len(t.partition("e")[0]) for t in text])[:, None]
    is_digit = (
        (table >= ord("1"))
        & (table <= ord("9"))
        & (np.arange(_FLOAT_WIDTH) < mantissa_end)
    )
    # the first digit's byte, and the digits before a decimal point that
    # follows it (all nine where none does)
    first = [max(t.find("1"), 0) for t in text]
    leading = [
        t.find(".", start) - start if "." in t[start:] else 9
        for t, start in zip(text, first)
    ]
    head = [(1 << 8 * count) - 1 for count in leading]
    words = np.where(is_digit, ord("0"), table).astype(np.uint8).view("<u8")
    layout = types.SimpleNamespace(
        pow10=np.array([float(10**k) for k in range(23)]),
        three=np.array(
            [v // 100 | v // 10 % 10 << 8 | v % 10 << 16 for v in range(1000)], np.uint64
        ),
        trailing=np.array([3 - len(f"{v:03d}".rstrip("0")) for v in range(1000)], np.intp),
        const=words[:, 0].astype(np.uint64),
        const_top=words[:, 1].astype(np.uint64),
        head=np.array([mask & (2**64 - 1) for mask in head], np.uint64),
        head_top=np.array([mask >> 64 for mask in head], np.uint64),
        shift=np.array([8 * start for start in first], np.uint64),
        spill=np.array([56 - 8 * start for start in first], np.uint64),
    )
    for array in vars(layout).values():
        array.setflags(write=False)
    return layout


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
