"""Byte-stable CSV and JSON emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydsag.emit import UNDEFINED, format_cell, sanitize, write_csv, write_json
from rydsag.errors import InvalidParameterError


def test_format_cell_types():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(np.bool_(True)) == "true"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(math.pi) == "3.14159265"
    assert format_cell(np.float64(1.5e-7)) == "1.5e-07"
    assert format_cell("text") == "text"
    with pytest.raises(InvalidParameterError):
        format_cell([1, 2])
    with pytest.raises(InvalidParameterError):
        format_cell(None)
    # cells are written unquoted
    for text in ("a,b", 'say "x"', "line\nbreak", "cr\r"):
        with pytest.raises(InvalidParameterError):
            format_cell(text)


def test_format_cell_nine_significant_digits():
    assert format_cell(1.23456789012345) == "1.23456789"
    assert format_cell(123456789012.345) == "1.23456789e+11"


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-5e-324)
@example(1.7976931348623157e308)
def test_float_template_matches_format_cell(x):
    # write_csv's float columns use the template; format_cell is the reference
    assert "%.9g" % x == format_cell(x)


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(
        path,
        ["f", "i", "b", "s"],
        [
            np.array([2.5, math.pi, -0.0]),
            np.array([1, -3, 12345678901], dtype=np.int64),
            [True, False, np.bool_(True)],
            ["x", "y", "z"],
        ],
    )
    raw = path.read_bytes()
    assert raw == (
        b"f,i,b,s\n"
        b"2.5,1,true,x\n"
        b"3.14159265,-3,false,y\n"
        b"-0,12345678901,true,z\n"
    )
    assert b"\r" not in raw


def test_write_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(InvalidParameterError):
        write_csv(path, ["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(InvalidParameterError):
        write_csv(path, ["a", "b"], [[1.0, 2.0]])
    with pytest.raises(InvalidParameterError):
        write_csv(path, ["a"], [np.zeros((2, 2))])
    with pytest.raises(InvalidParameterError):
        write_csv(path, ["a,b"], [[1.0]])


def test_sanitize_nested_payload():
    payload = {
        "arr": np.array([1.0, float("nan"), float("inf")]),
        "flag": np.bool_(False),
        "count": np.int32(4),
        "nested": {"t": (1, 2.0, None)},
    }
    clean = sanitize(payload)
    assert clean["arr"] == [1.0, UNDEFINED, UNDEFINED]
    assert clean["flag"] is False
    assert clean["count"] == 4
    assert clean["nested"]["t"] == [1, 2.0, None]
    with pytest.raises(InvalidParameterError):
        sanitize({"bad": object()})


def test_write_json_sorted_and_strict(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": float("nan")})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed == {"a": UNDEFINED, "b": 1}


def test_write_json_deterministic(tmp_path):
    payload = {"z": [1, 2, 3], "m": {"k": 2.0**-20}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_json(p1, payload)
    write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
