"""Byte-stable CSV and JSON emission."""

import json
import math
import struct
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydsag import cli, emit
from rydsag.detector_chain import BLOCK
from rydsag.emit import UNDEFINED, format_cell, sanitize, write_csv, write_json
from rydsag.errors import InvalidParameterError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def reference_csv(path, header, columns):
    """The per-row writer that the block writer replaced: one '%.9g' /
    '%s' template applied to each row of Python values."""
    specs, values = [], []
    for column in columns:
        array = np.asarray(column)
        if array.dtype.kind == "f":
            specs.append("%.9g")
            values.append(array.tolist())
        else:
            specs.append("%s")
            values.append([format_cell(value) for value in array.tolist()])
    template = ",".join(specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(format_cell(name) for name in header) + "\n")
        handle.writelines(map(template.__mod__, zip(*values)))
    return path


def assert_matches_reference(directory, header, columns):
    written = write_csv(directory / "block.csv", header, columns)
    reference = reference_csv(directory / "reference.csv", header, columns)
    assert written.read_bytes() == reference.read_bytes()


def float_bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


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


@given(st.integers(min_value=0, max_value=2**64 - 1))
@example(float_bits(0.0))
@example(float_bits(-0.0))
@example(float_bits(5e-324))
@example(float_bits(1.7976931348623157e308))
@example(float_bits(0.5))
@example(float_bits(2.5))
@example(float_bits(123456789.5))
@example(float_bits(999999999.5))
@example(float_bits(99999999.95))
@example(float_bits(9.9999999995e-5))
@example(float_bits(1e-5))
@example(float_bits(1e-4))
@example(float_bits(1e22))
@example(float_bits(1e23))
@example(float_bits(math.nextafter(1e9, 0.0)))
@example(float_bits(math.nextafter(1e9, math.inf)))
@example(float_bits(math.nextafter(1e-4, 0.0)))
@example(float_bits(math.nextafter(1e-4, math.inf)))
@example(float_bits(1.770842505e-12))
@example(float_bits(9494954.215))
@example(float_bits(3.131294555e27))
def test_write_csv_float_is_percent_9g(tmp_path_factory, bits):
    # every double, from its raw bit pattern: NaN payloads, subnormals,
    # both zeros, ties and the carry across a power of ten
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    path = write_csv(tmp_path_factory.mktemp("bits") / "one.csv", ["x"], [np.array([x])])
    assert path.read_bytes() == ("x\n" + "%.9g\n" % x).encode("ascii")


def test_write_csv_random_bit_patterns_match_reference(tmp_path):
    # four 50 000-row columns span several blocks; the fifth holds decimal
    # ties m.mmmmmmmm5eE, whose nearest doubles often scale to exactly .5
    rng = np.random.default_rng(20261018)
    rows = 50_000
    bits = rng.integers(0, 2**64, size=(4, rows), dtype=np.uint64, endpoint=False)
    ties = [
        float(f"{m}5e{e}")
        for m, e in zip(rng.integers(10**8, 10**9, rows), rng.integers(-23, 22, rows))
    ]
    columns = [*bits.view(np.float64), ties]
    assert_matches_reference(tmp_path, ["a", "b", "c", "d", "ties"], columns)


def test_write_csv_other_float_widths_match_reference(tmp_path):
    rng = np.random.default_rng(7)
    rows = 3000
    half = rng.integers(0, 2**16, rows, dtype=np.uint16).view(np.float16)
    single = rng.integers(0, 2**32, rows, dtype=np.uint32).view(np.float32)
    extended = rng.standard_normal(rows).astype(np.longdouble) / 3
    # beyond the double range on both sides, and a third to round
    extended[:3] = [np.longdouble("1e400"), np.longdouble("-1e-400"), np.longdouble(1) / 3]
    columns = [half, single, extended]
    assert_matches_reference(tmp_path, ["half", "single", "long"], columns)


class _RowsRead(np.ndarray):
    """A layout table that notes the rows read from it."""

    def __getitem__(self, index):
        self.rows.update(np.asarray(index).ravel().tolist())
        return np.asarray(self)[index]


def test_write_csv_walks_every_row_of_the_float_layout(tmp_path, monkeypatch):
    # two values per row of the layout table, whose shift and mask tables
    # share its rows: each decimal exponent -14..31, 1 to 9 kept digits and
    # both signs, with the digits 1..9 and with random ones (last kept
    # digit nonzero); then ±0, the carry of 9.999999999e30 into the top
    # exponent and values just below the range, which '%.9g' itself writes
    layout = emit._float_layout()
    shift = layout.shift.view(_RowsRead)
    shift.rows = set()
    spied = types.SimpleNamespace(**{**vars(layout), "shift": shift})
    monkeypatch.setattr(emit, "_float_layout", lambda: spied)
    rng = np.random.default_rng(31)
    values = []
    for exponent in range(emit._EXP_LO, emit._EXP_HI + 1):
        for kept in range(1, 10):
            random = str(rng.integers(10 ** (kept - 1), 10**kept))
            for digits in ("123456789"[:kept], random[:-1] + random[-1].replace("0", "7")):
                for sign in ("", "-"):
                    values.append(float(f"{sign}{digits}e{exponent - kept + 1}"))
    values += [0.0, -0.0, 9.999999999e30, -9.999999999e30, 1.5e-15, -9.9999999996e-15]
    path = write_csv(tmp_path / "layout.csv", ["x"], [np.array(values)])
    assert path.read_bytes() == ("x\n" + "".join("%.9g\n" % x for x in values)).encode()
    # the fast path reaches every row but those of the top exponent with 2
    # or more digits: only a carry from below lands there, with m = 1e8
    top = (emit._EXP_HI - emit._EXP_LO) * 18
    assert shift.rows == set(range(layout.const.size)) - set(range(top + 2, top + 18))


def test_csv_block_of_three_float_columns_peaks_below_three_megabytes():
    # the columns are formatted straight into the block's byte table, which
    # is copied to bytes and compacted by deleting its 0xFF pad once the
    # table is freed; a table per column and a 16-byte int64 gather index
    # per cell made it 4.6 MB
    rows = BLOCK
    rng = np.random.default_rng(5)
    block = [np.arange(rows) / 1.0e4, 1.0e-3 * rng.standard_normal(rows),
             rng.standard_normal(rows)]
    emit._csv_rows(block)
    tracemalloc.start()
    try:
        emit._csv_rows(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6


def test_write_csv_zero_rows_is_header_only(tmp_path):
    path = write_csv(tmp_path / "empty.csv", ["a", "b"], [np.zeros(0), []])
    assert path.read_bytes() == b"a,b\n"


def test_write_csv_string_cells_keep_nul_and_utf8(tmp_path):
    text = ["a\x00b", "\x00", "é", "", "trailing\x00"]
    floats = [0.25, -1e-300, math.nan, 1e300, 7.0]
    header = ["i", "s", "f"]
    # the list goes to the block writer as it is; the reference gets the
    # object array that keeps its trailing NULs
    written = write_csv(tmp_path / "block.csv", header, [np.arange(5), text, floats])
    reference = reference_csv(
        tmp_path / "reference.csv", header, [np.arange(5), text_column(text), floats])
    data = written.read_bytes()
    assert data == reference.read_bytes()
    for cell in text:
        assert f",{cell},".encode() in data


def text_column(cells):
    """A string column as an object array: a str array would drop trailing NULs."""
    return np.array(cells, dtype=object)


# any text a CSV cell may hold: no separator, quote, line break or surrogate
CSV_TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters=',"\r\n'))
EDGE_CELLS = ["\x00", "end\x00", "\u00ff", "\U0010ffff", ""]


@st.composite
def mixed_columns(draw):
    rows = draw(st.integers(min_value=1, max_value=30))
    kinds = draw(st.lists(st.sampled_from(["float", "text"]), min_size=1, max_size=5))
    return [
        text_column(draw(st.lists(CSV_TEXT, min_size=rows, max_size=rows)))
        if kind == "text"
        else np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)))
        for kind in kinds
    ]


@given(mixed_columns())
@example([text_column(["\x00"]), np.array([1.5])])
@example([np.array([-0.0, 2.0]), text_column(["trailing\x00", "\x00\x00"])])
@example([text_column(["\u00ff"]), np.array([math.nan]), text_column(["\u00ff\u00ff"])])
@example([text_column(["\U0010ffff", "a\U0010ffff"]), np.array([1e300, 5e-324])])
@example([text_column(["", ""]), np.array([0.25, -7.0]), text_column([""] * 2)])
@example(
    [
        np.arange(BLOCK + 1) / 7.0,
        text_column((EDGE_CELLS * (BLOCK // len(EDGE_CELLS) + 1))[: BLOCK + 1]),
    ]
)
def test_write_csv_mixed_float_and_text_columns_match_reference(tmp_path_factory, columns):
    # a pad byte sits between each cell's text and its separator; no text
    # cell, NULs and U+00FF included, may lose or gain a byte to it
    header = [f"c{index}" for index in range(len(columns))]
    assert_matches_reference(tmp_path_factory.mktemp("mixed"), header, columns)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_config_csv_bytes_match_reference(config, tmp_path, monkeypatch):
    # every CSV a shipped config writes, rewritten by the per-row writer
    calls = []

    def spy(path, header, columns):
        calls.append((path, header, columns))
        return write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", spy)
    out_dir = tmp_path / "out"
    assert cli.main(["simulate", str(config), "--output-dir", str(out_dir)]) == 0
    written = sorted(path.name for path in out_dir.glob("*.csv"))
    assert written == sorted(Path(path).name for path, _, _ in calls)
    for path, header, columns in calls:
        reference = reference_csv(tmp_path / "reference.csv", header, columns)
        assert Path(path).read_bytes() == reference.read_bytes()


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
