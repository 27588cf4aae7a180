import argparse
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import write_csv_rows
from rydcav.datafiles import (
    canonical_json,
    config_hash,
    read_xy_csv,
    write_csv,
    write_json,
)

#: signed zeros, NaN, infinities, subnormals and the ends of the range
_SPECIAL = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
            -2.5e-310, 1e300, -1e300)
_SPECIAL32 = tuple(float(np.float32(v)) for v in
                   (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-45,
                    -2.5e-40, 3e38, -3e38))
_ELEMENTS = {
    "float64": st.floats(allow_nan=False) | st.sampled_from(_SPECIAL),
    "float32": st.floats(width=32) | st.sampled_from(_SPECIAL32),
    "int64": st.integers(-2**63, 2**63 - 1),
    "int32": st.integers(-2**31, 2**31 - 1),
    "uint8": st.integers(0, 255),
    "bool": st.booleans(),
}


@st.composite
def _tables(draw, dtypes=st.sampled_from(sorted(_ELEMENTS)), min_rows=0,
            min_columns=1, max_columns=5):
    """A header and its columns of one length, each of one dtype."""
    nrows = draw(st.integers(min_rows, 12))
    kinds = draw(st.lists(dtypes, min_size=min_columns, max_size=max_columns))
    columns = [draw(hnp.arrays(np.dtype(kind), nrows, elements=_ELEMENTS[kind]))
               for kind in kinds]
    return ",".join(f"c{i}" for i in range(len(columns))), columns


class TestDataFiles:
    def test_hash_stable_under_key_order(self):
        a = {"b": 1, "a": {"y": 2.0, "x": 3.0}}
        b = {"a": {"x": 3.0, "y": 2.0}, "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12

    def test_numbers_round_trip_through_the_text(self, tmp_path):
        path = tmp_path / "out.csv"
        floats = [0.1, 1.0 / 3.0, 1e-300, -42.5, float("nan")]
        write_csv(path, "v,i,j",
                  (np.array(floats), [7] * 5, np.full(5, 7, dtype=np.int64)))
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "v,i,j"
        for line, v in zip(lines[1:], floats, strict=True):
            s, i, j = line.split(",")
            if v == v:
                assert float(s) == v
            else:
                assert s == "nan"
            assert i == j == "7"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        columns = ([0.5, 1.5], [1.0 / 7.0, 2.0 / 7.0])
        write_csv(path, "x,y", columns, meta={"seed": 3})
        x, y, w = read_xy_csv(path)
        np.testing.assert_array_equal(x, [0.5, 1.5])
        np.testing.assert_array_equal(y, [1.0 / 7.0, 2.0 / 7.0])
        assert w is None
        text = path.read_text()
        assert text.startswith("# rydcav ")
        assert "# seed=3" in text
        assert text.endswith("\n")

    @settings(max_examples=200, deadline=None)
    @given(table=_tables(), meta=st.sampled_from((None, {"seed": 3})))
    def test_columns_write_the_bytes_of_the_row_wise_writer(self, table, meta):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp:
            fast, rows = Path(tmp, "columns.csv"), Path(tmp, "rows.csv")
            write_csv(fast, header, columns, meta)
            write_csv_rows(rows, header, zip(*columns), meta)
            assert fast.read_bytes() == rows.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(table=_tables(dtypes=st.just("float64"), min_rows=1,
                         min_columns=2, max_columns=3))
    def test_float_columns_read_back_bit_for_bit(self, table):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "table.csv")
            write_csv(path, header, columns)
            back = read_xy_csv(path)
        if len(columns) == 2:
            assert back[2] is None
            back = back[:2]
        for got, want in zip(back, columns, strict=True):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("header, columns, lengths", [
        ("a,b", ([1, 2, 3], [0.5]), "[3, 1]"),       # zip would write 1,0.5
        ("a,b,c", ([1.5, 2.5],), "[2]"),             # one column, three names
        ("a", ([1.0], [2.0]), "[1, 1]"),
    ])
    def test_a_table_of_the_wrong_shape_is_refused(self, tmp_path, capsys, header,
                                                   columns, lengths):
        match = rf"{header.count(',') + 1} names.* lengths {re.escape(lengths)}"
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=match):
            write_csv(path, header, columns)
        assert not path.exists()
        with pytest.raises(ValueError, match=match):
            write_csv(None, header, columns)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_cli_table_of_the_wrong_shape_is_refused(self, tmp_path, fmt):
        # both branches of a table command's writer check the same shape
        from rydcav.cli import _emit_table

        path = tmp_path / f"out.{fmt}"
        with pytest.raises(ValueError, match=r"2 names.* lengths \[3, 1\]"):
            _emit_table(argparse.Namespace(format=fmt, out=path), "a,b",
                        (np.arange(3.0), np.array([0.5])), {})
        assert not path.exists()

    def test_write_json_meta(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"value": 1.5}, meta={"seed": 9})
        doc = json.loads(path.read_text())
        assert doc["value"] == 1.5
        assert doc["_meta"]["seed"] == 9

    def test_read_missing_data(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError):
            read_xy_csv(path)

    def test_malformed_data_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n2.0,abc\n3.0,4.0\n")
        with pytest.raises(ValueError, match=f"{path}:3"):
            read_xy_csv(path)

    @pytest.mark.parametrize("text", ["0.5,1.0,\n1.5,2.0\n2.5,3.0\n",
                                      "0.5;1.0\n1.5,2.0\n2.5,3.0\n"])
    def test_a_malformed_first_data_row_is_no_header(self, tmp_path, text):
        path = tmp_path / "headerless.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}:1: non-numeric"):
            read_xy_csv(path)

    def test_only_the_first_line_may_be_a_header(self, tmp_path):
        path = tmp_path / "two_headers.csv"
        path.write_text("# c\nx,y\nx_unit,y_unit\n1.0,2.0\n")
        with pytest.raises(ValueError, match=f"{path}:3"):
            read_xy_csv(path)
        path.write_text("# c\n\n1.0,2.0\nx,y\n")
        with pytest.raises(ValueError, match=f"{path}:4"):
            read_xy_csv(path)
