import json

import numpy as np
import pytest

from rydcav.datafiles import (
    canonical_json,
    config_hash,
    format_number,
    read_xy_csv,
    write_csv,
    write_json,
)


class TestDataFiles:
    def test_hash_stable_under_key_order(self):
        a = {"b": 1, "a": {"y": 2.0, "x": 3.0}}
        b = {"a": {"x": 3.0, "y": 2.0}, "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12

    def test_format_number_round_trip(self):
        for v in (0.1, 1.0 / 3.0, 1e-300, -42.5, float("nan")):
            s = format_number(v)
            if v == v:
                assert float(s) == v
            else:
                assert s == "nan"
        assert format_number(7) == format_number(np.int64(7)) == "7"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [(0.5, 1.0 / 7.0), (1.5, 2.0 / 7.0)]
        write_csv(path, "x,y", rows, meta={"seed": 3})
        x, y, w = read_xy_csv(path)
        np.testing.assert_array_equal(x, [0.5, 1.5])
        np.testing.assert_array_equal(y, [1.0 / 7.0, 2.0 / 7.0])
        assert w is None
        text = path.read_text()
        assert text.startswith("# rydcav ")
        assert "# seed=3" in text
        assert text.endswith("\n")

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

    def test_only_the_first_line_may_be_a_header(self, tmp_path):
        path = tmp_path / "two_headers.csv"
        path.write_text("# c\nx,y\nx_unit,y_unit\n1.0,2.0\n")
        with pytest.raises(ValueError, match=f"{path}:3"):
            read_xy_csv(path)
        path.write_text("# c\n\n1.0,2.0\nx,y\n")
        with pytest.raises(ValueError, match=f"{path}:4"):
            read_xy_csv(path)
