"""The table writer: cell text and the CSV and JSON forms of one table."""

from __future__ import annotations

import json
import math

import numpy as np

from scanalytics.artifacts import write_table

HEADER = ["name", "count", "value"]
ROWS = [
    ("a", 3, 1 / 3),
    ("b", 12345678901, 2.0),
    ("c", -1, math.nan),
    ("d,e", 0, np.float64(1e-12)),
    ("f", True, 123456789012.5),
]
TEXT = [
    ["a", "3", "0.3333333333"],
    ["b", "12345678901", "2"],
    ["c", "-1", "xxx"],
    ["d,e", "0", "1e-12"],
    ["f", "True", "1.23456789e+11"],
]


def test_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, ROWS)
    lines = ["name,count,value"] + [",".join(f'"{c}"' if "," in c else c for c in row) for row in TEXT]
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode("utf-8")


def test_json_cells(tmp_path):
    path = tmp_path / "t.json"
    write_table(path, HEADER, iter(ROWS))
    expected = [dict(zip(HEADER, row)) for row in TEXT]
    assert path.read_text(encoding="utf-8") == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_empty_table(tmp_path):
    write_table(tmp_path / "t.csv", HEADER, [])
    write_table(tmp_path / "t.json", HEADER, [])
    assert (tmp_path / "t.csv").read_bytes() == b"name,count,value\r\n"
    assert (tmp_path / "t.json").read_text() == "[]\n"
