import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hadamard_ineq import __version__, report_io

HEADER = f"# hadamard-ineq v{__version__} config=0123456789abcdef quantity=pin\n"


def test_csv_bytes(tmp_path):
    columns = [(0.1, math.inf, math.nan),
               (np.float64(1.0 / 3.0), -math.inf, -0.0),
               ("at_infinity", None, 5e-324),
               (7, True, False)]
    path = report_io.write_csv(tmp_path / "pin.csv", "0123456789abcdef", "pin",
                               ("x", "y", "label", "n"), iter(columns))
    assert path.read_bytes() == (HEADER + "x,y,label,n\n"
                                 "0.10000000000000001,0.33333333333333331,at_infinity,7\n"
                                 "inf,-inf,,True\n"
                                 "nan,-0,4.9406564584124654e-324,False\n").encode()


def test_gnuplot_layout_bytes(tmp_path):
    # no column names: space-separated rows and no column line
    columns = (np.array([2.5e-310, 1e300, -math.inf]), [-0.0, math.nan, 3])
    path = report_io.write_csv(tmp_path / "pin.gnuplot.dat", "0123456789abcdef", "pin",
                               None, columns)
    assert path.read_bytes() == (HEADER + "2.5000000000000171e-310 -0\n"
                                 "1.0000000000000001e+300 nan\n"
                                 "-inf 3\n").encode()


@pytest.mark.parametrize("columns, rows", [
    (("a", "b"), [(1.0, 2.0), (3.0,)]),
    (("a", "b"), [(1.0, 2.0), (3.0, 4.0, 5.0)]),
    (None, [(1.0, 2.0), (3.0,)]),
    (None, [(1.0,), (2.0, 3.0)]),
], ids=["csv_short", "csv_long", "gnuplot_short", "gnuplot_long"])
def test_ragged_rows_are_refused(tmp_path, columns, rows):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match="must hold"):
        report_io.write_csv(path, "0123456789abcdef", "pin", columns, rows)
    assert not path.exists()


def test_text_columns_are_written_without_fmt(tmp_path, monkeypatch):
    # a column of strings (a pme snapshot's preformatted radii) is written as
    # it is; a mixed column (sweep's r_bar) still goes through fmt cell by cell
    calls = []
    fmt = report_io.fmt
    monkeypatch.setattr(report_io, "fmt", lambda x: calls.append(x) or fmt(x))
    path = report_io.write_csv(tmp_path / "text.csv", "0123456789abcdef", "pin",
                               ("r", "u"), [("0.5", "1.5"), (1.0, 0.25)])
    assert calls == []
    assert path.read_bytes() == (HEADER + "r,u\n0.5,1\n1.5,0.25\n").encode()
    path = report_io.write_csv(tmp_path / "mixed.csv", "0123456789abcdef", "pin",
                               ("r_bar",), [("at_infinity", 0.1)])
    assert calls == ["at_infinity", 0.1]
    assert path.read_bytes() == (HEADER + "r_bar\nat_infinity\n0.10000000000000001\n").encode()


def test_float64_array_columns_are_written_without_fmt(tmp_path, monkeypatch):
    calls = []
    fmt = report_io.fmt
    monkeypatch.setattr(report_io, "fmt", lambda x: calls.append(x) or fmt(x))
    path = report_io.write_csv(tmp_path / "f64.csv", "0123456789abcdef", "pin",
                               ("r", "u"), (np.array([0.0, 0.1]), np.array([-0.0, math.inf])))
    assert calls == []
    assert path.read_bytes() == (HEADER + "r,u\n0,-0\n0.10000000000000001,inf\n").encode()


def test_other_array_columns_keep_the_cell_rule(tmp_path):
    # float32, int64 and bool scalars are not Python floats, so each cell is
    # fmt'ed (str); an object array is judged by its cells like a list
    columns = (np.array([0.1, 1.5, -2.0], dtype=np.float32),
               np.array([7, -3, 0], dtype=np.int64),
               np.array([True, False, True]),
               np.array([0.1, -0.0, math.inf], dtype=object),
               np.array([0.25, "x", None], dtype=object))
    path = report_io.write_csv(tmp_path / "arrays.csv", "0123456789abcdef", "pin",
                               ("f32", "i64", "b", "of", "om"), columns)
    assert path.read_bytes() == (HEADER + "f32,i64,b,of,om\n"
                                 "0.1,7,True,0.10000000000000001,0.25\n"
                                 "1.5,-3,False,-0,x\n"
                                 "-2.0,0,True,inf,\n").encode()


def test_a_column_count_other_than_the_names_is_refused(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError, match="must hold 2 columns"):
        report_io.write_csv(path, "0123456789abcdef", "pin", ("a", "b"), [(1.0, 2.0)])
    assert not path.exists()


def test_config_hash_is_sha256_of_the_sorted_json():
    non_ascii = {"profile": "power", "beta": 1.5, "out": Path("a/b"), "label": "ψ ∈ (0, ∞)",
                 "grid": [1, 2.5, None]}
    for params in ({}, non_ascii, {"tol": {"refine": 1e-3}, "seeds": list(range(500))}):
        blob = json.dumps(params, sort_keys=True, default=str).encode("utf-8")
        assert report_io.config_hash(params) == hashlib.sha256(blob).hexdigest()[:16]
    # the hash that the hashlib-based writer gave it
    assert report_io.config_hash(non_ascii) == "8fee8b4f926c66f3"


def test_builtin_sha256_is_hashlib_sha256():
    rng = np.random.default_rng(3)
    for blob in (b"", "ψ ∈ (0, ∞)".encode("utf-8"), bytes(64), rng.bytes(1 << 20)):
        assert report_io._sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()
