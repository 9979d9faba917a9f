"""Deterministic table / JSON emission shared by the command-line tools.

Every file starts with a comment line carrying the tool version, a hash of
the resolved run configuration, and a slug naming the quantity stored, so
any output can be traced back to the exact invocation that produced it.
A table is given column-major, as its column names and a sequence of
equal-length columns, and written as CSV, or with ``names=None`` as gnuplot
data: space-separated, no column line.  Float columns (a float64 array, or
cells that are all floats) hold 17 significant digits (value-preserving for
IEEE doubles), text columns their strings, any other column the ``fmt`` of
each cell (``None`` is empty).  JSON is UTF-8 with sorted keys.

The configuration hash is the first 16 hex digits of SHA-256, taken from
CPython's builtin module (``_sha2`` on 3.12+, ``_sha256`` before), so no
command loads ``hashlib`` and, with it, OpenSSL's libcrypto; ``hashlib``
serves only an interpreter built without that module.  The digest is the
same either way.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import __version__

try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str).encode("utf-8")
    return _sha256(blob).hexdigest()[:16]


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"  # "nan", "inf" and "-inf" when not finite
    return "" if x is None else str(x)


def _save(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _cells(column):
    """A column's cells and their ``%`` template: a float64 array or a column of
    floats ``%.17g``, a column of strings as it is, else the ``fmt`` of each cell."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return column.tolist(), "%.17g"
    column = list(column)
    if all(isinstance(v, float) for v in column):
        return column, "%.17g"
    if all(isinstance(v, str) for v in column):
        return column, "%s"
    return list(map(fmt, column)), "%s"


def _write_table(path, comment, names, columns) -> Path:
    """Write ``columns`` side by side under a ``# comment`` line, if any; a
    column count other than ``len(names)`` or columns of unequal length raise."""
    columns = [_cells(c) for c in columns]
    if names is not None and len(columns) != len(names):
        raise ValueError(f"{path} must hold {len(names)} columns")
    n = len(columns[0][0]) if columns else 0
    if any(len(cells) != n for cells, _ in columns):
        raise ValueError(f"every column of {path} must hold {n} cells")
    width = len(columns)
    table = [None] * (n * width)  # row-major, one template for the whole body
    for j, (cells, _) in enumerate(columns):
        table[j::width] = cells
    head = f"# {comment}\n" if comment else ""
    if names is not None:
        head += ",".join(names) + "\n"
    line = (" " if names is None else ",").join(spec for _, spec in columns) + "\n"
    return _save(path, head + line * n % tuple(table))


def write_csv(path, cfg_hash: str, quantity: str, names, columns):
    header = f"hadamard-ineq v{__version__} config={cfg_hash} quantity={quantity}"
    return _write_table(path, header, names, columns)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "tolist"):
        return _jsonable(x.tolist())
    if isinstance(x, float) and not math.isfinite(x):
        return fmt(x)
    return x


def write_json(path, cfg_hash: str, quantity: str, payload: dict):
    doc = {"meta": {"tool": "hadamard-ineq", "version": __version__,
                    "config": cfg_hash, "quantity": quantity}}
    doc.update(_jsonable(payload))
    return _save(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
