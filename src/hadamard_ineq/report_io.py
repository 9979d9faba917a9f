"""Deterministic table / JSON emission shared by the command-line tools.

Every file starts with a comment line carrying the tool version, a hash of
the resolved run configuration, and a slug naming the quantity stored, so
any output can be traced back to the exact invocation that produced it.
A table is CSV, or with ``columns=None`` gnuplot data: space-separated, no
column line.  Float columns hold 17 significant digits (value-preserving
for IEEE doubles), text columns their strings, any other column the ``fmt``
of each cell (``None`` is empty).  JSON is UTF-8 with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from . import __version__


def config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"  # "nan", "inf" and "-inf" when not finite
    return "" if x is None else str(x)


def _save(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _write_table(path, comment, columns, rows) -> Path:
    """Write ``rows`` under a ``# comment`` line, if any; a ragged row raises."""
    rows = [tuple(row) for row in rows]
    width = len(columns if columns is not None else rows[0] if rows else ())
    if any(len(row) != width for row in rows):
        raise ValueError(f"every row of {path} must hold {width} cells")
    cells = [v for row in rows for v in row]
    specs = []
    for j in range(width):  # "%.17g" for floats, text as it is, else the fmt of each cell
        floats = all(isinstance(v, float) for v in cells[j::width])
        if not floats and not all(isinstance(v, str) for v in cells[j::width]):
            cells[j::width] = map(fmt, cells[j::width])
        specs.append("%.17g" if floats else "%s")
    head = f"# {comment}\n" if comment else ""
    if columns is not None:
        head += ",".join(columns) + "\n"
    line = (" " if columns is None else ",").join(specs) + "\n"
    return _save(path, head + line * len(rows) % tuple(cells))


def write_csv(path, cfg_hash: str, quantity: str, columns, rows):
    header = f"hadamard-ineq v{__version__} config={cfg_hash} quantity={quantity}"
    return _write_table(path, header, columns, rows)


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
