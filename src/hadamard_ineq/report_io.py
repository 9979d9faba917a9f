"""Deterministic CSV / JSON emission shared by the command-line tools.

Every file starts with a comment line carrying the tool version, a hash of
the resolved run configuration, and a slug naming the quantity stored, so
any output can be traced back to the exact invocation that produced it.
CSV cells hold numbers at 17 significant digits (value-preserving for IEEE
doubles); JSON is UTF-8 with sorted keys.
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


def header_line(cfg_hash: str, quantity: str) -> str:
    return f"hadamard-ineq v{__version__} config={cfg_hash} quantity={quantity}"


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"  # "nan", "inf" and "-inf" when not finite
    return "" if x is None else str(x)


def write_csv(path, cfg_hash: str, quantity: str, columns, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# {header_line(cfg_hash, quantity)}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")
    return path


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": {"tool": "hadamard-ineq", "version": __version__,
                    "config": cfg_hash, "quantity": quantity}}
    doc.update(_jsonable(payload))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
    return path


def write_gnuplot(path, cfg_hash: str, quantity: str, x, y):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(f"# {header_line(cfg_hash, quantity)}\n")
        for a, b in zip(x, y):
            f.write(f"{fmt(float(a))} {fmt(float(b))}\n")
    return path
