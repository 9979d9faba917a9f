"""List the statements of the package that the tier-1 tests never run.

Usage: python3 tools/line_trace.py [pytest args]

Run from the repository root.  Runs pytest in this process (with the tier-1
arguments ``-q --continue-on-collection-errors`` when none are given) under
``sys.settrace`` and ``threading.settrace``, tracing only the frames whose
code lies in ``src/hadamard_ineq``.  It then prints, file by file, every
statement that never ran, skipping def, class, import, global, nonlocal and
docstring statements, and exits with pytest's own status.

Tests that run the package in a subprocess are not traced, so what only
they reach is listed as never run.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hadamard_ineq"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path):
    """(first line, last header line) of each traced kind of statement.

    A statement ran if any line from its first to its last header line ran:
    the header of a compound statement ends before its first nested
    statement, and a simple statement's spans all its lines.
    """
    spans = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers")
                  for child in getattr(node, field, ()) or ()]
        last = min(nested) - 1 if nested else node.end_lineno
        spans.append((node.lineno, max(node.lineno, last)))
    return sorted(spans)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["-q", "--continue-on-collection-errors"]
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(scope)
    sys.settrace(scope)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        missed = [(a, b) for a, b in statements(path)
                  if not any(n in lines for n in range(a, b + 1))]
        total += len(missed)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} statements never ran")
            for a, _ in missed:
                print(f"  {a:5d}  {source[a - 1].strip()}")
    print(f"\n{total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
