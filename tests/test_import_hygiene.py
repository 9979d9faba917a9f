"""Static import hygiene of the package, read with ``ast``: every name in a
module's ``__all__`` exists, and no module but ``__init__`` (which re-exports)
imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hadamard_ineq"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_exported_name_exists(path):
    tree = _tree(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(_bound_names(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    for names in exported:
        assert sorted(set(names) - defined) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=[p.stem for p in MODULES if p.stem != "__init__"])
def test_no_module_imports_a_name_it_never_uses(path):
    tree = _tree(path)
    imported = {name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
