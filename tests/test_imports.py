"""Every module of the package uses each name it imports, and reads no other
module's underscore names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asymcover"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )


def private_reads(source: str) -> list[str]:
    """Underscore names read from another module: `mod._x` or `from .mod import _x`."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [
                f"{node.module or ''}.{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name.startswith("_")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(found)


def test_guard_sees_an_unused_import():
    source = "from .cube import Code, weight\nimport os\n\nweight(Code)\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_guard_sees_a_private_read():
    source = (
        "from . import ipsolve\nfrom .cube import _step, weight\n\n"
        "dual = ipsolve._dual_vector(ipsolve.CoveringIP)\n"
        "x = _step(weight.__name__)\n"
    )
    assert private_reads(source) == ["cube._step (line 2)", "ipsolve._dual_vector (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []
