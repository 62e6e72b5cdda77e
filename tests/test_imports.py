"""Every module of the package uses each name it imports, imports nothing
outside the standard library and itself, and reads no other module's
underscore names, and every public name is read or documented."""

import ast
import re
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asymcover"
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


def foreign_imports(source: str) -> list[str]:
    """Imported modules that are neither in the standard library nor the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import stays inside the package
        found += [
            f"{name} (line {node.lineno})"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {PACKAGE.name}
        ]
    return sorted(found)


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


def global_reads(source: str) -> set[str]:
    """Names the module reads as module globals, annotations included.

    A function's own locals and closure variables are not global reads, so a
    local that shares a public name's spelling does not count as reading it.
    """
    reads = set()
    tables = [symtable.symtable(source, "module", "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        reads |= {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for node in ast.walk(ast.parse(source)):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if note is not None:
                reads |= {n.id for n in ast.walk(note) if isinstance(n, ast.Name)}
    return reads


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants whose names have no underscore prefix."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def unread_public_names(sources: dict[str, str], readme: str) -> list[str]:
    """`module.name` for each public name that no module reads and README's code
    spans do not name; a definition is not a read of itself."""
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", readme))))
    reads = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        origin = {}  # bound name -> (module, name), or (module, None) for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    origin[bound] = (node.module, alias.name) if node.module else (alias.name, None)
        reads |= {origin.get(name, (module, name)) for name in global_reads(source)}
        reads |= {
            (origin[node.value.id][0], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and origin.get(node.value.id, ("", ""))[1] is None
        }
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in public_definitions(ast.parse(source))
        if (module, name) not in reads and name not in documented
    )


def test_guard_sees_an_unused_import():
    source = "from .cube import Code, weight\nimport os\n\nweight(Code)\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_guard_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport math, numpy as np\n"
        "from scipy.optimize import linprog\nfrom . import cube\n"
        "from asymcover.ipsolve import lp_prices\nfrom fractions import Fraction\n"
    )
    assert foreign_imports(source) == ["numpy (line 2)", "scipy.optimize (line 3)"]


def test_guard_sees_a_private_read():
    source = (
        "from . import ipsolve\nfrom .cube import _step, weight\n\n"
        "dual = ipsolve._dual_vector(ipsolve.IPSolution)\n"
        "x = _step(weight.__name__)\n"
    )
    assert private_reads(source) == ["cube._step (line 2)", "ipsolve._dual_vector (line 4)"]


def test_guard_sees_an_unread_public_name():
    sources = {
        "cube": "LIMIT = 3\n\n\ndef dominated(x, c):\n    return x & c == x\n\n\n"
        "def weight(v):\n    return v\n\n\nclass Code:\n    pass\n",
        "exact": "from .cube import Code, weight as w\n\n\ndef search(v) -> Code:\n"
        "    dominated = w(v) > 0\n    return dominated\n",
        "bounds": "from . import cube\n\nCAP = cube.LIMIT\nSPARE = 1\n",
    }
    readme = "Call `search` on ```python\nac.CAP\n``` and ignore SPARE."
    assert unread_public_names(sources, readme) == ["bounds.SPARE", "cube.dominated"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_every_public_name_is_read_or_documented():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_public_names(sources, readme) == []
