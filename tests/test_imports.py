"""Every module of the package uses each name it imports, imports nothing
outside the standard library and itself, and reads no other module's
underscore names, every function reads each of its parameters, every
public name is read or documented, every underscore name a module defines
is read by that module, the lower-bound module uses no float, and every
module parses under the oldest Python that pyproject.toml admits."""

import ast
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asymcover"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# pyproject.toml's requires-python, as the (major, minor) that ast.parse checks against
OLDEST_PYTHON = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")
).groups()))


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


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter its function (or lambda) never reads;
    a read inside a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{p.arg} (line {node.lineno})" for p in params if p.arg not in read]
    return sorted(found)


def global_reads(source: str, skip: str = "") -> set[str]:
    """Names the module reads as module globals, annotations included.

    A function's own locals and closure variables are not global reads, so a
    local that shares a public name's spelling does not count as reading it.
    The body of a top-level function or class named `skip` is left out.
    """
    reads = set()
    module = symtable.symtable(source, "module", "exec")
    tables = [module]
    while tables:
        table = tables.pop()
        tables += [t for t in table.get_children() if table is not module or t.get_name() != skip]
        reads |= {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for node in ast.walk(ast.parse(source)):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if note is not None:
                reads |= {n.id for n in ast.walk(note) if isinstance(n, ast.Name)}
    return reads


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Top-level functions, classes and constants, each with its line."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return names


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants whose names have no underscore prefix."""
    return [name for name, _ in definitions(tree) if not name.startswith("_")]


def unread_private_names(source: str) -> list[str]:
    """Each top-level function, class or constant with an underscore name that
    its module never reads; reads inside its own body do not count."""
    return sorted(
        f"{name} (line {line})"
        for name, line in definitions(ast.parse(source))
        if name.startswith("_") and not name.startswith("__")
        and name not in global_reads(source, skip=name)
    )


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


def float_uses(source: str) -> list[str]:
    """Each float the source can make: a float literal, the name `float`, a true
    division `/`, or `math.floor` / `math.inf`, read as an attribute or imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"float (line {node.lineno})")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"/ (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in ("floor", "inf")
        ):
            found.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"math.{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in ("floor", "inf")
            ]
    return sorted(found)


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


def test_guard_sees_an_unread_parameter():
    source = (
        "def lift(n, R, lower, *rest, cap=3, **extra):\n"
        "    def inner():\n        return lower + cap\n"
        "    return inner() + n + len(rest)\n\n\n"
        "class Box:\n    def size(self, unit):\n        return self\n\n\n"
        "pick = lambda a, b: a\n"
    )
    assert unread_parameters(source) == [
        "<lambda>.b (line 12)", "lift.R (line 1)", "lift.extra (line 1)", "size.unit (line 8)",
    ]


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


def test_guard_sees_an_unread_private_name():
    source = (
        "import functools\n\n_CAP = 3\n_SPARE = 1\n_Pair = tuple\n__all__ = ['go']\n\n\n"
        "@functools.cache\ndef _tables(h):\n    return [h] * _CAP\n\n\n"
        "def _walk(v):\n    return _walk(v - 1) if v else 0\n\n\n"
        "class _Box:\n    def copy(self) -> '_Box':\n        return _Box()\n\n\n"
        "def go(h) -> _Pair:\n    _SPARE = h\n    return _tables(_SPARE)\n"
    )
    assert unread_private_names(source) == ["_Box (line 18)", "_SPARE (line 4)", "_walk (line 14)"]


def test_guard_sees_a_float():
    source = (
        "import math\nfrom math import inf, gcd\n\n\n"
        "def price(y: list[float], D: int) -> int:\n"
        "    best = 1e-12\n    best /= D\n"
        "    return math.floor(y[0] * D) + float(D) + gcd(D, 2) / 3 + math.inf + D // 2\n"
    )
    assert float_uses(source) == [
        "/ (line 7)", "/ (line 8)", "1e-12 (line 6)", "float (line 5)", "float (line 8)",
        "math.floor (line 8)", "math.inf (line 2)", "math.inf (line 8)",
    ]


def test_guard_sees_syntax_newer_than_the_oldest_python():
    assert OLDEST_PYTHON == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_parses_under_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_every_public_name_is_read_or_documented():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_public_names(sources, readme) == []


def test_lower_bound_module_uses_no_float():
    assert float_uses((PACKAGE / "ipsolve.py").read_text(encoding="utf-8")) == []


def test_cli_import_leaves_openssl_unloaded():
    # hashlib loads OpenSSL; only the power2 construction needs it, and imports it itself
    probe = "import sys, asymcover.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
