"""Source hygiene: no module under src/periproj imports a name it never
uses, no private definition there is left without a reference, and every
public backend method has a caller there."""

import ast
import inspect
from pathlib import Path

import pytest

import periproj
from periproj import BfsBackend, ConedOffBackend, ExactBackend

SRC = Path(periproj.__file__).resolve().parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_unreferenced_private_definitions():
    # a private function, method or class whose last caller is gone
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert [f"{name} ({where})" for name, where in defined.items() if name not in referenced] == []


def test_backend_methods_called_from_src():
    # the metric interface is what the suites call: a backend method that
    # only tests reach is a row every backend must answer for nothing
    referenced = {
        node.attr
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    uncalled = [
        f"{cls.__name__}.{name}"
        for cls in (ExactBackend, BfsBackend, ConedOffBackend)
        for name, v in vars(cls).items()
        if inspect.isfunction(v) and name[0] != "_" and name not in referenced
    ]
    assert uncalled == []
