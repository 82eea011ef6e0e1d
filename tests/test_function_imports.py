"""No module of the package imports inside a function: its dependencies
are loaded once, at import, where a reader looks for them.  The two
exceptions are regions' scipy imports.  scipy.spatial is slow to load and
only the exact volume needs it, so commands that never compute one (a
phase scan, a trace) do not load it; and perfbench/tracer.py patches
scipy.spatial.ConvexHull, which regions sees only if it looks the class
up at call time."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isochron"

#: (module file, function, imported module) of the allowed imports.
ALLOWED = {
    ("regions.py", "_fan_volume", "scipy.spatial"),
    ("regions.py", "_volume_exact", "scipy.spatial"),
}


def function_imports(source: str) -> list[tuple[str, str]]:
    """(function, imported module) of every import inside a function of
    source, sorted; a relative import keeps its leading dots."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                found += [(func.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                found.append((func.name, "." * node.level + (node.module or "")))
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    found = function_imports(path.read_text())
    assert [f for f in found if (path.name, *f) not in ALLOWED] == []


def test_the_allowed_imports_are_still_there():
    source = (PACKAGE / "regions.py").read_text()
    assert {("regions.py", *f) for f in function_imports(source)} == ALLOWED


def test_the_guard_sees_an_import_inside_a_function():
    source = "\n".join(
        [
            "import math",
            "def f():",
            "    import numpy as np",
            "    def g():",
            "        from .lockstep import _decode",
            "    return np",
            "class C:",
            "    def m(self):",
            "        from . import engine",
        ]
    )
    assert function_imports(source) == [
        ("f", ".lockstep"),
        ("f", "numpy"),
        ("g", ".lockstep"),
        ("m", "."),
    ]
