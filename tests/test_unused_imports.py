"""No module of the package imports a name it never uses.  No linter runs
here, so this guard catches the imports a refactor leaves behind.  Names
listed in __all__ and lines marked ``# noqa: F401`` (bindings kept for
perfbench/tracer.py to patch) are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isochron"


def unused_imports(source: str) -> list[str]:
    """The names source imports and never uses, sorted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported: set[str] = set()
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {ast.literal_eval(elt) for elt in node.value.elts}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import math",
            "import numpy as np",
            "from os import (",
            "    path,  # noqa: F401  (bound for a patcher)",
            "    sep,",
            ")",
            "from .engine import Engine, NetworkState",
            "__all__ = ['NetworkState']",
            "def f(x: np.ndarray) -> float:",
            "    return math.pi",
        ]
    )
    assert unused_imports(source) == ["Engine", "sep"]
