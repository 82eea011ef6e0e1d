"""Every module-level name of the package is used somewhere in it.  No
linter runs here, so this guard catches the constants, helpers and classes
a refactor leaves behind.  A name counts as used where any module of the
package loads it, imports it or reads it as an attribute; names listed in
an __all__ are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isochron"


def defined(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level, other than by import."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def used(tree: ast.Module) -> set[str]:
    """The names a module loads, imports or reads as attributes, and the
    names its __all__ lists."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {ast.literal_eval(elt) for elt in node.value.elts}
    return names


def dead_names(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level name of sources (module -> source)
    that no module uses, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = set().union(*map(used, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in defined(tree)
        if name not in everywhere
    )


def test_every_module_level_name_is_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(sources) == []


@pytest.mark.parametrize(
    "b_source, dead",
    [
        ("from .a import helper\nhelper()", ["a.CONSTANT", "a._Unused"]),
        ("from . import a\na.helper(a.CONSTANT)", ["a._Unused"]),
        ("__all__ = ['CONSTANT', '_Unused', 'helper']", []),
    ],
)
def test_the_guard_sees_a_dead_name(b_source, dead):
    a_source = "\n".join(
        [
            "import math",
            "CONSTANT: int = 3",
            "__version__ = '1'",
            "class _Unused:",
            "    pass",
            "def helper():",
            "    return math.pi",
        ]
    )
    assert dead_names({"a": a_source, "b": b_source}) == dead
