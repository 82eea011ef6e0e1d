"""No module of the package imports a private module or name of another
package: an underscore-prefixed name may change or go in any release of
its owner.  The one exception is numpy.linalg._umath_linalg in regions,
the gufunc behind np.linalg.solve, which the vertex enumeration calls
directly so that a singular system comes back as a row of NaN instead of
a LinAlgError for the whole stack."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isochron"

#: (module file, imported module or name) of the allowed private imports.
ALLOWED = {("regions.py", "numpy.linalg._umath_linalg")}


def _private(name: str) -> bool:
    """Underscore-prefixed, but not a dunder such as __future__."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """The dotted name of every absolute import in source that names an
    underscore-prefixed module or name, sorted; relative imports (the
    package's own modules) are not counted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if any(map(_private, a.name.split(".")))]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            inner = any(map(_private, node.module.split(".")))
            found += [f"{node.module}.{a.name}" for a in node.names if inner or _private(a.name)]
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import_from_another_package(path):
    found = private_imports(path.read_text())
    assert [name for name in found if (path.name, name) not in ALLOWED] == []


def test_the_allowed_import_is_still_there():
    found = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in private_imports(path.read_text())
    }
    assert found == ALLOWED


def test_the_guard_sees_a_private_import():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import numpy.linalg._umath_linalg",
            "from numpy.linalg import _umath_linalg as lin",
            "from scipy._lib import doccer",
            "from . import _serial",
            "from .lockstep import _decode",
            "def f():",
            "    from numpy import _core",
        ]
    )
    assert private_imports(source) == [
        "numpy._core",
        "numpy.linalg._umath_linalg",
        "scipy._lib.doccer",
    ]
