"""No reduction, sort or 2-d nonzero in lockstep, poincare, sweep or
regions runs along the short last axis of the (rows, n) and (rows, width)
arrays they share.  numpy runs such a reduction as one inner loop per row, 10-30 times
the cost of the same reduction over the columns of a contiguous
transpose, which is what lockstep._by_row makes; lockstep._row_col splits
np.flatnonzero's indices in place of a 2-d np.nonzero.  The exceptions
are listed with their reasons."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isochron"

#: The modules that work on row arrays, by file name.
GUARDED = ("lockstep.py", "poincare.py", "sweep.py", "regions.py")

#: Methods and numpy functions that reduce or sort along an axis.
REDUCERS = {"max", "min", "any", "all", "sum", "count_nonzero", "sort", "argsort"}

#: (function, source text of the call) of the allowed calls, with the reason.
ALLOWED = {
    ("lockstep.py", "_section_return", "np.argsort(times, axis=1, kind='stable')"): (
        "the start queue's stable order by time, once per return; no column"
        " operation gives it, and it takes about 1.7 ms over the 25 returns"
        " of the 0.01-grid phase scan"
    ),
    ("regions.py", "_slab_free_index", "np.all(np.diff(group[idx], axis=1) != 0, axis=1)"): (
        "the slab-free subsets of a (rows, dim) halfspace system, a table that"
        " is cached and built once per shape"
    ),
}


def row_calls(source: str) -> list[tuple[str, str]]:
    """(function, source text) of every call in source that reduces or
    sorts along axis 1 or -1, by keyword or by position, or that is an
    np.nonzero or a .nonzero() of any array, sorted."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            is_numpy = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            if name == "nonzero":
                found.append((func.name, ast.unparse(node)))
                continue
            if name not in REDUCERS:
                continue
            axes = [k.value for k in node.keywords if k.arg == "axis"]
            # A method takes the axis first; a numpy function after the array.
            at = 1 if is_numpy else 0
            if len(node.args) > at:
                axes.append(node.args[at])
            if any(ast.unparse(axis) in ("1", "-1") for axis in axes):
                found.append((func.name, ast.unparse(node)))
    return sorted(set(found))


def guarded_calls() -> list[tuple[str, str, str]]:
    """(file, function, source text) of the row calls in the guarded files."""
    return [(name, *call) for name in GUARDED for call in row_calls((PACKAGE / name).read_text())]


def test_no_row_is_reduced_along_its_short_axis():
    assert [f for f in guarded_calls() if f not in ALLOWED] == []


def test_the_allowed_calls_are_still_there():
    assert set(guarded_calls()) == set(ALLOWED)


@pytest.mark.parametrize("name", GUARDED)
def test_the_guard_reads_each_file(name):
    # Each guarded file has functions for the guard to walk, and a row
    # reduction added to its source is found there.
    source = (PACKAGE / name).read_text()
    tree = ast.parse(source)
    assert any(isinstance(node, ast.FunctionDef) for node in ast.walk(tree))
    planted = source + "\n\ndef _planted(a):\n    return a.sum(axis=1)\n"
    assert set(row_calls(planted)) - set(row_calls(source)) == {("_planted", "a.sum(axis=1)")}


def test_the_guard_sees_row_reductions():
    source = "\n".join(
        [
            "def f(a, b):",
            "    a.max(axis=1)",
            "    a.min(1)",
            "    np.sort(a, axis=-1)",
            "    np.count_nonzero(a, 1)",
            "    row, col = np.nonzero(a)",
            "    a.any(axis=0)",
            "    np.max(a, axis=0)",
            "    np.flatnonzero(a)",
            "    a.take(b, axis=1)",
            "class C:",
            "    def m(self, a):",
            "        return a.nonzero()",
        ]
    )
    assert row_calls(source) == [
        ("f", "a.max(axis=1)"),
        ("f", "a.min(1)"),
        ("f", "np.count_nonzero(a, 1)"),
        ("f", "np.nonzero(a)"),
        ("f", "np.sort(a, axis=-1)"),
        ("m", "a.nonzero()"),
    ]
