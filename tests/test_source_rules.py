"""Rules the engine source keeps, checked on its syntax tree."""
import ast
import pathlib

import icmlab

SOURCES = sorted(pathlib.Path(icmlab.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 7


def _find(kind):
    return [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, kind)
    ]


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may guard an invariant
    assert _find(ast.Assert) == []


def test_no_global_statements():
    # budgets and caches live in the engine context, not in rebound globals
    assert _find(ast.Global) == []
