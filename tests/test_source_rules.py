"""Rules the engine source keeps, checked on its syntax tree."""
import ast
import importlib
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


def test_budgets_are_parameters_of_the_engine_context_only():
    # one place for budgets: every other function reads them from the context
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    offenders = [
        "%s:%d %s" % (path.name, node.lineno, getattr(node, "name", "<lambda>"))
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, functions)
        and getattr(node, "name", None) != "engine_context"
        and {"budget", "step_limit"}
        & {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert offenders == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # a deletion must take its imports along; the package __init__ re-exports
    offenders = [
        "%s:%d %s" % (path.name, line, name)
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_every_dataclass_field_is_read():
    # a field nothing reads is dead weight on every construction; the rule
    # matches attribute names, so a field read under another class counts
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        "%s.%s" % (node.name, stmt.target.id)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    ]
    assert unread == []


def test_benchmark_tracer_targets_resolve():
    # icmbench --trace 1 refuses to install when one of its TARGETS is gone
    tracer = pathlib.Path(__file__).resolve().parents[1] / "icmbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert len(targets) >= 30
    missing = []
    for module, path in targets:
        owner = importlib.import_module("icmlab." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (module, path))
    assert missing == []
