"""Rules the engine source keeps, checked on its syntax tree."""
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import icmlab
from icmlab import cli_app

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


RECORDS = {
    "FieldSpec", "TermOrder", "RingDescriptor", "SaturationResult", "MonomialPrime", "GradeWitness", "IcmReport",
    "RelationReport", "InstanceSpec", "SuiteReport", "RingStmt", "IdealStmt", "QueryStmt", "Script",
}


def test_every_record_field_is_read():
    # a field nothing reads is dead weight on every construction; the rule
    # matches attribute names, so a field read under another class counts
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    slots = {
        node.name: ast.literal_eval(stmt.value)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(ast.unparse(b) == "Record" for b in node.bases)
        for stmt in node.body
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__slots__"
    }
    assert set(slots) >= RECORDS
    unread = ["%s.%s" % (name, field) for name, fields in slots.items() for field in fields if field not in read]
    assert unread == []


def test_no_dataclasses():
    # dataclasses costs a cold start its import (with inspect, ast, dis and
    # tokenize) and the exec of each decorated class's generated methods;
    # ring_core.Record is the value base instead
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert offenders == []


def test_cold_import_leaves_out_the_introspection_modules():
    # every icm-lab call starts cold, so what `import icmlab.cli_app` pulls
    # in is paid on every call; -S keeps site-packages' own start-up imports
    # out of the check; argparse (and gettext, which it imports) is read
    # only for help and usage errors, so a documented command line leaves
    # it out as well
    corpus = pathlib.Path(__file__).resolve().parent / "corpus" / "ok_01_golden_two_planes_icm.icm"
    code = (
        "import sys, icmlab.cli_app as cli\n"
        "heavy = set(sys.argv[1:])\n"
        "cold = sorted(heavy & set(sys.modules))\n"
        "cli.main(['run', %r, '--json', '--seed', '3'])\n"
        "print(cold, sorted(heavy & set(sys.modules)))" % str(corpus)
    )
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext"]
    src = str(pathlib.Path(icmlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code] + heavy, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[] []"


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


def test_public_api_is_the_readme_library_block():
    # icmlab exports what README.md's Library block imports, plus the base
    # of every engine error, so the docs and the exports cannot drift apart
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text[text.index("## Library") :]
    block = block[block.index("from icmlab import (") : block.index(")")]
    names = {
        name.strip()
        for line in block.splitlines()[1:]
        for name in line.split("#")[0].split(",")
        if name.strip()
    }
    assert len(names) == 18
    assert sorted(icmlab.__all__) == sorted(names | {"EngineError"})
    assert all(hasattr(icmlab, name) for name in icmlab.__all__)


def test_query_table_is_the_readme_grammar():
    # each query alternative of README.md's grammar block quotes its
    # keywords and then has one NAME or SUITE-ID per argument; together they
    # are the front end's query table, so the docs and the table cannot
    # drift apart
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text[text.index("query    :=") : text.index("poly     :=")]
    arities = {
        keyword: len(re.findall(r"NAME|SUITE-ID", line))
        for line in block.splitlines()
        for keyword in re.findall(r'"(\w+)"', line)
    }
    assert len(arities) == 11
    assert arities == {kw: arity for kw, (arity, _) in cli_app.QUERIES.items()}


def test_sources_parse_with_the_oldest_supported_grammar():
    # pyproject's requires-python floor is the first Python of CI's matrix,
    # and every file of src/icmlab and tests must parse with its grammar, so
    # that at a 3.10 floor an except* (3.11) fails here; this checks syntax
    # only, not whether the stdlib APIs a file calls exist at the floor
    root = pathlib.Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    matrix = re.search(r"python-version: \[(.*)\]", workflow).group(1)
    assert min(tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(",")) == floor
    files = SOURCES + sorted((root / "tests").rglob("*.py"))
    assert len(files) > len(SOURCES)
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
