"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hookpair

PACKAGE = Path(hookpair.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_private_helpers_have_callers():
    # a module-level _helper that nothing in the package names is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined
    assert sorted(defined - named) == []


def _integer_rule_breaches(tree: ast.AST, owner: str = "<module>") -> list[str]:
    """Places that read or check an integer without the two rule helpers."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = tree.name
    found = []
    if isinstance(tree, ast.Call):
        if isinstance(tree.func, ast.Name) and tree.func.id == "int" and owner != "_decimal":
            found.append(f"{owner}:{tree.lineno}: int(...)")
        if any(kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int"
               for kw in tree.keywords):
            found.append(f"{owner}:{tree.lineno}: type=int")
    if (isinstance(tree, ast.Compare) and owner != "_require_int"
            and isinstance(tree.left, ast.Call) and isinstance(tree.left.func, ast.Name)
            and tree.left.func.id == "type"
            and any(isinstance(c, ast.Name) and c.id == "int" for c in tree.comparators)):
        found.append(f"{owner}:{tree.lineno}: type(...) vs int")
    for child in ast.iter_child_nodes(tree):
        found.extend(_integer_rule_breaches(child, owner))
    return found


def test_one_integer_rule():
    # text becomes an int only in diagrams._decimal and a value is checked as
    # an int only in diagrams._require_int
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _integer_rule_breaches(
            ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    probe = ast.parse(
        "def f(x):\n    p.add_argument('--k', type=int)\n    return int(x)\n"
        "def g(x):\n    return type(x) is not int\n"
    )
    assert len(_integer_rule_breaches(probe)) == 3


def _not_rising_raises(tree: ast.AST, owner: str = "<module>") -> list[str]:
    """'owner:line' of every raise of NotRising."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = tree.name
    found = []
    if isinstance(tree, ast.Raise) and tree.exc is not None and any(
        (isinstance(node, ast.Name) and node.id == "NotRising")
        or (isinstance(node, ast.Attribute) and node.attr == "NotRising")
        for node in ast.walk(tree.exc)
    ):
        found.append(f"{owner}:{tree.lineno}")
    for child in ast.iter_child_nodes(tree):
        found.extend(_not_rising_raises(child, owner))
    return found


def test_one_rising_check():
    # NotRising is raised only by diagrams._check_rising, the one rising
    # check that every leg count relies on
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _not_rising_raises(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert [where.rsplit(":", 1)[0] for where in found] == ["diagrams.py:_check_rising"]
    probe = ast.parse(
        "def f(rows):\n    raise NotRising('falls')\n"
        "def g(rows):\n    raise errors.NotRising(f'row {rows}')\n"
    )
    assert len(_not_rising_raises(probe)) == 2


def test_package_exports_every_public_name():
    # a name in a module's __all__ is reachable as the same object from hookpair
    modules = [
        importlib.import_module(f"hookpair.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]
    listed = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert listed
    missing = [
        f"{m.__name__}.{name}"
        for m, name in listed
        if name not in hookpair.__all__
        or getattr(hookpair, name, None) is not getattr(m, name)
    ]
    assert missing == []


def test_package_namespace_is_the_module_lists():
    # each module's __all__ is the only list of its public names
    modules = [
        importlib.import_module(f"hookpair.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "cli")
    ]
    assert sorted(m.__name__ for m in modules if not hasattr(m, "__all__")) == []
    assert len(hookpair.__all__) == len(set(hookpair.__all__))
    listed = {name for m in modules for name in m.__all__}
    assert set(hookpair.__all__) == {"__version__"} | listed


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.skipif(not DEMOS, reason="no demos directory next to the tests")
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_with_asserts_stripped(demo, tmp_path):
    # each demo runs in a child interpreter under -O against this package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONIOENCODING"] = "utf-8"
    proc = subprocess.run(
        [sys.executable, "-O", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stderr == b""


MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_standing_mutants_match_the_source(monkeypatch):
    # every mutant's old text occurs exactly once, so the list follows
    # refactors; running the mutants themselves is left to tools/mutants.py
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert names and len(names) == len(set(names))
    assert all(m.old != m.new for m in mutants.MUTANTS)
    assert mutants.unmatched() == []
