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


def test_bijections_names_no_cellset():
    # the certificate reads stat tables only; bijections measures no CellSet
    tree = ast.parse((PACKAGE / "bijections.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "CellSet")
        or (isinstance(node, ast.Attribute) and node.attr == "CellSet")
        or (isinstance(node, ast.alias) and "CellSet" in (node.name, node.asname))
    ]
    assert found == []


# dataclasses loads inspect, and only a sweep that starts workers needs
# multiprocessing: a single ``hookpair verify`` should pay for none of them
HEAVY_MODULES = {"dataclasses", "inspect", "multiprocessing"}


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code, with this
    package first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ["hookpair", "hookpair.cli"])
def test_import_loads_no_heavy_modules(module):
    # measured against a bare interpreter, so a site hook that loads one of
    # them anyway does not count
    added = _modules_after(f"import {module}") - _modules_after("")
    assert module in added
    assert sorted(added & HEAVY_MODULES) == []


def _submodules_after(code: str) -> list[str]:
    """The hookpair submodules a fresh interpreter holds after running code."""
    return sorted(m for m in _modules_after(code) if m.startswith("hookpair."))


# a public name loads its owner and the owner's own imports, a submodule
# attribute loads that module and its own imports, and a sweep loads the
# checker of its mode only when it runs
LAZY_NAMES = {
    "import hookpair": [],
    "import hookpair; assert not hasattr(hookpair, 'no_such_name')": [],
    "import hookpair; hookpair.Partition((2, 1), 2, 2)": [
        "hookpair.diagrams", "hookpair.errors",
    ],
    "import hookpair; hookpair.SweepConfig(2, None, ('projective',))": [
        "hookpair.diagrams", "hookpair.errors", "hookpair.sweep",
    ],
    "import hookpair; hookpair.run_sweep(hookpair.SweepConfig(2, None, ('projective',)))": [
        "hookpair.diagrams", "hookpair.errors", "hookpair.projective", "hookpair.sweep",
    ],
    "import hookpair; hookpair.run_sweep(hookpair.SweepConfig(1, 1, ('2',)))": [
        "hookpair.bijections", "hookpair.diagrams", "hookpair.dyck", "hookpair.errors",
        "hookpair.sweep",
    ],
    "import hookpair; hookpair.verify_theorem(hookpair.Partition((2, 1), 2, 2), 2)": [
        "hookpair.bijections", "hookpair.diagrams", "hookpair.dyck", "hookpair.errors",
    ],
    "import hookpair; hookpair.projective.StrictPartition": [
        "hookpair.diagrams", "hookpair.errors", "hookpair.projective",
    ],
    "import hookpair; hookpair.cli.build_parser": [
        "hookpair.cli", "hookpair.diagrams", "hookpair.errors",
    ],
}


@pytest.mark.parametrize("code", LAZY_NAMES)
def test_lazy_package_loads_the_owners_only(code):
    assert _submodules_after(code) == LAZY_NAMES[code]


CLI_BASE = ["hookpair.cli", "hookpair.diagrams", "hookpair.errors"]
CASE = ["--k", "1", "--n", "2", "--alpha", "2"]

# each subcommand loads the layers its handler uses and no others
LAZY_SUBCOMMANDS = [
    (["verify", "--theorem", "2", *CASE], ["hookpair.bijections", "hookpair.dyck"]),
    (["verify", "--theorem", "proj", *CASE], ["hookpair.projective"]),
    (["show", "--region", "D", *CASE], ["hookpair.render"]),
    (["show", "--region", "D", "--pq", *CASE], ["hookpair.projective", "hookpair.render"]),
    (["dyck", "--i", "1", *CASE], ["hookpair.dyck"]),
    (["map", "--phi", *CASE], ["hookpair.bijections", "hookpair.dyck"]),
    (["sweep", "--max-k", "1", "--max-n", "1"],
     ["hookpair.bijections", "hookpair.dyck", "hookpair.sweep"]),
    (["sweep", "--projective", "--max-k", "1"], ["hookpair.projective", "hookpair.sweep"]),
]


@pytest.mark.parametrize("argv, extra", LAZY_SUBCOMMANDS,
                         ids=[" ".join(argv) for argv, _ in LAZY_SUBCOMMANDS])
def test_lazy_subcommand_loads_its_layers_only(argv, extra):
    code = (
        "import contextlib, io\nimport hookpair.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = hookpair.cli.main({argv!r})\n"
        "assert status == 0, status"
    )
    assert _submodules_after(code) == sorted(CLI_BASE + extra)


def test_lazy_from_import_cli():
    # the import system asks the package for cli before it imports the
    # submodule; that lookup loads cli alone, with its own imports
    assert _submodules_after("from hookpair import cli") == CLI_BASE


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hookpair import *", namespace)
    assert hookpair.__all__
    assert [n for n in hookpair.__all__ if namespace.get(n) is not getattr(hookpair, n)] == []


def test_dir_lists_every_public_name():
    assert set(dir(hookpair)) >= set(hookpair.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hookpair.no_such_name
    assert not hasattr(hookpair, "no_such_name")


def test_package_reads_names_through_their_module(monkeypatch):
    # bench/tracer.py rebinds functions in the submodules and relies on the
    # package showing the rebound object
    original = hookpair.verify_theorem

    def fake(*args):
        return None

    monkeypatch.setattr(hookpair.bijections, "verify_theorem", fake)
    assert hookpair.verify_theorem is fake
    monkeypatch.undo()
    assert hookpair.verify_theorem is original


def _heavy_imports(tree: ast.AST, in_function: bool = False) -> list[str]:
    """'line: module' of every dataclasses import, and of every
    multiprocessing import outside a function."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        in_function = True
    found = []
    if isinstance(tree, ast.Import):
        names = [alias.name for alias in tree.names]
    elif isinstance(tree, ast.ImportFrom):
        names = [tree.module or ""]
    else:
        names = []
    for name in names:
        top = name.split(".")[0]
        if top == "dataclasses" or (top == "multiprocessing" and not in_function):
            found.append(f"{tree.lineno}: {name}")
    for child in ast.iter_child_nodes(tree):
        found.extend(_heavy_imports(child, in_function))
    return found


def test_no_heavy_module_imports_in_source():
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _heavy_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    probe = ast.parse(
        "import dataclasses\nfrom multiprocessing.pool import Pool\n"
        "if True:\n    import multiprocessing\n"
        "def f():\n    from multiprocessing import Pool\n    from dataclasses import field\n"
    )
    assert len(_heavy_imports(probe)) == 4


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
    # the package's export table is the only list of public names: each
    # module's __all__ is its row, the very object, and hookpair.__all__ is
    # __version__ and the rows in dependency order
    order = ["errors", "diagrams", "dyck", "bijections", "projective", "sweep", "render"]
    assert sorted(order) == sorted(path.stem for path in PACKAGE.glob("*.py")
                                   if path.stem not in ("__init__", "cli"))
    assert list(hookpair._EXPORTS) == order
    rows = [importlib.import_module(f"hookpair.{m}").__all__ for m in order]
    assert [m for m, row in zip(order, rows) if row is not hookpair._EXPORTS[m]] == []
    assert not hasattr(importlib.import_module("hookpair.cli"), "__all__")
    assert hookpair.__all__ == ["__version__", *(n for row in rows for n in row)]
    assert len(hookpair.__all__) == len(set(hookpair.__all__)) == 71


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
