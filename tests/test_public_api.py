import ast
import os
import subprocess
import sys
from pathlib import Path

import viewocc

PACKAGE = Path(viewocc.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _reads(tree: ast.AST) -> set:
    """Names a module reads (as a name or an attribute), leaving out reads
    inside the def or class of the same name."""
    found = set()

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            around = around | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in around:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(tree, frozenset())
    return found


def _read_by(paths) -> set:
    return set().union(*(_reads(ast.parse(path.read_text())) for path in paths))


def test_every_export_has_a_caller_in_the_package():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = _read_by(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    unused = [name for name in exported if name not in used]
    assert not unused, f"exported from viewocc but never used inside it: {unused}"


def test_every_top_level_definition_has_a_reader():
    # a def or class must be read in the package outside its own body, or by
    # the acceptance suite or the benchmark; test-only code lives in tests/
    modules = sorted(PACKAGE.glob("*.py"))
    read = _read_by(modules) | _read_by([ACCEPTANCE]) | _read_by(PERFBENCH.glob("*.py"))
    unread = [f"{path.stem}.{node.name}" for path in modules
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read]
    assert not unread, f"defined in viewocc but read nowhere: {unread}"


def test_benchmark_selftest_passes(tmp_path):
    # the benchmark imports names from every layer of the package; its
    # self-test fails on the first one that is renamed or removed
    package_root = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(SELFTEST)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
