import ast
import os
import subprocess
import sys
from pathlib import Path

import viewocc

PACKAGE = Path(viewocc.__file__).resolve().parent
SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


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


def test_every_export_has_a_caller_in_the_package():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set().union(*(_reads(ast.parse(path.read_text()))
                         for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
    unused = [name for name in exported if name not in used]
    assert not unused, f"exported from viewocc but never used inside it: {unused}"


def test_benchmark_selftest_passes(tmp_path):
    # the benchmark imports names from every layer of the package; its
    # self-test fails on the first one that is renamed or removed
    package_root = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(SELFTEST)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
