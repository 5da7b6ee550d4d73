"""Every module-level import in the package and in the tests is used.

A deletion that leaves an import behind fails here.  A name counts as used
when the module reads it anywhere.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = (sorted((ROOT / "src" / "kanai_cavity").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


class _ModuleImports(ast.NodeVisitor):
    """(bound name, line) of each import outside functions and classes."""

    def __init__(self):
        self.bound = []

    def visit_Import(self, node):
        for alias in node.names:
            self.bound.append((alias.asname or alias.name.split(".")[0],
                               node.lineno))

    def visit_ImportFrom(self, node):
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name != "*":
                self.bound.append((alias.asname or alias.name, node.lineno))

    def _skip(self, node):
        pass

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _skip


def unused_imports(source):
    """Module-level imports of ``source`` that it never reads, as
    "name (line n)" strings."""
    tree = ast.parse(source)
    visitor = _ModuleImports()
    visitor.visit(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    return ["%s (line %d)" % (name, line) for name, line in visitor.bound
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from a.b import c\nimport x.y\n__all__ = ['c']\n"
              "def f():\n    import sys\n    return np.pi + tau\n")
    assert unused_imports(source) == [
        "os (line 1)", "pi (line 3)", "c (line 4)", "x (line 5)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
