"""Every module-level import in the package and in the tests is used, and
every definition in the package is named somewhere else.

A deletion that leaves an import or a definition behind fails here.  An
import counts as used when the module reads it anywhere; a definition
counts as named when its name appears outside its own lines.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kanai_cavity").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
#: Where a definition may be named: the package, the tests, the benchmark
#: and the README.
READERS = (PACKAGE + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"])


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


def definitions(tree):
    """(name, first line, last line) of each top-level function and class
    and of each method of a top-level class, dunders excepted."""
    nodes = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            nodes.append(node)
        if isinstance(node, ast.ClassDef):
            nodes += [item for item in node.body if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(node.name,
             min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.end_lineno)
            for node in nodes
            if not (node.name.startswith("__") and node.name.endswith("__"))]


def dead_definitions(source, others):
    """Definitions of ``source`` whose name appears neither in ``others``
    (texts) nor in ``source`` outside the definition's own lines, as
    "name (line n)" strings."""
    lines = source.splitlines()
    dead = []
    for name, first, last in definitions(ast.parse(source)):
        word = re.compile(r"\b%s\b" % re.escape(name))
        rest = "\n".join(lines[:first - 1] + lines[last:])
        if not any(word.search(text) for text in [rest] + others):
            dead.append("%s (line %d)" % (name, first))
    return dead


def test_the_check_finds_a_dead_definition():
    source = ("def used():\n    return used()\n"
              "def _helper():\n    pass\n"
              "class Holder:\n    @property\n    def value(self):\n"
              "        return Holder\n    def __repr__(self):\n"
              "        return ''\n"
              "def caller():\n    return _helper()\n")
    assert dead_definitions(source, ["caller()"]) == [
        "used (line 1)", "Holder (line 5)", "value (line 6)"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_named_elsewhere(path):
    others = [reader.read_text() for reader in READERS if reader != path]
    assert dead_definitions(path.read_text(), others) == []
