"""Every module-level import of a ``cgk`` module is used by that module,
and every definition of the package is named somewhere.

No linter ships with the runtime, so this reads each source file with the
standard ``ast`` module: a name bound by a top-level import must be read
somewhere in the module, or listed in its ``__all__``; and a function,
class or non-dunder method defined in ``cgk`` must be named by some
source or benchmark file.  A use in a test does not count: code that only
the tests reach is not part of the program.
"""

import ast
import pathlib

import pytest

import cgk

SOURCES = sorted(pathlib.Path(cgk.__file__).resolve().parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
READERS = SOURCES + sorted(ROOT.glob("cgkbench/*.py"))


def _imported_names(tree):
    """(bound name, line) for every import statement of the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Names a module imports at top level and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import comb, gcd as g\nfrom . import x\n\nprint(comb)\n"
    assert unused_imports(source) == [("os", 1), ("g", 2), ("x", 3)]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _definitions(tree):
    """(line, name) of every function, class and non-dunder method, in
    line order."""
    return sorted(
        (node.lineno, node.name) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))


def _named(tree):
    """Every name a module reads, as a variable, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def dead_definitions(sources, readers):
    """(label, line, name) of each definition in the (label, text) pairs
    of ``sources`` that no text of ``readers`` names."""
    named = set()
    for text in readers:
        named.update(_named(ast.parse(text)))
    return [(label, line, name) for label, text in sources
            for line, name in _definitions(ast.parse(text)) if name not in named]


def test_the_check_sees_a_dead_definition():
    source = ("class A:\n    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n    def __len__(self):\n"
              "        return 0\n\n\ndef orphan():\n    return A().used()\n")
    sources = [("m", source)]
    assert dead_definitions(sources, [source]) == [("m", 5, "unused"), ("m", 12, "orphan")]
    readers = [source, "from m import orphan\n"]
    assert dead_definitions(sources, readers) == [("m", 5, "unused")]


def test_no_dead_definitions():
    sources = [(path.name, path.read_text()) for path in SOURCES]
    assert dead_definitions(sources, [path.read_text() for path in READERS]) == []
