"""Every module-level import of a ``cgk`` module is used by that module.

No linter ships with the runtime, so this reads each source file with the
standard ``ast`` module: a name bound by a top-level import must be read
somewhere in the module, or listed in its ``__all__``.
"""

import ast
import pathlib

import pytest

import cgk

SOURCES = sorted(pathlib.Path(cgk.__file__).resolve().parent.glob("*.py"))


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
