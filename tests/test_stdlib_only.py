"""The runtime is stdlib-only: importing every ``cgk`` module loads nothing
outside the standard library.  A command loads only the layers it runs,
and no module loads ``dataclasses``, whose import (``inspect``, ``ast``,
``dis``, ``tokenize``) would cost every command its start-up time."""

import json
import pathlib
import subprocess
import sys

import pytest

import cgk

SRC = str(pathlib.Path(cgk.__file__).resolve().parent.parent)

# -I -S: no site hooks or user paths, so only what cgk itself imports loads;
# -B: -I ignores PYTHONDONTWRITEBYTECODE, and the probe must not write
# __pycache__ into the checkout
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import cgk
for info in pkgutil.iter_modules(cgk.__path__):
    importlib.import_module("cgk." + info.name)
print(json.dumps(sorted(sys.modules)))
"""

# runs the command given after the source path in-process, then lists
# the modules loaded
COMMAND_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import cgk.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cgk.cli.run(sys.argv[2:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _loaded(probe, *argv):
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, SRC, *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _allowed(name):
    return (name == "__main__" or name in sys.builtin_module_names
            or name.split(".")[0] in sys.stdlib_module_names
            or name == "cgk" or name.startswith("cgk."))


def test_every_module_imports_only_the_standard_library():
    loaded = _loaded(PROBE)
    assert "cgk.reps" in loaded and "cgk.cli" in loaded
    assert [name for name in loaded if not _allowed(name)] == []
    assert "dataclasses" not in loaded


LAYERS = ("cgk.diffop", "cgk.reps", "cgk.invariants")


@pytest.mark.parametrize("argv, layers", [
    (("singular", "search", "--d", "2", "--two-ell", "3", "--ext", "mass", "--level", "3"),
     ()),
    (("pde", "check", "--d", "2", "--two-ell", "2", "--ext", "exotic", "--q", "3",
      "--delta", "auto"), LAYERS),
    (("reps", "check", "--d", "2", "--two-ell", "1", "--ext", "mass"),
     ("cgk.diffop", "cgk.reps")),
], ids=["singular-search", "pde-check", "reps-check"])
def test_a_command_loads_only_the_layers_it_runs(argv, layers):
    out = _loaded(COMMAND_PROBE, *argv)
    assert out["code"] == 0
    assert [name for name in LAYERS if name in out["modules"]] == list(layers)
    assert "dataclasses" not in out["modules"]
