"""The runtime is stdlib-only: importing every ``cgk`` module loads nothing
outside the standard library.  A command loads only the layers it runs,
and no module loads ``dataclasses``, whose import (``inspect``, ``ast``,
``dis``, ``tokenize``) would cost every command its start-up time.
``argparse``, ``json`` and the selftest criteria load only when a command
uses them."""

import json
import os
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

# runs the command given after the source path in-process (none: only the
# import), then lists the modules loaded before the probe's own json
COMMAND_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import cgk.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cgk.cli.run(sys.argv[2:]) if sys.argv[2:] else 0
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""


def _loaded(probe, *argv, env=None):
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, SRC, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=None if env is None else {**os.environ, **env})
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
SEARCH = ("singular", "search", "--d", "2", "--two-ell", "3", "--ext", "mass", "--level", "3")


@pytest.mark.parametrize("argv, layers", [
    (SEARCH, ()),
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


DEFERRED = ("argparse", "json", "cgk.acceptance")


@pytest.mark.parametrize("argv, env, loaded", [
    ((), None, ()),
    (SEARCH, None, ("argparse",)),
    (("selftest",), {"CGK_CAPS_LEVEL": "1"}, ("argparse", "cgk.acceptance")),
], ids=["import", "singular-search", "selftest"])
def test_parser_json_and_criteria_load_on_first_use(argv, env, loaded):
    out = _loaded(COMMAND_PROBE, *argv, env=env)
    assert out["code"] == 0
    assert [name for name in DEFERRED if name in out["modules"]] == list(loaded)
