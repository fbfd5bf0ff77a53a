"""The runtime is stdlib-only: importing every ``cgk`` module loads nothing
outside the standard library."""

import json
import pathlib
import subprocess
import sys

import cgk

# -I -S: no site hooks or user paths, so only what cgk itself imports loads
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import cgk
for info in pkgutil.iter_modules(cgk.__path__):
    importlib.import_module("cgk." + info.name)
print(json.dumps(sorted(sys.modules)))
"""


def _allowed(name):
    return (name == "__main__" or name in sys.builtin_module_names
            or name.split(".")[0] in sys.stdlib_module_names
            or name == "cgk" or name.startswith("cgk."))


def test_every_module_imports_only_the_standard_library():
    src = str(pathlib.Path(cgk.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "cgk.reps" in loaded and "cgk.cli" in loaded
    assert [name for name in loaded if not _allowed(name)] == []
