"""Each module of the package imports when it is the first one loaded, so
no import cycle is hidden by the order ``__init__`` imports them in."""

import os
import pkgutil
import subprocess
import sys

import pytest

import startrans

# loads the module named by argv[1] under a bare package object, so that
# the module, not the package's __init__, is the first one executed
FIRST_IMPORT = """
import importlib, importlib.util, sys, types
package = types.ModuleType("startrans")
package.__path__ = importlib.util.find_spec("startrans").submodule_search_locations
sys.modules["startrans"] = package
importlib.import_module("startrans." + sys.argv[1])
"""

MODULES = sorted(m.name for m in pkgutil.iter_modules(startrans.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(startrans.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, name],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
