"""Each submodule imports cleanly when it is the first of the package to load,
and importing the package and its CLI loads no heavy scipy subpackage.

`core` imports `analytic` and `cavity` at its end, and both of them import
`core`; the cycle must resolve whichever name is asked for first. One fresh
interpreter imports each submodule in turn, dropping the whole package from
`sys.modules` before each, so numpy and scipy load only once.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import greens_coulomb

MODULES = sorted(m.name for m in pkgutil.iter_modules(greens_coulomb.__path__))

SCRIPT = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "greens_coulomb"]:
        del sys.modules[key]
    importlib.import_module("greens_coulomb." + name)
    print(name)
"""


def test_every_submodule_imports_first():
    assert {"core", "analytic", "cavity", "interactions", "kernels"} <= set(MODULES)
    src = str(Path(greens_coulomb.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *MODULES], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == MODULES


# Each adds 10-13 MB of resident memory to every process that imports the CLI.
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.stats")

FOOTPRINT = """
import sys
import greens_coulomb, greens_coulomb.cli
print(" ".join(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(greens_coulomb.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *HEAVY_SCIPY], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
