"""Each submodule imports cleanly when it is the first of the package to load;
importing the package and its CLI loads no scipy, nor `validate`, which a
command other than `validate` never loads; and the CLI gives the same result
in a fresh interpreter as in this one.

`core` imports `analytic` and `cavity` at its end, and both of them import
`core`; the cycle must resolve whichever name is asked for first. One fresh
interpreter imports each submodule in turn, dropping the whole package from
`sys.modules` before each, so numpy and scipy load only once.

scipy.special and scipy.sparse are imported where they are used, and the
tests that ran before in this interpreter have loaded them already, so a
lazy import that only a cold process reaches is checked in fresh ones.
"""

import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import greens_coulomb
from greens_coulomb.cli import main

MODULES = sorted(m.name for m in pkgutil.iter_modules(greens_coulomb.__path__))
SRC = str(Path(greens_coulomb.__file__).parent.parent)


def fresh(*args):
    """Run python with these arguments in a fresh interpreter that imports from SRC."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


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
    proc = fresh("-c", SCRIPT, *MODULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == MODULES


SCIPY_LOADED = """
import sys
print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_loads_no_scipy():
    proc = fresh("-c", "import greens_coulomb, greens_coulomb.cli" + SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def pair(geometry, a=(0.3e-9, -0.2e-9, 0.3e-9), b=(-0.1e-9, 0.1e-9, 0.8e-9)):
    return {"geometry": geometry,
            "charges": [{"q": 1.0, "unit": "e", "position": list(a)},
                        {"q": -1.0, "unit": "e", "position": list(b)}]}


GAP_CHARGES = ((0.3e-9, 0.0, 0.1e-9), (0.0, 0.0, -0.2e-9))
BOX = [-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9]
SCENES = {
    "free_space": pair({"type": "free_space", "eps": 2.0}),
    "half_space": pair({"type": "half_space", "eps1": 1, "eps2": 4}),
    "dielectric_gap": pair({"type": "cavity", "eps1": 4.0, "eps2": 1.0, "eps3": 8.0,
                            "d": 1e-9}, *GAP_CHARGES),
    "mixed_gap": pair({"type": "cavity", "eps1": 4.0, "eps2": 1.0, "eps3": "conductor",
                       "d": 1e-9}, *GAP_CHARGES),
    "conducting_gap": pair({"type": "cavity", "eps1": "conductor", "eps2": 1.0,
                            "eps3": "conductor", "d": 1e-9}, *GAP_CHARGES),
    # the self-energy of a charge off the axis is an UnsupportedGeometryError
    "aperture": pair({"type": "plate_with_hole", "R": 1e-9}, (0.0, 0.0, 0.3e-9)),
    # its self-energy is the closed form -q^2 k_s / (8 pi eps0 eps_b)
    "screened_bulk": pair({"type": "nonlocal_bulk", "drude": {
        "omega_p": 8e15, "omega_p_bound": 9e15, "omega_0": 4e15, "beta": 9e5}}),
    "born_box": pair({"type": "dilute_body", "alpha": 1e-40,
                      "regions": [{"box": BOX, "eta": 1e27}]}),
    "born_half_space": pair({"type": "dilute_body", "alpha": 1e-40, "half_space_eta": 1e27}),
}
COMMANDS = ("pair-energy", "self-energy", "force")


def scene_file(tmp_path, kind, command):
    doc = SCENES[kind]
    if command == "self-energy":
        doc = {**doc, "charges": doc["charges"][:1]}
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_pair_energy_loads_no_scipy_where_no_route_needs_it(tmp_path):
    # closed forms, the sine transform and the gap's image series, with its
    # Euler-Maclaurin tail for the conducting gap's pair at rho = 0.3 d; one
    # interpreter runs every scene, so any of them that loads scipy shows in
    # the union
    kinds = ["free_space", "half_space", "dielectric_gap", "mixed_gap", "conducting_gap",
             "aperture", "screened_bulk", "born_box", "born_half_space"]
    calls = [["pair-energy", "--scene", scene_file(tmp_path, k, "pair-energy")] for k in kinds]
    proc = fresh("-c", "import contextlib, io\nfrom greens_coulomb.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       f"    assert all(main(argv) == 0 for argv in {calls!r})" + SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_commands_load_no_validate(tmp_path):
    # the validation checks and their arbiters load for `validate` alone
    argv = ["pair-energy", "--scene", scene_file(tmp_path, "dielectric_gap", "pair-energy")]
    has_validate = "\nprint('greens_coulomb.validate' in sys.modules)"
    proc = fresh("-c", "import contextlib, io, sys\nimport greens_coulomb, greens_coulomb.cli"
                       + has_validate + "\nwith contextlib.redirect_stdout(io.StringIO()):\n"
                       f"    assert greens_coulomb.cli.main({argv!r}) == 0" + has_validate)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", sorted(SCENES))
def test_fresh_interpreter_gives_the_same_result(tmp_path, kind, command):
    argv = [command, "--scene", scene_file(tmp_path, kind, command)]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    proc = fresh("-m", "greens_coulomb", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())
    # every kind has a result for at least the pair energy and the force
    assert code == 0 or command == "self-energy"
