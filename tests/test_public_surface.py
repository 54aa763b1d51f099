"""The package's public surface has one name per type and per function.

Each Green's function is written once, in its geometry, and a value with
its error has one type. Names that were second writings of a formula or of
a type stay gone, and no two exported names may stand for the same thing.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import greens_coulomb
from greens_coulomb import born, kernels
from greens_coulomb.core import Point3, QuadratureSpec, ThreeLayerCavity

MODULES = [importlib.import_module("greens_coulomb." + m.name)
           for m in pkgutil.iter_modules(greens_coulomb.__path__)]
# dir() lists the names that the package exports on first use, too
EXPORTS = {name: getattr(greens_coulomb, name) for name in dir(greens_coulomb)
           if not name.startswith("_") and not inspect.ismodule(getattr(greens_coulomb, name))}

# second writings: of the half-space image (HalfSpace._g), of the Yukawa
# (NonlocalBulk._g), of ValueWithError, of Point3.mirror_z, of the gap's
# cavity_g_general at z = z0 = 0, of cavity_g_images_many at one point and
# of cavity_grad_general at coincident points; and the gap's dispatchers and
# per-call wall set-up, folded into cavity.gap_many on the cavity's own walls
REMOVED = ("half_space_g", "half_space_scattering_g1", "screened_potential", "GreensValue",
           "mirror_z", "cavity_g_midpoint", "cavity_g_images", "cavity_scattering_dg1",
           "gap_g_many", "gap_grad_g", "gap_grad_g1", "_layers_pair")


def test_removed_names_stay_gone():
    for module in [greens_coulomb] + MODULES:
        assert [n for n in REMOVED if hasattr(module, n)] == [], module.__name__
    assert [a for a in ("phi", "cylindrical", "vec") if hasattr(Point3, a)] == []
    # host_eps is a geometry's one admission rule, with no second test of a point
    assert not hasattr(born.DiluteBody, "contains")
    # cavity alone picks the gap's route
    assert [a for a in ("_modal", "_conducting") if hasattr(ThreeLayerCavity, a)] == []


# the arbiters: methods that no route of the program takes, which live in
# `validate` alone (the screened bulk's integrand is folded into its arbiter,
# and its sine transform serves it alone)
ARBITERS = ("cavity_g_series", "cavity_asymptotic", "cavity_asymptotic_force",
            "screened_potential_numeric", "eps_longitudinal_static", "charge_molecule_potential",
            "sine_integral")


def test_arbiters_live_in_validate_alone():
    from greens_coulomb import validate
    for module in [greens_coulomb] + MODULES:
        names = ARBITERS + ("screening_integrand",)
        held = [n for n in names if hasattr(module, n)]
        assert held == (list(ARBITERS) if module is validate else []), module.__name__


def test_one_octree_pass_per_born_gradient():
    # the three per-component octrees became one pass over a vector integrand
    assert not hasattr(born, "_octree_grad")
    assert "axis" not in inspect.signature(kernels.alpha_chain_grad_sum).parameters


def test_caps_are_module_constants():
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol", "abs_tol"]
    assert "max_depth" not in inspect.signature(born._adaptive_boxes).parameters


def test_fd_oracle_is_exported_on_first_use():
    from greens_coulomb import poisson_fd
    lazy = ("FDSolution", "GridSpec", "aligned_grid", "solve_scattering_g1")
    assert {name: EXPORTS.get(name) for name in lazy} == {
        name: getattr(poisson_fd, name) for name in lazy}
    with pytest.raises(AttributeError):
        greens_coulomb.no_such_name


def test_no_two_exports_are_one_object():
    names_by_id = {}
    for name, obj in EXPORTS.items():
        names_by_id.setdefault(id(obj), []).append(name)
    assert [names for names in names_by_id.values() if len(names) > 1] == []


def test_no_export_is_a_bare_subclass_of_another():
    # a subclass with nothing but a docstring is a second name for its base;
    # error classes are exempt, their type is what callers catch
    bare = {"__module__", "__qualname__", "__doc__"}
    classes = [obj for obj in EXPORTS.values()
               if inspect.isclass(obj) and not issubclass(obj, BaseException)]
    for cls in classes:
        for base in cls.__mro__[1:]:
            if base in classes:
                assert set(vars(cls)) - bare, f"{cls.__name__} adds nothing to {base.__name__}"
