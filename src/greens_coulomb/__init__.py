"""Environment-modified Coulomb interactions from static Green's functions.

Closed forms for uniform media, a planar dielectric interface and a
conducting plate with a circular aperture; Bessel-integral and image-series
routes for a planar gap; Yukawa screening in a spatially dispersive bulk;
a first-order Born treatment of dilute polarizable bodies; and an
independent finite-difference Poisson oracle for validation.
"""

from .analytic import free_space_g, plate_hole_g
from .core import (
    DEFAULT_QUADRATURE,
    PERFECT_CONDUCTOR,
    Charge,
    CoincidentPointsError,
    Conductor,
    ConvergenceError,
    CoulombError,
    DomainError,
    FreeSpace,
    HalfSpace,
    OnPlateError,
    OnSurfaceError,
    OutOfRegionError,
    PlateWithHole,
    Point3,
    PointInsideBodyError,
    QuadratureSpec,
    SceneError,
    SolverError,
    SourceOnInterfaceError,
    ThreeLayerCavity,
    UnsupportedGeometryError,
    ValueWithError,
    distance,
    interface_reflection,
)
from .interactions import (
    ForceResult,
    Geometry,
    InteractionResult,
    force_on_A,
    local_field_factor,
    pair_energy,
    self_energy,
)
from .scene import Scene, SceneOptions, load_scene, parse_scene
from .screening import DrudeStatic, NonlocalBulk

__version__ = "0.1.0"

# The names whose modules import numpy, and for the FD oracle scipy.sparse
# too, load their modules on first use, so that importing the package and
# its CLI, and parsing a scene of any geometry but a Born body, loads
# neither: the closed forms' commands then start without numpy.
_LAZY = {
    **dict.fromkeys(("Box", "DensityRegion", "DiluteBody", "PolarizabilityTensor",
                     "born_scattering_g1", "charge_body_energy"), "born"),
    **dict.fromkeys(("cavity_g_general", "cavity_scattering_g1"), "cavity"),
    "hankel_integral": "quadrature",
    **dict.fromkeys(("FDSolution", "GridSpec", "aligned_grid", "solve_scattering_g1"),
                    "poisson_fd"),
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
