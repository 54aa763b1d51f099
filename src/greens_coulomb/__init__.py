"""Environment-modified Coulomb interactions from static Green's functions.

Closed forms for uniform media, a planar dielectric interface and a
conducting plate with a circular aperture; Bessel-integral and image-series
routes for a planar gap; Yukawa screening in a spatially dispersive bulk;
a first-order Born treatment of dilute polarizable bodies; and an
independent finite-difference Poisson oracle for validation.
"""

from .analytic import free_space_g, plate_hole_g
from .born import (
    Box,
    DensityRegion,
    DiluteBody,
    PolarizabilityTensor,
    born_scattering_g1,
    charge_body_energy,
)
from .cavity import cavity_g_general, cavity_scattering_g1
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
from .quadrature import hankel_integral
from .scene import Scene, SceneOptions, load_scene, parse_scene
from .screening import DrudeStatic, NonlocalBulk

__version__ = "0.1.0"

# The finite-difference oracle needs scipy.sparse, which takes longer to
# import (about 0.3 s) than the rest of the package, and only `validate`
# and the oracle's own callers use it; so its names load on first use.
_FD_ORACLE = ("FDSolution", "GridSpec", "aligned_grid", "solve_scattering_g1")


def __getattr__(name):
    if name in _FD_ORACLE:
        from . import poisson_fd
        return getattr(poisson_fd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FD_ORACLE))
