"""Environment-modified Coulomb interactions from static Green's functions.

Closed forms for uniform media, a planar dielectric interface and a
conducting plate with a circular aperture; Bessel-integral and image-series
routes for a planar gap; Yukawa screening in a spatially dispersive bulk;
a first-order Born treatment of dilute polarizable bodies; and an
independent finite-difference Poisson oracle for validation.
"""

from .analytic import (
    free_space_g,
    half_space_g,
    half_space_scattering_g1,
    interface_reflection,
    plate_hole_g,
    plate_hole_onaxis_self_g1,
)
from .born import (
    Box,
    DensityRegion,
    DiluteBody,
    PolarizabilityTensor,
    born_scattering_g1,
    charge_body_energy,
    charge_molecule_potential,
)
from .cavity import (
    CavityCoeffs,
    cavity_asymptotic,
    cavity_g_general,
    cavity_g_midpoint,
    cavity_g_series,
    cavity_scattering_g1,
    reflection_coeffs,
)
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
    GreensValue,
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
    mirror_z,
)
from .interactions import (
    ForceResult,
    Geometry,
    InteractionResult,
    cavity_asymptotic_force,
    force_on_A,
    local_field_factor,
    pair_energy,
    self_energy,
)
from .poisson_fd import FDSolution, GridSpec, aligned_grid, solve_scattering_g1
from .quadrature import hankel_integral, sine_integral
from .scene import Scene, SceneOptions, load_scene, parse_scene
from .screening import (
    DrudeStatic,
    NonlocalBulk,
    eps_longitudinal_static,
    screened_potential,
    screened_potential_numeric,
)

__version__ = "0.1.0"
