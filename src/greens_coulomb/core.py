"""Shared value types, coordinates, permittivity handling and error taxonomy.

All quantities are SI: lengths in meters, charge in coulombs, energies in
joules, Green's function values in 1/m. Every type here is an immutable
value type and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class CoulombError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CoulombError, ValueError):
    """A parameter is outside its physical domain (eps < 1, d <= 0, r < 0, ...)."""


class CoincidentPointsError(CoulombError):
    """Field and source point coincide where the kernel is singular."""


class OnPlateError(CoulombError):
    """A point lies on the conductor of the plate-with-aperture geometry."""


class OnSurfaceError(CoulombError):
    """A charge sits on a material surface where the energy is not differentiable."""


class OutOfRegionError(CoulombError):
    """A point is outside the region where the requested formula is valid."""


class ConvergenceError(CoulombError):
    """A quadrature or series did not converge within its budget."""


class UnsupportedGeometryError(CoulombError):
    """The requested observable is not defined for this geometry."""


class StepTooLargeError(CoulombError):
    """The finite-difference error estimate exceeds 1% of the force magnitude."""


class SolverError(CoulombError):
    """The sparse linear solve did not reach the requested residual."""


class SourceOnInterfaceError(CoulombError):
    """The finite-difference source lies on a permittivity interface."""


class PointInsideBodyError(CoulombError):
    """A field point lies inside the polarizable body volume."""


class SceneError(CoulombError, ValueError):
    """A scene description failed schema validation."""


# ---------------------------------------------------------------------------
# Permittivity
# ---------------------------------------------------------------------------

class Conductor(Enum):
    """Explicit perfect-conductor state, kept out of float arithmetic.

    Formulas take the conductor limit analytically (reflection coefficient
    -> +-1 depending on convention) instead of plugging in a large number.
    """

    PERFECT = "perfect_conductor"


PERFECT_CONDUCTOR = Conductor.PERFECT

Permittivity = Union[float, Conductor]


def is_conductor(eps: Permittivity) -> bool:
    return isinstance(eps, Conductor)


def validate_eps(eps: Permittivity, name: str = "eps") -> None:
    """Permittivities must be >= 1 or the perfect-conductor state."""
    if is_conductor(eps):
        return
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps >= 1.0):
        raise DomainError(f"{name} must be >= 1 or PERFECT_CONDUCTOR, got {eps!r}")


def finite_eps(eps: Permittivity, name: str = "eps") -> float:
    if is_conductor(eps):
        raise DomainError(f"{name} must be a finite permittivity here, not a conductor")
    validate_eps(eps, name)
    return float(eps)


# ---------------------------------------------------------------------------
# Points and charges
# ---------------------------------------------------------------------------

def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Point3:
    """Cartesian point in meters, with cylindrical helpers."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        return math.atan2(self.y, self.x)

    def cylindrical(self) -> Tuple[float, float, float]:
        return (self.rho, self.phi, self.z)

    def mirror_z(self) -> "Point3":
        return Point3(self.x, self.y, -self.z)

    def shifted(self, dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> "Point3":
        return Point3(self.x + dx, self.y + dy, self.z + dz)


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y, a.z - b.z)


def mirror_z(p: Point3) -> Point3:
    """Reflection through the z = 0 plane; an involution."""
    return p.mirror_z()


@dataclass(frozen=True)
class Charge:
    """Point charge: q in coulombs at a position."""

    q: float
    position: Point3

    def __post_init__(self):
        object.__setattr__(self, "q", _require_finite(self.q, "q"))


# ---------------------------------------------------------------------------
# Results and numerical controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueWithError:
    """A scalar plus an estimated absolute numerical error (0 for closed forms)."""

    value: float
    abs_err: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_err", float(self.abs_err))
        if not math.isfinite(self.value):
            raise DomainError(f"value must be finite, got {self.value!r}")
        if not (self.abs_err >= 0.0):
            raise DomainError(f"abs_err must be >= 0, got {self.abs_err!r}")


class GreensValue(ValueWithError):
    """Scalar Green's-function evaluation in 1/m."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the oscillatory-integral engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_panels: int = 400
    accel_order: int = 12

    def __post_init__(self):
        # an infinite tolerance times a zero scale is NaN, which no panel meets
        if not (0.0 < self.rel_tol < math.inf):
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if not (0.0 <= self.abs_tol < math.inf):
            raise DomainError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if self.max_panels < 8:
            raise DomainError(f"max_panels must be >= 8, got {self.max_panels!r}")
        if self.accel_order < 1:
            raise DomainError(f"accel_order must be >= 1, got {self.accel_order!r}")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# Geometries with purely scalar parameters. The spatially-dispersive bulk
# and the dilute polarizable body live next to their physics (screening.py,
# born.py) but belong to the same tagged union.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeSpace:
    """Uniform medium of permittivity eps (vacuum by default)."""

    eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eps", finite_eps(self.eps, "eps"))


@dataclass(frozen=True)
class HalfSpace:
    """Planar interface at z = 0; region 1 (eps1) occupies z > 0."""

    eps1: Permittivity
    eps2: Permittivity

    def __post_init__(self):
        validate_eps(self.eps1, "eps1")
        validate_eps(self.eps2, "eps2")
        if is_conductor(self.eps1) and is_conductor(self.eps2):
            raise DomainError("at least one half-space must be a dielectric")


@dataclass(frozen=True)
class ThreeLayerCavity:
    """Gap of width d filled with eps2 between half-spaces eps1 (z < -d/2) and eps3 (z > d/2)."""

    eps1: Permittivity
    eps2: float
    eps3: Permittivity
    d: float

    def __post_init__(self):
        validate_eps(self.eps1, "eps1")
        object.__setattr__(self, "eps2", finite_eps(self.eps2, "eps2"))
        validate_eps(self.eps3, "eps3")
        object.__setattr__(self, "d", _require_finite(self.d, "d"))
        if not (self.d > 0.0):
            raise DomainError(f"gap width d must be > 0, got {self.d!r}")


@dataclass(frozen=True)
class PlateWithHole:
    """Perfectly conducting plate at z = 0 with a circular aperture of radius R.

    R = 0 is the solid plate; R > 0 opens the aperture (centered on the z axis).
    """

    R: float

    def __post_init__(self):
        object.__setattr__(self, "R", _require_finite(self.R, "R"))
        if self.R < 0.0:
            raise DomainError(f"aperture radius R must be >= 0, got {self.R!r}")
