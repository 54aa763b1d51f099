"""Shared value types, coordinates, permittivity handling, error taxonomy and
the geometry protocol.

All quantities are SI: lengths in meters, charge in coulombs, energies in
joules, Green's function values in 1/m. Every type here is an immutable
value type and safe to share between threads.

Each geometry computes its own observables from its Green's function (see
`Geometry`); the ones with purely scalar parameters are defined here, and
`NonlocalBulk` and `DiluteBody` next to their physics in screening.py and
born.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np
from scipy.constants import epsilon_0


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

    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


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


# The smallest rel_tol a spec takes: the quadrature panels and the Born
# octree cells accept a difference of 1e-15 of their values as converged.
MIN_REL_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the oscillatory-integral engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_panels: int = 400

    def __post_init__(self):
        # an infinite tolerance times a zero scale is NaN, which no panel meets
        if not (MIN_REL_TOL <= self.rel_tol < math.inf):
            raise DomainError(f"rel_tol must be finite and >= {MIN_REL_TOL:g}, the acceptance "
                              f"floor of the quadrature panels and the Born octree cells; "
                              f"got {self.rel_tol!r}")
        if not (0.0 <= self.abs_tol < math.inf):
            raise DomainError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if self.max_panels < 8:
            raise DomainError(f"max_panels must be >= 8, got {self.max_panels!r}")


DEFAULT_QUADRATURE = QuadratureSpec()


FOUR_PI_EPS0 = 4.0 * math.pi * epsilon_0


@dataclass(frozen=True)
class InteractionResult:
    """Energy in joules; ratio_to_free = U / U_free where that is defined."""

    energy: float
    ratio_to_free: Optional[float]
    abs_err: float = 0.0


# ---------------------------------------------------------------------------
# Geometries
# ---------------------------------------------------------------------------

class Geometry:
    """An environment, given by its static Green's function.

    Each geometry answers for itself:

    * host_eps(p): the finite permittivity of the medium at p, or None
      inside a conductor;
    * surface_distance(p): the distance from p to the nearest material
      surface (inf if there is none);
    * self_energy(a, spec): U1 = q^2/(2 eps0) g1(r, r), the free-space
      divergence subtracted;
    * pair_energy(a, b, spec): U = qA qB / eps0 g(rA, rB), for distinct points;
    * closed_force(a, b, spec): -grad_A of the pair energy (b given) or of
      the self-energy (b None), shape (3,), from the gradient of the Green's
      function. It always returns a force or raises, and it rejects what the
      energy it differentiates rejects.

    A charge inside a perfect conductor has no self-energy or self-force
    (OutOfRegionError); a half-space pair with a charge in the conductor is
    fully screened, with energy and force 0.
    """

    def _pair_result(self, energy: float, abs_err: float, a: Charge,
                     b: Charge) -> InteractionResult:
        """The pair result, its ratio taken to the free-space energy in the midpoint's host."""
        ratio = None
        mid = Point3(0.5 * (a.position.x + b.position.x),
                     0.5 * (a.position.y + b.position.y),
                     0.5 * (a.position.z + b.position.z))
        eps_host = self.host_eps(mid)
        dist = distance(a.position, b.position)
        qq = a.q * b.q
        # U_free = 0 at an infinite separation or a zero (or underflowing) product
        if eps_host is not None and math.isfinite(dist) and qq != 0.0:
            ratio = energy * FOUR_PI_EPS0 * eps_host * dist / qq
        return InteractionResult(energy, ratio, abs_err)


@dataclass(frozen=True)
class FreeSpace(Geometry):
    """Uniform medium of permittivity eps (vacuum by default)."""

    eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eps", finite_eps(self.eps, "eps"))

    def host_eps(self, p: Point3) -> float:
        return self.eps

    def surface_distance(self, p: Point3) -> float:
        return math.inf

    def self_energy(self, a: Charge, spec: QuadratureSpec) -> InteractionResult:
        return InteractionResult(0.0, None, 0.0)

    def pair_energy(self, a: Charge, b: Charge, spec: QuadratureSpec) -> InteractionResult:
        pref = a.q * b.q / epsilon_0
        g = analytic.free_space_g(a.position, b.position, self.eps)
        return self._pair_result(pref * g.value, abs(pref) * g.abs_err, a, b)

    def closed_force(self, a: Charge, b: Optional[Charge],
                     spec: QuadratureSpec) -> np.ndarray:
        if b is None:
            return np.zeros(3)
        rvec = a.position.vec() - b.position.vec()
        r = distance(a.position, b.position)
        return a.q * b.q * rvec / (FOUR_PI_EPS0 * self.eps * r * r * r)


@dataclass(frozen=True)
class HalfSpace(Geometry):
    """Planar interface at z = 0; region 1 (eps1) occupies z > 0."""

    eps1: Permittivity
    eps2: Permittivity

    def __post_init__(self):
        validate_eps(self.eps1, "eps1")
        validate_eps(self.eps2, "eps2")
        if is_conductor(self.eps1) and is_conductor(self.eps2):
            raise DomainError("at least one half-space must be a dielectric")

    def host_eps(self, p: Point3) -> Optional[float]:
        side = self.eps1 if p.z >= 0.0 else self.eps2
        return None if is_conductor(side) else float(side)

    def surface_distance(self, p: Point3) -> float:
        return abs(p.z)

    def _pair_eps(self, a: Charge, b: Charge, where: str):
        """host_eps of A and of B, neither of which may sit on the interface."""
        if a.position.z == 0.0 or b.position.z == 0.0:
            raise OnSurfaceError(f"{where}: charge on the interface")
        return self.host_eps(a.position), self.host_eps(b.position)

    def self_energy(self, a: Charge, spec: QuadratureSpec) -> InteractionResult:
        p = a.position
        if p.z == 0.0:
            raise OnSurfaceError("self_energy: charge on the interface")
        if p.z > 0.0:
            e_side, e_other = self.eps1, self.eps2
        else:
            e_side, e_other = self.eps2, self.eps1
        if is_conductor(e_side):
            raise OutOfRegionError("self_energy: charge inside a perfect conductor")
        pref = a.q * a.q / (2.0 * epsilon_0)
        g1 = analytic.interface_reflection(e_side, e_other) / (
            8.0 * math.pi * float(e_side) * abs(p.z))
        return InteractionResult(pref * g1, None, 0.0)

    def pair_energy(self, a: Charge, b: Charge, spec: QuadratureSpec) -> InteractionResult:
        eps_a, eps_b = self._pair_eps(a, b, "pair_energy")
        # A charge embedded in a perfectly conducting region is completely
        # screened: no field reaches the other charge, so U = 0.
        if eps_a is None or eps_b is None:
            return InteractionResult(0.0, None, 0.0)
        ra, rb = a.position, b.position
        pref = a.q * b.q / epsilon_0
        if ra.z * rb.z > 0.0:
            if ra.z > 0.0:
                field, src, e1, e2 = ra, rb, self.eps1, self.eps2
            else:
                field, src, e1, e2 = ra.mirror_z(), rb.mirror_z(), self.eps2, self.eps1
            g = analytic.half_space_g(field, src, e1, e2)
            return self._pair_result(pref * g.value, abs(pref) * g.abs_err, a, b)
        g = 2.0 / ((eps_a + eps_b) * 4.0 * math.pi * distance(ra, rb))
        return InteractionResult(pref * g, None, 0.0)  # different media: no ratio

    def closed_force(self, a: Charge, b: Optional[Charge],
                     spec: QuadratureSpec) -> np.ndarray:
        za = a.position.z
        e_other = self.eps2 if za > 0.0 else self.eps1
        if b is None:
            eps_a = self.host_eps(a.position)
            if eps_a is None:
                raise OutOfRegionError("force_on_A: charge inside a perfect conductor")
            refl = analytic.interface_reflection(eps_a, e_other)
            # divided by za last, twice: za * za, or a product with za, underflows
            # to 0 for the tiniest |za|, where the quotient overflows to inf instead
            fz = a.q * a.q * refl / (4.0 * FOUR_PI_EPS0 * eps_a) / za / za
            return np.array([0.0, 0.0, (1.0 if za > 0.0 else -1.0) * fz])
        eps_a, eps_b = self._pair_eps(a, b, "force_on_A")
        if eps_a is None or eps_b is None:
            return np.zeros(3)
        d = a.position.vec() - b.position.vec()
        nd = math.hypot(*d)
        if za * b.position.z > 0.0:
            refl = analytic.interface_reflection(eps_a, e_other)
            ds = a.position.vec() - b.position.mirror_z().vec()
            nds = math.hypot(*ds)
            pref = a.q * b.q / (FOUR_PI_EPS0 * eps_a)
            return pref * (d / (nd * nd * nd) + refl * ds / (nds * nds * nds))
        return a.q * b.q * 2.0 / (eps_a + eps_b) * d / (FOUR_PI_EPS0 * nd * nd * nd)


@dataclass(frozen=True)
class ThreeLayerCavity(Geometry):
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

    def host_eps(self, p: Point3) -> Optional[float]:
        if abs(p.z) < 0.5 * self.d:
            return self.eps2
        side = self.eps1 if p.z < 0.0 else self.eps3
        return None if is_conductor(side) else float(side)

    def surface_distance(self, p: Point3) -> float:
        return abs(0.5 * self.d - abs(p.z))

    def _conducting(self) -> bool:
        return is_conductor(self.eps1) and is_conductor(self.eps3)

    def _in_gap(self, charges, where: str) -> None:
        for q, name in charges:
            if not (abs(q.position.z) < 0.5 * self.d):
                raise OutOfRegionError(f"{where}: charge {name} outside the gap")

    def _modal(self, rho: float) -> bool:
        """Both walls conduct and rho reaches the mode sum's range."""
        return self._conducting() and rho >= cavity.MODAL_RHO_MIN * self.d

    def self_energy(self, a: Charge, spec: QuadratureSpec) -> InteractionResult:
        self._in_gap(((a, "A"),), "self_energy")
        z = a.position.z
        pref = a.q * a.q / (2.0 * epsilon_0)
        if self._conducting():
            g1 = cavity.conducting_gap_g1(z, self.d, self.eps2)
        else:
            g1 = cavity.cavity_scattering_g1(z, self.d, self.eps1, self.eps2, self.eps3, spec)
        return InteractionResult(pref * g1.value, None, abs(pref) * g1.abs_err)

    def pair_energy(self, a: Charge, b: Charge, spec: QuadratureSpec) -> InteractionResult:
        self._in_gap(((a, "A"), (b, "B")), "pair_energy")
        ra, rb = a.position, b.position
        pref = a.q * b.q / epsilon_0
        rho = math.hypot(ra.x - rb.x, ra.y - rb.y)
        if self._modal(rho):
            g = cavity.conducting_gap_g(ra.z, rb.z, rho, self.d, self.eps2)
        else:
            g = cavity.cavity_g_general(ra.z, rb.z, rho, self.d, self.eps1, self.eps2,
                                        self.eps3, spec)
        return self._pair_result(pref * g.value, abs(pref) * g.abs_err, a, b)

    def closed_force(self, a: Charge, b: Optional[Charge],
                     spec: QuadratureSpec) -> np.ndarray:
        ra = a.position
        if b is None:
            self._in_gap(((a, "A"),), "force_on_A")
            if self._conducting():
                dg1 = cavity.conducting_gap_dg1(ra.z, self.d, self.eps2)
            else:
                dg1 = cavity.cavity_scattering_dg1(ra.z, self.d, self.eps1, self.eps2,
                                                   self.eps3, spec)
            return np.array([0.0, 0.0, -a.q * a.q / (2.0 * epsilon_0) * dg1.value])
        self._in_gap(((a, "A"), (b, "B")), "force_on_A")
        rb = b.position
        dx, dy = ra.x - rb.x, ra.y - rb.y
        rho = math.hypot(dx, dy)
        if self._modal(rho):
            d_rho, d_z = cavity.conducting_gap_grad(ra.z, rb.z, rho, self.d, self.eps2)
        else:
            d_rho, d_z = cavity.cavity_grad_general(ra.z, rb.z, rho, self.d, self.eps1,
                                                    self.eps2, self.eps3, spec)
        radial = d_rho.value / rho if rho > 0.0 else 0.0
        return -a.q * b.q / epsilon_0 * np.array([radial * dx, radial * dy, d_z.value])


@dataclass(frozen=True)
class PlateWithHole(Geometry):
    """Perfectly conducting plate at z = 0 with a circular aperture of radius R.

    R = 0 is the solid plate; R > 0 opens the aperture (centered on the z axis).
    """

    R: float

    def __post_init__(self):
        object.__setattr__(self, "R", _require_finite(self.R, "R"))
        if self.R < 0.0:
            raise DomainError(f"aperture radius R must be >= 0, got {self.R!r}")

    def host_eps(self, p: Point3) -> float:
        return 1.0

    def surface_distance(self, p: Point3) -> float:
        rho = p.rho
        if rho >= self.R:
            return abs(p.z)
        return math.hypot(self.R - rho, p.z)

    def _on_axis(self, p: Point3, where: str) -> None:
        if p.rho > 1e-12 * max(abs(p.z), self.R):
            raise UnsupportedGeometryError(
                f"plate-with-hole {where} is provided on the symmetry axis only")

    def self_energy(self, a: Charge, spec: QuadratureSpec) -> InteractionResult:
        p = a.position
        pref = a.q * a.q / (2.0 * epsilon_0)
        if p.z == 0.0 and (self.R == 0.0 or p.rho >= self.R):
            raise OnSurfaceError("self_energy: charge on the plate")
        if self.R == 0.0:
            return InteractionResult(pref * (-1.0 / (8.0 * math.pi * abs(p.z))), None, 0.0)
        self._on_axis(p, "self-energy")
        return InteractionResult(pref * kernels.hole_onaxis_g1(p.z, self.R), None, 0.0)

    def pair_energy(self, a: Charge, b: Charge, spec: QuadratureSpec) -> InteractionResult:
        ra, rb = a.position, b.position
        pref = a.q * b.q / epsilon_0
        if self.R == 0.0:
            for q in (a, b):
                if q.position.z == 0.0:
                    raise OnPlateError("pair_energy: charge on the plate")
            if ra.z * rb.z < 0.0:
                return InteractionResult(0.0, 0.0, 0.0)
            field, src = (ra, rb) if rb.z > 0.0 else (ra.mirror_z(), rb.mirror_z())
            g = analytic.half_space_g(field, src, 1.0, PERFECT_CONDUCTOR)
            return self._pair_result(pref * g.value, 0.0, a, b)
        g = analytic.plate_hole_g(ra, rb, self.R)
        return self._pair_result(pref * g.value, abs(pref) * g.abs_err, a, b)

    def closed_force(self, a: Charge, b: Optional[Charge],
                     spec: QuadratureSpec) -> np.ndarray:
        p = a.position
        if self.R == 0.0:
            # the image forms of a grounded plane, from above; nothing crosses it
            if b is not None and b.position.z == 0.0:
                raise OnPlateError("force_on_A: charge on the plate")
            if p.z > 0.0:
                return _SOLID_PLATE.closed_force(a, b, spec)

            def mirror(q):
                return None if q is None else Charge(q.q, q.position.mirror_z())

            fx, fy, fz = _SOLID_PLATE.closed_force(mirror(a), mirror(b), spec)
            return np.array([fx, fy, -fz])
        if b is not None:
            pref = -a.q * b.q / epsilon_0
            return np.array([pref * c for c in analytic.plate_hole_grad(p, b.position, self.R)])
        self._on_axis(p, "self-force")
        return np.array([0.0, 0.0, -a.q * a.q / (2.0 * epsilon_0)
                         * kernels.hole_onaxis_dg1(p.z, self.R)])


# the solid plate (R = 0) is the grounded plane, seen from above
_SOLID_PLATE = HalfSpace(1.0, PERFECT_CONDUCTOR)

# the geometries' physics; analytic and cavity import this module, so they come last
from . import analytic, cavity, kernels  # noqa: E402
