"""Shared value types, coordinates, permittivity handling, error taxonomy and
the geometry protocol.

All quantities are SI: lengths in meters, charge in coulombs, energies in
joules, Green's function values in 1/m. Every type here is an immutable
value type and safe to share between threads.

Each geometry supplies its Green's function and its gradients (see
`Geometry`), and `interactions` turns them into energies and forces; the
geometries with purely scalar parameters are defined here, and
`NonlocalBulk` and `DiluteBody` next to their physics in screening.py and
born.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

# CODATA 2022, as scipy.constants gives them; written out so that importing
# the package loads no scipy
EPSILON_0 = 8.8541878188e-12  # vacuum permittivity, F/m
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact in the SI


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class CoulombError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CoulombError, ValueError):
    """A parameter is outside its physical domain (eps < 1, d <= 0, r < 0, ...)."""


class CoincidentPointsError(CoulombError):
    """Field and source point coincide where the kernel is singular."""


class OnSurfaceError(CoulombError):
    """A charge sits on a material surface where the energy is not differentiable."""


class OnPlateError(OnSurfaceError):
    """A point lies on the conductor of the plate-with-aperture geometry."""


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


def until_error(items: Iterable) -> Tuple[list, Optional[CoulombError]]:
    """The items of `items` up to the first CoulombError that iterating it
    raises, and that error (None if it raised none).

    A batch admits its points with it: it evaluates the points before the
    first that fails and raises that point's error after them, so that the
    first point in order to fail decides the outcome, as one point at a
    time would.
    """
    done: list = []
    try:
        for item in items:
            done.append(item)
    except CoulombError as exc:
        return done, exc
    return done, None


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


def interface_reflection(eps1: Permittivity, eps2: Permittivity) -> float:
    """(eps1 - eps2) / (eps1 + eps2); -1 when medium 2 is a perfect conductor."""
    if is_conductor(eps2):
        return -1.0
    if is_conductor(eps1):
        return 1.0
    e1, e2 = float(eps1), float(eps2)
    return (e1 - e2) / (e1 + e2)


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
    """Cartesian point in meters; rho is its distance from the z axis."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)

    def mirror_z(self) -> "Point3":
        return Point3(self.x, self.y, -self.z)

    def shifted(self, dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> "Point3":
        return Point3(self.x + dx, self.y + dy, self.z + dz)


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y, a.z - b.z)


@dataclass(frozen=True)
class Charge:
    """Point charge: q in coulombs at a position."""

    q: float
    position: Point3

    def __post_init__(self):
        object.__setattr__(self, "q", _require_finite(self.q, "q"))


# ---------------------------------------------------------------------------
# Values and numerical controls
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
            raise DomainError(f"value must be finite in float64, got {self.value!r}")
        if not (self.abs_err >= 0.0):
            raise DomainError(f"abs_err must be >= 0, got {self.abs_err!r}")


# The smallest rel_tol a spec takes: the quadrature panels and the Born
# octree cells accept a difference of 1e-15 of their values as converged.
MIN_REL_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the oscillatory-integral engine and the Born octree.

    rel_tol is relative to the value sought. abs_tol, an absolute floor (0
    for each route's default floor, README numerical notes), is read by the
    gap alone, through `cavity._Pair.floor`, which gives its quadrature the
    floor in the units it sums in; the Born octree and the closed forms do
    not read it. Their budgets are module constants: `quadrature._MAX_PANELS`
    panels per integral and `born._MAX_DEPTH` octree levels.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 0.0

    def __post_init__(self):
        # an infinite tolerance times a zero scale is NaN, which no panel meets
        if not (MIN_REL_TOL <= self.rel_tol < math.inf):
            raise DomainError(f"rel_tol must be finite and >= {MIN_REL_TOL:g}, the acceptance "
                              f"floor of the quadrature panels and the Born octree cells; "
                              f"got {self.rel_tol!r}")
        if not (0.0 <= self.abs_tol < math.inf):
            raise DomainError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# Geometries
# ---------------------------------------------------------------------------

Gradient = Tuple[float, float, float]


class Geometry:
    """An environment, given by its static Green's function.

    Each geometry supplies its Green's function and nothing else;
    `interactions` turns it into energies and forces. A geometry writes:

    * host_eps(p): the finite permittivity of the medium at p, or None
      inside a conductor. It is the geometry's one admission rule: a point
      where no charge may sit (on an interface, outside a gap, on a plate,
      in a body) raises the geometry's own error;
    * _g(r, r_src, spec): the Green's function, a ValueWithError;
    * _g1(r, spec): its scattering part at coincident points, g1(r, r), the
      free-space divergence subtracted;
    * _grad_g(r, r_src, spec): the gradient of g in the field point r;
    * _grad_g1(r, spec): the gradient of r -> g1(r, r), both points moving.

    g_many and g1_many evaluate many points in one call, as a sweep does.
    They yield each point's value in order, and a point that raises does so
    when the iteration reaches it, after every point before it was yielded.
    They hand the admitted points to _g_many and _g1_many, which loop over
    _g and _g1 here; a geometry that sums many points at once (the gap's
    image series) writes those instead, and its _g and _g1 are a batch of
    one.

    The public g, g1, grad_g and grad_g1, written here alone, apply the
    rules every geometry shares, in this order: host_eps admits each point;
    coincident points raise CoincidentPointsError; a pair too far apart for
    float64 has g = 0 (every environment here vanishes at an infinite
    separation) and a gradient that is a DomainError. The private methods
    thus see admitted, distinct points at a finite distance, and reject only
    what their own value is not defined for, such as the scattering part
    inside a conductor.

    The gradients are 3-tuples of Python floats; where one overflows it is
    not finite and `force_on_A` rejects the force, while a g or g1 that
    overflows raises DomainError in ValueWithError. A point inside a
    perfect conductor of a half-space is fully screened, so g and its
    gradient are 0 there.
    """

    def _far_pair(self, r: Point3, r_src: Point3) -> bool:
        """Admit both points and reject coincident ones; True where their
        distance overflows float64."""
        self.host_eps(r)
        self.host_eps(r_src)
        dist = distance(r, r_src)
        if dist == 0.0:
            raise CoincidentPointsError(f"{type(self).__name__}: r coincides with r_src")
        return dist == math.inf

    def _too_far(self) -> DomainError:
        """The error of a gradient at a distance that overflows float64."""
        return DomainError(f"{type(self).__name__}: the points are too far apart for float64")

    def g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        if self._far_pair(r, r_src):
            return ValueWithError(0.0)
        return self._g(r, r_src, spec)

    def g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        self.host_eps(r)
        return self._g1(r, spec)

    def g_many(self, pairs: Iterable[Tuple[Point3, Point3]],
               spec: QuadratureSpec) -> Iterator[ValueWithError]:
        """g at each (r, r_src) of `pairs`, in order, as one batch.

        Every pair is admitted before any is evaluated; a pair refused by
        the rules of g raises once the pairs before it were yielded.
        """
        admitted, refused = until_error((r, r_src, self._far_pair(r, r_src))
                                        for r, r_src in pairs)
        near = self._g_many([(r, r_src) for r, r_src, far in admitted if not far], spec)
        for _, _, far in admitted:
            yield ValueWithError(0.0) if far else next(near)
        if refused is not None:
            raise refused

    def g1_many(self, points: Iterable[Point3],
                spec: QuadratureSpec) -> Iterator[ValueWithError]:
        """g1 at each point of `points`, in order, as one batch, admitted as
        by g_many."""
        admitted, refused = until_error(self._admit(r) for r in points)
        yield from self._g1_many(admitted, spec)
        if refused is not None:
            raise refused

    def _admit(self, r: Point3) -> Point3:
        self.host_eps(r)
        return r

    def _g_many(self, pairs: Sequence[Tuple[Point3, Point3]],
                spec: QuadratureSpec) -> Iterator[ValueWithError]:
        return (self._g(r, r_src, spec) for r, r_src in pairs)

    def _g1_many(self, points: Sequence[Point3],
                 spec: QuadratureSpec) -> Iterator[ValueWithError]:
        return (self._g1(r, spec) for r in points)

    def grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        if self._far_pair(r, r_src):
            raise self._too_far()
        return self._grad_g(r, r_src, spec)

    def grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        self.host_eps(r)
        return self._grad_g1(r, spec)


@dataclass(frozen=True)
class FreeSpace(Geometry):
    """Uniform medium of permittivity eps (vacuum by default)."""

    eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eps", finite_eps(self.eps, "eps"))

    def host_eps(self, p: Point3) -> float:
        return self.eps

    def _g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        return analytic.free_space_g(r, r_src, self.eps)

    def _g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        return ValueWithError(0.0)

    def _grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        return analytic.free_space_grad(r, r_src, self.eps)

    def _grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        return 0.0, 0.0, 0.0


@dataclass(frozen=True)
class HalfSpace(Geometry):
    """Planar interface at z = 0; region 1 (eps1) occupies z > 0.

    A pair on one side, of permittivity eps, sees the direct term and an
    image reflected in the plane, (1/d + refl/d*) / (4 pi eps), with d the
    distance to the source, d* that to its mirror image and refl =
    interface_reflection(eps, eps_other). The sum is written as two terms
    of one sign, (1 + refl)/d* + 4 z z'/(d d* (d + d*)), so that the image
    never cancels the direct term's digits (a grounded plane seen from
    afar). A pair across the interface sees the transmitted term
    2 / ((eps_a + eps_b) 4 pi d). No charge may sit on the interface:
    host_eps raises OnSurfaceError at z = 0.
    """

    eps1: Permittivity
    eps2: Permittivity

    def __post_init__(self):
        validate_eps(self.eps1, "eps1")
        validate_eps(self.eps2, "eps2")
        if is_conductor(self.eps1) and is_conductor(self.eps2):
            raise DomainError("at least one half-space must be a dielectric")

    def host_eps(self, p: Point3) -> Optional[float]:
        if p.z == 0.0:
            raise OnSurfaceError(f"half-space: charge at {p} sits on the interface z = 0")
        side = self.eps1 if p.z > 0.0 else self.eps2
        return None if is_conductor(side) else float(side)

    def _other_side(self, r: Point3) -> Permittivity:
        return self.eps2 if r.z > 0.0 else self.eps1

    def _self_eps(self, r: Point3):
        """host_eps of r, a dielectric, and the reflection coefficient of the
        interface seen from r."""
        eps = self.host_eps(r)
        if eps is None:
            raise OutOfRegionError("half-space self-term: charge inside a perfect conductor")
        return eps, interface_reflection(eps, self._other_side(r))

    def _image(self, r: Point3, r_src: Point3, eps: float):
        """For a pair on one side of permittivity eps: 1 + refl and 1 - refl,
        each formed without cancelling, and the distances d and d*."""
        other = self._other_side(r)
        up, down = (0.0, 2.0) if is_conductor(other) else (2.0 / (1.0 + other / eps),
                                                            2.0 / (1.0 + eps / other))
        return up, down, distance(r, r_src), distance(r, r_src.mirror_z())

    def _g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        eps_a, eps_b = self.host_eps(r), self.host_eps(r_src)
        if eps_a is None or eps_b is None:
            return ValueWithError(0.0)  # no field crosses into a perfect conductor
        if (r.z > 0.0) != (r_src.z > 0.0):
            return ValueWithError(2.0 / ((eps_a + eps_b) * 4.0 * math.pi * distance(r, r_src)))
        up, _, d, ds = self._image(r, r_src, eps_a)
        near = 4.0 * (r.z / d) * (r_src.z / ds) / (d + ds)
        return ValueWithError((up / ds + near) / (4.0 * math.pi * eps_a))

    def _g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        eps_a, refl = self._self_eps(r)
        return ValueWithError(refl / (8.0 * math.pi * eps_a * abs(r.z)))

    def _grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        """The gradient of the same-sign form: with 1/d^3 - 1/d*^3 =
        (d* - d)(d*^2 + d d* + d^2)/(d^3 d*^3) = near/d^2, the lateral
        components are dx [near/d^2 + (1 + refl)/d*^3] and the normal one
        (z - z') near/d^2 + ((1 + refl) z - (1 - refl) z')/d*^3, each term
        divided in stages and 0 where its offset is 0."""
        eps_a, eps_b = self.host_eps(r), self.host_eps(r_src)
        if eps_a is None or eps_b is None:
            return 0.0, 0.0, 0.0
        if (r.z > 0.0) != (r_src.z > 0.0):
            return analytic.free_space_grad(r, r_src, 0.5 * (eps_a + eps_b))
        up, down, d, ds = self._image(r, r_src, eps_a)
        q = d / ds
        near = 4.0 * (r.z / d) * (r_src.z / ds) * (1.0 + q + q * q) / (d + ds)
        c = -1.0 / (4.0 * math.pi * eps_a)
        dx, dy, dz = r.x - r_src.x, r.y - r_src.y, r.z - r_src.z
        normal = up * r.z - down * r_src.z
        return (c * (_over_square(near, dx, d) + _over_square(up / ds, dx, ds)),
                c * (_over_square(near, dy, d) + _over_square(up / ds, dy, ds)),
                c * (_over_square(near, dz, d) + _over_square(1.0 / ds, normal, ds)))

    def _grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        eps_a, refl = self._self_eps(r)
        # divided by z last, twice: z * z, or a product with z, underflows
        # to 0 for the tiniest |z|, where the quotient overflows to inf instead
        slope = refl / (8.0 * math.pi * eps_a) / r.z / r.z
        return 0.0, 0.0, -slope if r.z > 0.0 else slope


def _over_square(k: float, delta: float, d: float) -> float:
    """k delta / d^2, divided by d in stages; 0 where delta is 0, even if k overflows."""
    return k * delta / d / d if delta else 0.0


@dataclass(frozen=True)
class ThreeLayerCavity(Geometry):
    """Gap of width d filled with eps2 between half-spaces eps1 (z < -d/2) and eps3 (z > d/2).

    Charges sit in the gap: host_eps raises OutOfRegionError for |z| >= d/2.
    Building it validates d and the permittivities and derives the walls'
    reflection coefficients, `coeffs`, once; `cavity.gap_many` alone picks
    the route of every value and gradient, from those.
    """

    eps1: Permittivity
    eps2: float
    eps3: Permittivity
    d: float
    coeffs: "cavity.CavityCoeffs" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_eps(self.eps1, "eps1")
        object.__setattr__(self, "eps2", finite_eps(self.eps2, "eps2"))
        validate_eps(self.eps3, "eps3")
        object.__setattr__(self, "d", _require_finite(self.d, "d"))
        if not (self.d > 0.0):
            raise DomainError(f"gap width d must be > 0, got {self.d!r}")
        object.__setattr__(self, "coeffs",
                           cavity.reflection_coeffs(self.eps1, self.eps2, self.eps3))

    def host_eps(self, p: Point3) -> float:
        if not (abs(p.z) < 0.5 * self.d):
            raise OutOfRegionError(f"gap: charge at z = {p.z!r} outside the gap")
        return self.eps2

    def _g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        return next(self._g_many(((r, r_src),), spec))

    def _g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        return next(self._g1_many((r,), spec))

    def _g_many(self, pairs: Sequence[Tuple[Point3, Point3]],
                spec: QuadratureSpec) -> Iterator[ValueWithError]:
        return cavity.gap_many(self, [(r.z, r_src.z, math.hypot(r.x - r_src.x, r.y - r_src.y))
                                      for r, r_src in pairs], spec)

    def _g1_many(self, points: Sequence[Point3],
                 spec: QuadratureSpec) -> Iterator[ValueWithError]:
        return cavity.gap_many(self, [(r.z, r.z, 0.0) for r in points], spec)

    def _grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        dx, dy = r.x - r_src.x, r.y - r_src.y
        rho = math.hypot(dx, dy)
        d_rho, d_z = next(cavity.gap_many(self, [(r.z, r_src.z, rho)], spec, gradient=True))
        radial = d_rho.value / rho if rho > 0.0 else 0.0
        return radial * dx, radial * dy, d_z.value

    def _grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        _, d_z = next(cavity.gap_many(self, [(r.z, r.z, 0.0)], spec, gradient=True))
        return 0.0, 0.0, d_z.value


@dataclass(frozen=True)
class PlateWithHole(Geometry):
    """Perfectly conducting plate at z = 0 with a circular aperture of radius R.

    R = 0 is the solid plate; R > 0 opens the aperture (centered on the z axis).
    No charge may sit on the conductor: host_eps raises OnPlateError at z = 0,
    rho >= R.
    """

    R: float

    def __post_init__(self):
        object.__setattr__(self, "R", _require_finite(self.R, "R"))
        if self.R < 0.0:
            raise DomainError(f"aperture radius R must be >= 0, got {self.R!r}")

    def host_eps(self, p: Point3) -> float:
        if p.z == 0.0 and p.rho >= self.R:
            raise OnPlateError(f"plate: charge at {p} sits on the conductor (z = 0, rho >= R)")
        return 1.0

    def _on_axis(self, p: Point3, where: str) -> None:
        if p.rho > 1e-12 * max(abs(p.z), self.R):
            raise UnsupportedGeometryError(
                f"plate-with-hole {where} is provided on the symmetry axis only")

    @staticmethod
    def _solid(r: Point3) -> HalfSpace:
        """The solid plate (R = 0) as the grounded half-space with vacuum on r's side."""
        return _GROUNDED_BELOW if r.z > 0.0 else _GROUNDED_ABOVE

    def _g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        if self.R == 0.0:
            return self._solid(r)._g(r, r_src, spec)
        return analytic.plate_hole_g(r, r_src, self.R)

    def _g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        if self.R == 0.0:
            return self._solid(r)._g1(r, spec)
        self._on_axis(r, "self-energy")
        return ValueWithError(kernels.hole_onaxis_g1(r.z, self.R))

    def _grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        if self.R == 0.0:
            return self._solid(r)._grad_g(r, r_src, spec)
        return analytic.plate_hole_grad(r, r_src, self.R)

    def _grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        if self.R == 0.0:
            return self._solid(r)._grad_g1(r, spec)
        self._on_axis(r, "self-force")
        return 0.0, 0.0, kernels.hole_onaxis_dg1(r.z, self.R)


# the grounded plane with vacuum above it, and with vacuum below it
_GROUNDED_BELOW = HalfSpace(1.0, PERFECT_CONDUCTOR)
_GROUNDED_ABOVE = HalfSpace(PERFECT_CONDUCTOR, 1.0)

# the geometries' physics; analytic and cavity import this module, so they come last
from . import analytic, cavity, kernels  # noqa: E402
