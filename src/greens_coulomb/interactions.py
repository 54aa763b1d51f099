"""Physical observables on top of the Green's functions.

Single-charge self-energies (interaction with the induced surface
polarization), two-charge interaction energies, and forces. Energies are
reported uncorrected; the real-cavity local-field factor 3 eps/(2 eps + 1)
multiplies forces only, and only on request.

Forces use closed-form gradients where the energy is a closed form
(uniform space, planar interface, screened bulk) and Richardson-controlled
fourth-order central differences elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.constants import epsilon_0

from . import analytic, born, cavity, screening
from .core import (
    DEFAULT_QUADRATURE,
    PERFECT_CONDUCTOR,
    Charge,
    CoincidentPointsError,
    DomainError,
    FreeSpace,
    HalfSpace,
    OnPlateError,
    OnSurfaceError,
    OutOfRegionError,
    PlateWithHole,
    Point3,
    QuadratureSpec,
    StepTooLargeError,
    ThreeLayerCavity,
    UnsupportedGeometryError,
    distance,
    finite_eps,
    is_conductor,
)

Geometry = Union[FreeSpace, HalfSpace, ThreeLayerCavity, PlateWithHole,
                 screening.NonlocalBulk, born.DiluteBody]

_FOUR_PI_EPS0 = 4.0 * math.pi * epsilon_0


@dataclass(frozen=True)
class InteractionResult:
    """Energy in joules; ratio_to_free = U / U_free where that is defined."""

    energy: float
    ratio_to_free: Optional[float]
    abs_err: float = 0.0


@dataclass(frozen=True)
class ForceResult:
    force: np.ndarray  # newtons, shape (3,)
    local_field_factor_applied: float = 1.0


def local_field_factor(eps_host: float) -> float:
    """Real-cavity enhancement 3 eps / (2 eps + 1) for fields acting on a charge.

    Derived for a small vacuum cavity around the charge; treated here as
    exact for all eps >= 1 (no validity radius is imposed). Water's eps of
    about 80 gives roughly 1.49.
    """
    e = finite_eps(eps_host, "eps_host")
    return 3.0 * e / (2.0 * e + 1.0)


# ---------------------------------------------------------------------------
# Host permittivity and surface distance bookkeeping
# ---------------------------------------------------------------------------

def host_eps(geom: Geometry, p: Point3) -> Optional[float]:
    """Finite permittivity of the medium at p, or None inside a conductor."""
    if isinstance(geom, FreeSpace):
        return geom.eps
    if isinstance(geom, HalfSpace):
        side = geom.eps1 if p.z >= 0.0 else geom.eps2
        return None if is_conductor(side) else float(side)
    if isinstance(geom, ThreeLayerCavity):
        if abs(p.z) < 0.5 * geom.d:
            return geom.eps2
        side = geom.eps1 if p.z < 0.0 else geom.eps3
        return None if is_conductor(side) else float(side)
    if isinstance(geom, PlateWithHole):
        return 1.0
    if isinstance(geom, screening.NonlocalBulk):
        return geom.drude.eps_b
    if isinstance(geom, born.DiluteBody):
        return geom.background_eps
    raise UnsupportedGeometryError(f"unknown geometry {type(geom).__name__}")


def surface_distance(geom: Geometry, p: Point3) -> float:
    """Distance from p to the nearest material surface (inf if there is none)."""
    if isinstance(geom, (FreeSpace, screening.NonlocalBulk)):
        return math.inf
    if isinstance(geom, HalfSpace):
        return abs(p.z)
    if isinstance(geom, ThreeLayerCavity):
        return abs(0.5 * geom.d - abs(p.z))
    if isinstance(geom, PlateWithHole):
        rho = p.rho
        if rho >= geom.R:
            return abs(p.z)
        return math.hypot(geom.R - rho, p.z)
    if isinstance(geom, born.DiluteBody):
        dist = math.inf
        if geom.half_space_eta is not None:
            dist = min(dist, abs(p.z))
        for reg in geom.regions:
            b = reg.box
            dx = max(b.x0 - p.x, 0.0, p.x - b.x1)
            dy = max(b.y0 - p.y, 0.0, p.y - b.y1)
            dz = max(b.z0 - p.z, 0.0, p.z - b.z1)
            dist = min(dist, math.hypot(dx, math.hypot(dy, dz)))
        return dist
    raise UnsupportedGeometryError(f"unknown geometry {type(geom).__name__}")


def _require_off_surface(geom: Geometry, p: Point3) -> None:
    if surface_distance(geom, p) == 0.0:
        raise OnSurfaceError(f"charge at {p} sits on a material surface")


# ---------------------------------------------------------------------------
# Self-energy
# ---------------------------------------------------------------------------

def self_energy(geom: Geometry, a: Charge,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InteractionResult:
    """U1 = q^2/(2 eps0) * g1(r, r); the free-space divergence is subtracted."""
    p = a.position
    pref = a.q * a.q / (2.0 * epsilon_0)

    if isinstance(geom, FreeSpace):
        return InteractionResult(0.0, None, 0.0)

    if isinstance(geom, HalfSpace):
        if p.z == 0.0:
            raise OnSurfaceError("self_energy: charge on the interface")
        if p.z > 0.0:
            e_side, e_other = geom.eps1, geom.eps2
        else:
            e_side, e_other = geom.eps2, geom.eps1
        if is_conductor(e_side):
            raise OutOfRegionError("self_energy: charge inside a perfect conductor")
        g1 = analytic.interface_reflection(e_side, e_other) / (
            8.0 * math.pi * float(e_side) * abs(p.z))
        return InteractionResult(pref * g1, None, 0.0)

    if isinstance(geom, ThreeLayerCavity):
        if not (abs(p.z) < 0.5 * geom.d):
            raise OutOfRegionError("self_energy: charge outside the gap")
        g1 = cavity.cavity_scattering_g1(p.z, geom.d, geom.eps1, geom.eps2,
                                         geom.eps3, spec)
        return InteractionResult(pref * g1.value, None, abs(pref) * g1.abs_err)

    if isinstance(geom, PlateWithHole):
        if p.z == 0.0 and (geom.R == 0.0 or p.rho >= geom.R):
            raise OnSurfaceError("self_energy: charge on the plate")
        if geom.R == 0.0:
            return InteractionResult(pref * (-1.0 / (8.0 * math.pi * abs(p.z))),
                                     None, 0.0)
        if p.rho > 1e-12 * max(abs(p.z), geom.R):
            raise UnsupportedGeometryError(
                "plate-with-hole self-energy is provided on the symmetry axis only")
        if p.z == 0.0:
            # limit value at the aperture center
            return InteractionResult(pref * (-1.0 / (4.0 * math.pi ** 2 * geom.R)),
                                     None, 0.0)
        g1 = analytic.plate_hole_onaxis_self_g1(p.z, geom.R)
        return InteractionResult(pref * g1.value, None, 0.0)

    if isinstance(geom, screening.NonlocalBulk):
        raise UnsupportedGeometryError(
            "coincident self-energy diverges in a nonlocal bulk medium")

    if isinstance(geom, born.DiluteBody):
        g1 = born.born_scattering_g1(p, p, geom, spec)
        return InteractionResult(pref * g1.value, None, abs(pref) * g1.abs_err)

    raise UnsupportedGeometryError(f"unknown geometry {type(geom).__name__}")


# ---------------------------------------------------------------------------
# Pair energy
# ---------------------------------------------------------------------------

def _with_ratio(energy: float, abs_err: float, geom: Geometry, a: Charge,
                b: Charge, same_medium: bool = True) -> InteractionResult:
    ratio = None
    if same_medium:
        mid = Point3(0.5 * (a.position.x + b.position.x),
                     0.5 * (a.position.y + b.position.y),
                     0.5 * (a.position.z + b.position.z))
        eps_host = host_eps(geom, mid)
        dist = distance(a.position, b.position)
        qq = a.q * b.q
        # U_free = 0 at an infinite separation or a zero (or underflowing) product
        if eps_host is not None and math.isfinite(dist) and qq != 0.0:
            ratio = energy * _FOUR_PI_EPS0 * eps_host * dist / qq
    return InteractionResult(energy, ratio, abs_err)


def pair_energy(geom: Geometry, a: Charge, b: Charge,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InteractionResult:
    """U = qA qB / eps0 * g(rA, rB), dispatched on the geometry."""
    ra, rb = a.position, b.position
    if ra == rb:
        raise CoincidentPointsError("pair_energy: charges coincide")
    pref = a.q * b.q / epsilon_0

    if isinstance(geom, FreeSpace):
        g = analytic.free_space_g(ra, rb, geom.eps)
        return _with_ratio(pref * g.value, abs(pref) * g.abs_err, geom, a, b)

    if isinstance(geom, HalfSpace):
        if ra.z == 0.0 or rb.z == 0.0:
            raise OnSurfaceError("pair_energy: charge on the interface")
        # A charge embedded in a perfectly conducting region is completely
        # screened: no photon reaches the other charge, so U = 0.
        for q in (a, b):
            side = geom.eps1 if q.position.z > 0.0 else geom.eps2
            if is_conductor(side):
                return InteractionResult(0.0, None, 0.0)
        if ra.z * rb.z > 0.0:
            if ra.z > 0.0:
                field, src, e1, e2 = ra, rb, geom.eps1, geom.eps2
            else:
                field, src, e1, e2 = ra.mirror_z(), rb.mirror_z(), geom.eps2, geom.eps1
            g = analytic.half_space_g(field, src, e1, e2)
            return _with_ratio(pref * g.value, abs(pref) * g.abs_err, geom, a, b)
        e1, e2 = float(geom.eps1), float(geom.eps2)
        g = 2.0 / ((e1 + e2) * 4.0 * math.pi * distance(ra, rb))
        return _with_ratio(pref * g, 0.0, geom, a, b, same_medium=False)

    if isinstance(geom, ThreeLayerCavity):
        for q, name in ((a, "A"), (b, "B")):
            if not (abs(q.position.z) < 0.5 * geom.d):
                raise OutOfRegionError(f"pair_energy: charge {name} outside the gap")
        rho = math.hypot(ra.x - rb.x, ra.y - rb.y)
        g = cavity.cavity_g_general(ra.z, rb.z, rho, geom.d, geom.eps1,
                                    geom.eps2, geom.eps3, spec)
        return _with_ratio(pref * g.value, abs(pref) * g.abs_err, geom, a, b)

    if isinstance(geom, PlateWithHole):
        if geom.R == 0.0:
            for q in (a, b):
                if q.position.z == 0.0:
                    raise OnPlateError("pair_energy: charge on the plate")
            if ra.z * rb.z < 0.0:
                return InteractionResult(0.0, 0.0, 0.0)
            field, src = (ra, rb) if rb.z > 0.0 else (ra.mirror_z(), rb.mirror_z())
            g = analytic.half_space_g(field, src, 1.0, PERFECT_CONDUCTOR)
            return _with_ratio(pref * g.value, 0.0, geom, a, b)
        g = analytic.plate_hole_g(ra, rb, geom.R)
        return _with_ratio(pref * g.value, abs(pref) * g.abs_err, geom, a, b)

    if isinstance(geom, screening.NonlocalBulk):
        u = screening.screened_potential(distance(ra, rb), a.q, b.q, geom.drude)
        return _with_ratio(u, 0.0, geom, a, b)

    if isinstance(geom, born.DiluteBody):
        g0 = 1.0 / (4.0 * math.pi * geom.background_eps * distance(ra, rb))
        g1 = born.born_scattering_g1(ra, rb, geom, spec)
        return _with_ratio(pref * (g0 + g1.value), abs(pref) * g1.abs_err, geom, a, b)

    raise UnsupportedGeometryError(f"unknown geometry {type(geom).__name__}")


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def _as_vec(p: Point3) -> np.ndarray:
    return np.array([p.x, p.y, p.z], dtype=float)


def _closed_force(geom: Geometry, a: Charge, b: Optional[Charge]) -> Optional[np.ndarray]:
    """Closed-form -grad_A U where the energy is itself a closed form."""
    if isinstance(geom, FreeSpace):
        if b is None:
            return np.zeros(3)
        rvec = _as_vec(a.position) - _as_vec(b.position)
        r = distance(a.position, b.position)
        return a.q * b.q * rvec / (_FOUR_PI_EPS0 * geom.eps * r * r * r)

    if isinstance(geom, screening.NonlocalBulk):
        if b is None:
            return None
        p = geom.drude
        rvec = _as_vec(a.position) - _as_vec(b.position)
        r = distance(a.position, b.position)
        mag = (a.q * b.q * math.exp(-p.k_s * r) * (1.0 + p.k_s * r)
               / (_FOUR_PI_EPS0 * p.eps_b * r * r * r))
        return mag * rvec

    if isinstance(geom, HalfSpace):
        za = a.position.z
        side_a = geom.eps1 if za > 0.0 else geom.eps2
        if is_conductor(side_a):
            return np.zeros(3)  # embedded in the conductor: fully screened
        if b is None:
            e_other = geom.eps2 if za > 0.0 else geom.eps1
            sign = 1.0 if za > 0.0 else -1.0
            refl = analytic.interface_reflection(side_a, e_other)
            # divided by za twice: za * za underflows to 0 for |za| < 1e-162
            fz = a.q * a.q * refl / (4.0 * _FOUR_PI_EPS0 * float(side_a) * za) / za
            return np.array([0.0, 0.0, sign * fz])
        zb = b.position.z
        ra, rb = _as_vec(a.position), _as_vec(b.position)
        side_b = geom.eps1 if zb > 0.0 else geom.eps2
        if is_conductor(side_b):
            return np.zeros(3)
        if za * zb > 0.0:
            e_other = geom.eps2 if za > 0.0 else geom.eps1
            refl = analytic.interface_reflection(side_a, e_other)
            rb_star = rb.copy()
            rb_star[2] = -rb_star[2]
            d = ra - rb
            ds = ra - rb_star
            nd = math.hypot(*d)
            nds = math.hypot(*ds)
            pref = a.q * b.q / (_FOUR_PI_EPS0 * float(side_a))
            return pref * (d / (nd * nd * nd) + refl * ds / (nds * nds * nds))
        e1, e2 = float(geom.eps1), float(geom.eps2)
        d = ra - rb
        nd = math.hypot(*d)
        return a.q * b.q * 2.0 / (e1 + e2) * d / (_FOUR_PI_EPS0 * nd * nd * nd)

    return None


def _fd_gradient(fn, p: Point3, h: float):
    """Fourth-order central difference of fn at p, one Richardson level.

    Returns (grad, err_estimate); fn maps Point3 -> float.
    """

    def grad_at(step: float) -> np.ndarray:
        g = np.zeros(3)
        for axis, (dx, dy, dz) in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            def at(c: float) -> float:
                return fn(p.shifted(dx * c, dy * c, dz * c))

            g[axis] = (-at(2 * step) + 8.0 * at(step)
                       - 8.0 * at(-step) + at(-2 * step)) / (12.0 * step)
        return g

    g_h = grad_at(h)
    g_h2 = grad_at(0.5 * h)
    improved = (16.0 * g_h2 - g_h) / 15.0
    err = float(np.linalg.norm(improved - g_h2))
    return improved, err


def _fd_gradient_1d(fn, p: Point3, h: float):
    """As _fd_gradient but along z only (axisymmetric self-energies)."""

    def d_at(step: float) -> float:
        return (-fn(p.shifted(dz=2 * step)) + 8.0 * fn(p.shifted(dz=step))
                - 8.0 * fn(p.shifted(dz=-step)) + fn(p.shifted(dz=-2 * step))
                ) / (12.0 * step)

    d_h = d_at(h)
    d_h2 = d_at(0.5 * h)
    improved = (16.0 * d_h2 - d_h) / 15.0
    return np.array([0.0, 0.0, improved]), abs(improved - d_h2)


def force_on_A(geom: Geometry, a: Charge, b: Optional[Charge] = None,
               apply_local_field: bool = False, h: Optional[float] = None,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Force on charge A: -grad_A of the pair energy (b given) or self-energy.

    Closed-form gradients are used for closed-form energies; otherwise a
    fourth-order central difference with step h (default 1e-5 of the
    distance to the nearest surface) and Richardson error control.
    """
    p = a.position
    _require_off_surface(geom, p)
    if b is not None and p == b.position:
        raise CoincidentPointsError("force_on_A: charges coincide")
    if b is not None and not math.isfinite(distance(p, b.position)):
        raise DomainError("force_on_A: the charges are too far apart for float64")
    if b is None and isinstance(geom, screening.NonlocalBulk):
        raise UnsupportedGeometryError(
            "self-force undefined in a nonlocal bulk (self-energy diverges)")

    factor = 1.0
    if apply_local_field:
        eps_here = host_eps(geom, p)
        if eps_here is None:
            raise OutOfRegionError("force_on_A: charge inside a conductor")
        factor = local_field_factor(eps_here)

    force = _closed_force(geom, a, b)
    if force is None:
        if h is None:
            scale = surface_distance(geom, p)
            if b is not None:
                scale = min(scale, distance(p, b.position))
            if not math.isfinite(scale):
                raise DomainError("force_on_A: provide h for geometries without surfaces")
            h = 1e-5 * scale
            if h == 0.0:
                raise DomainError(f"force_on_A: the step 1e-5 x {scale!r} underflows float64")

        if b is None:
            def energy(q: Point3) -> float:
                return self_energy(geom, Charge(a.q, q), spec).energy
        else:
            def energy(q: Point3) -> float:
                return pair_energy(geom, Charge(a.q, q), b, spec).energy

        if b is None and isinstance(geom, PlateWithHole):
            # on-axis self-energy: the radial force vanishes by symmetry and
            # the off-axis energy is not exposed, so differentiate along z only
            grad, err = _fd_gradient_1d(energy, p, h)
        else:
            grad, err = _fd_gradient(energy, p, h)
        force = -grad
        fmag = float(np.linalg.norm(force))
        noise_floor = 1e-13 * abs(energy(p)) / h
        if err > 0.01 * fmag + noise_floor:
            raise StepTooLargeError(
                f"finite-difference error {err:.3e} exceeds 1% of |F| = {fmag:.3e}; "
                f"reduce the step (h = {h:.3e})")

    if not all(map(math.isfinite, force)):
        raise DomainError(f"force_on_A: the force {force.tolist()} overflows float64")
    return ForceResult(force=factor * force, local_field_factor_applied=factor)


def cavity_asymptotic_force(geom: ThreeLayerCavity, a: Charge, b: Charge,
                            apply_local_field: bool = False) -> ForceResult:
    """Closed-form midplane force in the conductor-wall large-separation regime.

    |F| = qA qB/(4 pi eps0 eps2) * sqrt(2) (d + 2 pi rho) e^{-pi rho/d} / (rho d)^{3/2},
    directed along the in-plane separation; multiplied by the local-field
    factor of the gap medium on request.
    """
    if not (is_conductor(geom.eps1) and is_conductor(geom.eps3)):
        raise UnsupportedGeometryError("asymptotic force requires conducting walls")
    dvec = np.array([a.position.x - b.position.x, a.position.y - b.position.y, 0.0])
    rho = float(np.linalg.norm(dvec))
    if rho == 0.0:
        raise DomainError("cavity_asymptotic_force: charges on a common axis")
    d = geom.d
    factor = local_field_factor(geom.eps2) if apply_local_field else 1.0
    mag = (a.q * b.q / (_FOUR_PI_EPS0 * geom.eps2)
           * math.sqrt(2.0) * (d + 2.0 * math.pi * rho)
           * math.exp(-math.pi * rho / d) / (rho * d) ** 1.5)
    return ForceResult(force=factor * mag * dvec / rho,
                       local_field_factor_applied=factor)
