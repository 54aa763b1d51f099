"""Physical observables on top of the Green's functions.

Single-charge self-energies (interaction with the induced surface
polarization), two-charge interaction energies, and forces. Each geometry
computes these from its own Green's function (`core.Geometry`); the entry
points here check what is common to all of them and delegate. Energies are
reported uncorrected; the real-cavity local-field factor 3 eps/(2 eps + 1)
multiplies forces only, and only on request.

Forces use the gradient of the geometry's Green's function where it has
one (uniform space, planar interface, screened bulk and the planar gap) and
Richardson-controlled fourth-order central differences of the energy for
the plate with a hole and the Born bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_QUADRATURE,
    FOUR_PI_EPS0,
    Charge,
    CoincidentPointsError,
    DomainError,
    Geometry,
    InteractionResult,
    OnSurfaceError,
    OutOfRegionError,
    Point3,
    QuadratureSpec,
    StepTooLargeError,
    ThreeLayerCavity,
    UnsupportedGeometryError,
    distance,
    finite_eps,
    is_conductor,
)


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


def self_energy(geom: Geometry, a: Charge,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InteractionResult:
    """U1 = q^2/(2 eps0) * g1(r, r); the free-space divergence is subtracted."""
    return geom.self_energy(a, spec)


def pair_energy(geom: Geometry, a: Charge, b: Charge,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InteractionResult:
    """U = qA qB / eps0 * g(rA, rB) for distinct points."""
    if a.position == b.position:
        raise CoincidentPointsError("pair_energy: charges coincide")
    return geom.pair_energy(a, b, spec)


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def _fd_gradient(fn, p: Point3, h: float, axes):
    """Fourth-order central difference of fn at p along `axes`, one Richardson level.

    Returns (grad, err_estimate); fn maps Point3 -> float, and the gradient
    components off `axes` are 0.
    """

    def grad_at(step: float) -> np.ndarray:
        g = np.zeros(3)
        for axis in axes:
            dx, dy, dz = ((1, 0, 0), (0, 1, 0), (0, 0, 1))[axis]

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


def force_on_A(geom: Geometry, a: Charge, b: Optional[Charge] = None,
               apply_local_field: bool = False, h: Optional[float] = None,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Force on charge A: -grad_A of the pair energy (b given) or self-energy.

    The gradient of the geometry's Green's function where it has one, to the
    tolerances of `spec`; otherwise (plate with a hole, Born bodies) a
    fourth-order central difference of the energy with Richardson error
    control. `h` is that stencil's step, by default 1e-5 of the distance to
    the nearest surface (or to B, if nearer); the other routes ignore it.
    """
    p = a.position
    if geom.surface_distance(p) == 0.0:
        raise OnSurfaceError(f"charge at {p} sits on a material surface")
    if b is not None and p == b.position:
        raise CoincidentPointsError("force_on_A: charges coincide")
    if b is not None and not math.isfinite(distance(p, b.position)):
        raise DomainError("force_on_A: the charges are too far apart for float64")

    force = geom.closed_force(a, b, spec)
    factor = 1.0
    if apply_local_field:
        eps_here = geom.host_eps(p)
        if eps_here is None:
            raise OutOfRegionError("force_on_A: charge inside a conductor")
        factor = local_field_factor(eps_here)

    if force is None:
        if h is None:
            scale = geom.surface_distance(p)
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

        grad, err = _fd_gradient(energy, p, h, geom.self_force_axes if b is None else (0, 1, 2))
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
    mag = (a.q * b.q / (FOUR_PI_EPS0 * geom.eps2)
           * math.sqrt(2.0) * (d + 2.0 * math.pi * rho)
           * math.exp(-math.pi * rho / d) / (rho * d) ** 1.5)
    return ForceResult(force=factor * mag * dvec / rho,
                       local_field_factor_applied=factor)
