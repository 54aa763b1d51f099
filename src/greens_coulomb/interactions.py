"""Physical observables on top of the Green's functions.

Single-charge self-energies (interaction with the induced surface
polarization), two-charge interaction energies, and forces. Each geometry
computes these from its own Green's function (`core.Geometry`); the entry
points here check what is common to all of them and delegate. Energies are
reported uncorrected; the real-cavity local-field factor 3 eps/(2 eps + 1)
multiplies forces only, and only on request.

Every force is minus the gradient of the energy, taken from the gradient
of the geometry's Green's function (`Geometry.closed_force`), so forces are
exact up to roundoff in closed form and follow `spec` where the Green's
function is a quadrature or an octree sum.
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
    QuadratureSpec,
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

def force_on_A(geom: Geometry, a: Charge, b: Optional[Charge] = None,
               apply_local_field: bool = False,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Force on charge A: -grad_A of the pair energy (b given) or self-energy.

    The geometry differentiates its own Green's function (see
    `Geometry.closed_force`), to the tolerances of `spec`; a force that
    overflows float64 is a DomainError.
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
