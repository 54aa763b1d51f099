"""Closed-form static Green's functions.

Uniform medium, planar dielectric interface (image charge), and a grounded
conducting plate with a circular aperture. The aperture solution comes from
the Kelvin inversion of the conducting half-plane problem and degenerates to
the solid-plate image formula as R -> 0 and to free space as R -> infinity.

All values are exact up to roundoff, so abs_err = 0.
"""

from __future__ import annotations

import math
from typing import Tuple

from . import kernels
from .core import (
    CoincidentPointsError,
    DomainError,
    GreensValue,
    OnPlateError,
    OutOfRegionError,
    Permittivity,
    Point3,
    distance,
    finite_eps,
    is_conductor,
    validate_eps,
)

_FOUR_PI = 4.0 * math.pi


def free_space_g(r: Point3, r_src: Point3, eps: float = 1.0) -> GreensValue:
    """g = 1 / (4 pi eps |r - r_src|)."""
    eps = finite_eps(eps)
    dist = distance(r, r_src)
    if dist == 0.0:
        raise CoincidentPointsError("free_space_g: r coincides with r_src")
    return GreensValue(1.0 / (_FOUR_PI * eps * dist))


def interface_reflection(eps1: Permittivity, eps2: Permittivity) -> float:
    """(eps1 - eps2) / (eps1 + eps2); -1 when medium 2 is a perfect conductor."""
    if is_conductor(eps2):
        return -1.0
    if is_conductor(eps1):
        return 1.0
    e1, e2 = float(eps1), float(eps2)
    return (e1 - e2) / (e1 + e2)


def half_space_g(r: Point3, r_src: Point3, eps1: Permittivity,
                 eps2: Permittivity) -> GreensValue:
    """Green's function of two dielectric half-spaces joined at z = 0.

    The source must sit in region 1 (z > 0). For z > 0 field points the
    value is the direct kernel plus a single image reflected in the plane;
    for z < 0 it is the transmitted kernel 2/(eps1 + eps2) * g0. Callers
    with sources at z < 0 swap eps1 <-> eps2 and reflect both points first.
    """
    e1 = finite_eps(eps1, "eps1")
    validate_eps(eps2, "eps2")
    if not (r_src.z > 0.0):
        raise OutOfRegionError(
            "half_space_g: source must have z > 0 (mirror the configuration "
            "and swap eps1/eps2 for sources below the interface)"
        )
    if r == r_src:
        raise CoincidentPointsError("half_space_g: r coincides with r_src")

    if r.z >= 0.0:
        direct = 1.0 / (_FOUR_PI * distance(r, r_src))
        image = 1.0 / (_FOUR_PI * distance(r, r_src.mirror_z()))
        return GreensValue((direct + interface_reflection(eps1, eps2) * image) / e1)

    if is_conductor(eps2):
        return GreensValue(0.0)
    trans = 2.0 / (e1 + float(eps2))
    return GreensValue(trans / (_FOUR_PI * distance(r, r_src)))


def half_space_scattering_g1(r: Point3, r_src: Point3, eps1: Permittivity,
                             eps2: Permittivity) -> GreensValue:
    """Reflected (image) part only; finite at coincident points.

    Defined for field and source both in region 1.
    """
    e1 = finite_eps(eps1, "eps1")
    validate_eps(eps2, "eps2")
    if not (r_src.z > 0.0 and r.z > 0.0):
        raise OutOfRegionError("half_space_scattering_g1: both points must have z > 0")
    image_dist = distance(r, r_src.mirror_z())
    return GreensValue(interface_reflection(eps1, eps2) / (_FOUR_PI * e1 * image_dist))


# ---------------------------------------------------------------------------
# Conducting plate with a circular aperture
# ---------------------------------------------------------------------------

# Below this fraction of R, for every coordinate of both points, the plate
# changes g by O(|r|/R) of free space, under half an ulp.
_FREE_BELOW = 2.0 ** -60


def _canonical_pair(r: Point3, r_src: Point3, R: float, where: str):
    """Check the arguments and map to z_field >= 0 using the z -> -z symmetry.

    Returns the coordinates of the two points and R, each divided by L, the
    power of two at or above half the largest of R and every |coordinate|,
    and L itself; the division is exact in binary, and no square the kernels
    form then overflows or underflows, so the aperture function is the same
    at every scale. Returns None where every |coordinate| is below
    _FREE_BELOW R, the free-space limit.
    """
    if not (R > 0.0):
        raise DomainError(f"{where}: R must be > 0, got {R!r}")
    if r == r_src:
        raise CoincidentPointsError(f"{where}: r coincides with r_src")
    for name, p in (("r", r), ("r_src", r_src)):
        if p.z == 0.0 and p.rho >= R:
            raise OnPlateError(f"{where}: {name} lies on the conductor (z=0, rho>=R)")
    span = max(abs(r.x), abs(r.y), abs(r.z), abs(r_src.x), abs(r_src.y), abs(r_src.z))
    if span < _FREE_BELOW * R:
        return None
    L = math.ldexp(0.5, math.frexp(max(R, span))[1])
    zL = -L if r.z < 0.0 else L
    return ((r.x / L, r.y / L, r.z / zL), (r_src.x / L, r_src.y / L, r_src.z / zL),
            R / L, L)


def plate_hole_g(r: Point3, r_src: Point3, R: float) -> GreensValue:
    """Green's function of a grounded plate at z = 0 with an aperture of radius R."""
    pair = _canonical_pair(r, r_src, R, "plate_hole_g")
    if pair is None:
        return free_space_g(r, r_src)
    (x, y, z), (xp, yp, zp), R, L = pair
    return GreensValue(kernels.hole_greens(math.hypot(x, y), math.atan2(y, x), z,
                                           math.hypot(xp, yp), math.atan2(yp, xp), zp,
                                           R) / L)


def plate_hole_grad(r: Point3, r_src: Point3, R: float) -> Tuple[float, float, float]:
    """Gradient (dg/dx, dg/dy, dg/dz) of plate_hole_g in the field point r."""
    pair = _canonical_pair(r, r_src, R, "plate_hole_grad")
    if pair is None:
        dist = distance(r, r_src)
        c = -1.0 / (_FOUR_PI * dist) / dist / dist
        return c * (r.x - r_src.x), c * (r.y - r_src.y), c * (r.z - r_src.z)
    (x, y, z), (xp, yp, zp), R, L = pair
    gx, gy, gz = kernels.hole_greens_grad(x, y, z, xp, yp, zp, R)
    if r.z < 0.0:
        gz = -gz
    return gx / L / L, gy / L / L, gz / L / L


def plate_hole_onaxis_self_g1(z: float, R: float) -> GreensValue:
    """Reflected part at coincident on-axis points, g1(z) = g1(-z).

    g1 = -arctan(|z|/R) / (4 pi^2 |z|), the free-space divergence already
    subtracted; equal to -1/(16 pi |z|) + arctan(R/(2|z|) - |z|/(2R))/(8 pi^2 |z|),
    since arctan(R/(2|z|) - |z|/(2R)) = pi/2 - 2 arctan(|z|/R), but free of
    its cancellation. Always negative (the induced surface charge attracts),
    approaching -1/(4 pi^2 R) as z -> 0 and the solid-plate image value
    -1/(8 pi |z|) as R -> 0.
    """
    if not (R > 0.0):
        raise DomainError(f"plate_hole_onaxis_self_g1: R must be > 0, got {R!r}")
    if z == 0.0:
        raise DomainError("plate_hole_onaxis_self_g1: z must be nonzero "
                          "(the z -> 0 limit is -1/(4 pi^2 R))")
    return GreensValue(kernels.hole_onaxis_g1(z, R))
