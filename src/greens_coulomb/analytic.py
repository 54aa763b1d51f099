"""Closed-form static Green's functions: the uniform medium and a grounded
conducting plate with a circular aperture.

The aperture solution comes from the Kelvin inversion of the conducting
half-plane problem and degenerates to the solid-plate image formula as
R -> 0 and to free space as R -> infinity. The planar interface writes its
own image and transmitted terms (`core.HalfSpace`).

All values are exact up to roundoff, so abs_err = 0.
"""

from __future__ import annotations

import math
from typing import Tuple

from . import kernels
from .core import (
    CoincidentPointsError,
    DomainError,
    OnPlateError,
    Point3,
    ValueWithError,
    distance,
    finite_eps,
)

_FOUR_PI = 4.0 * math.pi


def free_space_g(r: Point3, r_src: Point3, eps: float = 1.0) -> ValueWithError:
    """g = 1 / (4 pi eps |r - r_src|)."""
    eps = finite_eps(eps)
    dist = distance(r, r_src)
    if dist == 0.0:
        raise CoincidentPointsError("free_space_g: r coincides with r_src")
    return ValueWithError(1.0 / (_FOUR_PI * eps * dist))


def free_space_grad(r: Point3, r_src: Point3, eps: float = 1.0,
                    scale: float = 1.0) -> Tuple[float, float, float]:
    """Gradient in r of scale / (4 pi eps |r - r_src|), scale held fixed, for
    distinct points (its callers reject coincident ones first).

    Each component is divided by the distance in stages, after its direction
    cosine, so that no power of the distance underflows and a component
    along which the points do not differ stays 0; one too large for float64
    comes out as inf.
    """
    dist = distance(r, r_src)
    c = -scale / (_FOUR_PI * eps * dist)
    return (c * ((r.x - r_src.x) / dist) / dist, c * ((r.y - r_src.y) / dist) / dist,
            c * ((r.z - r_src.z) / dist) / dist)


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
    _FREE_BELOW R, the free-space limit; raises DomainError where R/L
    underflows to 0.
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
    if R / L == 0.0:
        raise DomainError(f"{where}: the aperture radius R = {R!r} underflows to 0 in units of "
                          f"the points' scale {L!r}")
    zL = -L if r.z < 0.0 else L
    return ((r.x / L, r.y / L, r.z / zL), (r_src.x / L, r_src.y / L, r_src.z / zL),
            R / L, L)


def plate_hole_g(r: Point3, r_src: Point3, R: float) -> ValueWithError:
    """Green's function of a grounded plate at z = 0 with an aperture of radius R.

    Both points go to the kernel in Cartesian form, and every distance comes
    from coordinate differences, so g is accurate to roundoff at any
    separation of the two points, and abs_err = 0.
    """
    pair = _canonical_pair(r, r_src, R, "plate_hole_g")
    if pair is None:
        return free_space_g(r, r_src)
    (x, y, z), (xp, yp, zp), R, L = pair
    return ValueWithError(kernels.hole_greens(x, y, z, xp, yp, zp, R) / L)


def plate_hole_grad(r: Point3, r_src: Point3, R: float) -> Tuple[float, float, float]:
    """Gradient (dg/dx, dg/dy, dg/dz) of plate_hole_g in the field point r."""
    pair = _canonical_pair(r, r_src, R, "plate_hole_grad")
    if pair is None:
        return free_space_grad(r, r_src)
    (x, y, z), (xp, yp, zp), R, L = pair
    gx, gy, gz = kernels.hole_greens_grad(x, y, z, xp, yp, zp, R)
    if r.z < 0.0:
        gz = -gz
    return gx / L / L, gy / L / L, gz / L / L

