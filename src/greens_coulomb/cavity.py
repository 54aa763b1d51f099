"""Green's function of a planar gap between two half-spaces.

Three routes, cross-validating each other:

* Bessel-integral quadrature of the layered-medium kernel (any heights,
  any reflection coefficients),
* term-by-term image series (midplane), with Euler acceleration of the
  conductor case where the image sum is only conditionally convergent,
* the conductor large-separation asymptotic sqrt(8/(rho d)) exp(-pi rho/d).

Region 2 (the gap, host permittivity eps2) spans -d/2 < z < d/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import (
    DEFAULT_QUADRATURE,
    CoincidentPointsError,
    DomainError,
    GreensValue,
    OutOfRegionError,
    Permittivity,
    QuadratureSpec,
    finite_eps,
    is_conductor,
)
from .quadrature import euler_limit, hankel_integral

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class CavityCoeffs:
    """Reflection coefficients of the two interfaces bounding the gap."""

    r1: float
    r3: float

    def __post_init__(self):
        for name, v in (("r1", self.r1), ("r3", self.r3)):
            if not (isinstance(v, (int, float)) and abs(v) <= 1.0):
                raise DomainError(f"{name} must lie in [-1, 1], got {v!r}")


def reflection_coeffs(eps1: Permittivity, eps2: float,
                      eps3: Permittivity) -> CavityCoeffs:
    """R_i = (eps_i - eps2)/(eps_i + eps2); exactly 1 for a perfect conductor."""
    e2 = finite_eps(eps2, "eps2")

    def one(e, name):
        if is_conductor(e):
            return 1.0
        ef = finite_eps(e, name)
        return (ef - e2) / (ef + e2)

    return CavityCoeffs(one(eps1, "eps1"), one(eps3, "eps3"))


def _check_gap(z: float, d: float, name: str) -> None:
    if not (-0.5 * d < z < 0.5 * d):
        raise OutOfRegionError(f"{name} = {z!r} outside the gap (-d/2, d/2), d = {d!r}")


def _spec_for_kernel(spec: QuadratureSpec, pref: float, scale_len: float) -> QuadratureSpec:
    """Tolerances for the raw Bessel integral given tolerances on g.

    abs_tol on g is divided by the 1/(4 pi eps2) prefactor; when the caller
    left abs_tol at 0 a floor of 1e-12 of the free-space magnitude at the
    same separation is supplied, since a purely relative target is
    unreachable in float64 once reflections suppress g exponentially.
    """
    abs_g = spec.abs_tol if spec.abs_tol > 0.0 else 1e-12 / (_FOUR_PI * scale_len)
    return replace(spec, abs_tol=abs_g / pref)


def cavity_g_general(z: float, z0: float, rho: float, d: float,
                     eps1: Permittivity, eps2: float, eps3: Permittivity,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """Gap Green's function between heights z0 (source) and z, in-plane offset rho."""
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    _check_gap(z, d, "z")
    _check_gap(z0, d, "z0")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    if rho == 0.0 and z == z0:
        raise CoincidentPointsError("cavity_g_general: field point coincides with source")
    e2 = finite_eps(eps2, "eps2")
    coeffs = reflection_coeffs(eps1, eps2, eps3)
    if z < z0:
        z, z0 = z0, z  # reciprocity; keeps every exponent decaying

    a_free = z - z0
    a1 = d + 2.0 * z0
    a3 = d - 2.0 * z
    scales = [2.0 * d]
    if a_free > 0.0:
        scales.append(a_free)
    if coeffs.r1 != 0.0:
        scales.append(a1)
    if coeffs.r3 != 0.0:
        scales.append(a3)
    k_scale = 1.0 / max(min(scales), 1e-300)

    def f(k: np.ndarray) -> np.ndarray:
        return kernels.cavity_integrand(k, a_free, a1, a3, d, coeffs.r1, coeffs.r3)

    pref = 1.0 / (_FOUR_PI * e2)
    sep = max(math.hypot(rho, a_free), 0.05 * d)
    got = hankel_integral(f, rho, _spec_for_kernel(spec, pref, sep), k_scale=k_scale)
    return GreensValue(pref * got.value, pref * got.abs_err)


def cavity_g_midpoint(rho: float, d: float, eps1: Permittivity, eps2: float,
                      eps3: Permittivity,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """Midplane special case z = z0 = 0."""
    if rho <= 0.0:
        raise DomainError(f"rho must be > 0 at the midplane, got {rho!r}")
    return cavity_g_general(0.0, 0.0, rho, d, eps1, eps2, eps3, spec)


def cavity_scattering_g1(z0: float, d: float, eps1: Permittivity, eps2: float,
                         eps3: Permittivity,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """Reflection-only part at coincident points (rho = 0, z = z0); finite."""
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    _check_gap(z0, d, "z0")
    e2 = finite_eps(eps2, "eps2")
    coeffs = reflection_coeffs(eps1, eps2, eps3)
    if coeffs.r1 == 0.0 and coeffs.r3 == 0.0:
        return GreensValue(0.0, 0.0)
    a1 = d + 2.0 * z0
    a3 = d - 2.0 * z0
    k_scale = 1.0 / min(a1, a3)

    def f(k: np.ndarray) -> np.ndarray:
        return kernels.cavity_scatter_integrand(k, a1, a3, d, coeffs.r1, coeffs.r3)

    pref = 1.0 / (_FOUR_PI * e2)
    got = hankel_integral(f, 0.0, _spec_for_kernel(spec, pref, min(a1, a3)),
                          k_scale=k_scale)
    return GreensValue(pref * got.value, pref * got.abs_err)


def cavity_g_series(rho: float, d: float, coeffs: CavityCoeffs, eps2: float,
                    n_max: int = 200) -> GreensValue:
    """Midplane image series.

    g = 1/(4 pi eps2 rho)
        + sum_{n>=1} 2 (r1 r3)^n / sqrt((2n d)^2 + rho^2) / (4 pi eps2)
        - sum_{n>=0} (r1 r3)^n (r1 + r3) / sqrt(((2n+1) d)^2 + rho^2) / (4 pi eps2)

    For |r1 r3| < 1 the truncation remainder carries a geometric bound into
    abs_err. At r1 = r3 = 1 (both walls conducting) the sum is rearranged as
    the alternating image-distance series and extrapolated by repeated
    averaging, which converges far below the plain partial sums; abs_err then
    adds the roundoff of that cancelling sum, eps * (1/rho + sum |terms|),
    which exceeds the value itself beyond about 10 d.
    """
    if rho <= 0.0:
        raise DomainError(f"rho must be > 0, got {rho!r}")
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max!r}")
    e2 = finite_eps(eps2, "eps2")
    q = coeffs.r1 * coeffs.r3
    c = coeffs.r1 + coeffs.r3
    pref = 1.0 / (_FOUR_PI * e2)

    def image_dist(a: np.ndarray) -> np.ndarray:
        return np.sqrt((a * d) ** 2 + rho * rho)

    if abs(q) < 1.0:
        n = np.arange(1, n_max + 1, dtype=float)
        qn = q ** n
        even = 2.0 * np.sum(qn / image_dist(2.0 * n))
        m = np.arange(0, n_max + 1, dtype=float)
        odd = c * np.sum((q ** m) / image_dist(2.0 * m + 1.0))
        tail = (abs(q) ** (n_max + 1) / (1.0 - abs(q))
                * (2.0 / image_dist(np.array([2.0 * (n_max + 1)]))[0]
                   + abs(c) / image_dist(np.array([2.0 * n_max + 3.0]))[0]))
        return GreensValue(pref * (1.0 / rho + even - odd), pref * tail)

    # |q| = 1. Physical cavities reach q = 1 only with both walls conducting
    # (r1 = r3 = 1, c = 2); the series then alternates in the image distance.
    if q == 1.0 and c == 2.0:
        m = np.arange(1, 2 * n_max + 2, dtype=float)
        terms = 2.0 * ((-1.0) ** m) / image_dist(m)
    elif q == -1.0 and c == 0.0:
        n = np.arange(1, n_max + 1, dtype=float)
        terms = 2.0 * ((-1.0) ** n) / image_dist(2.0 * n)
    else:
        raise DomainError(
            f"image series diverges for r1 r3 = {q!r} with r1 + r3 = {c!r}")
    partial = np.cumsum(terms)
    window = partial[-80:] if partial.size > 80 else partial
    s, err = euler_limit(window, min(16, window.size - 1))
    # s cancels 1/rho to within g ~ exp(-pi rho / d): the roundoff of the
    # partial sums stays while the value decays, so it bounds the error far out.
    roundoff = np.finfo(float).eps * (1.0 / rho + float(np.sum(np.abs(terms))))
    return GreensValue(pref * (1.0 / rho + s), pref * (err + roundoff))


def cavity_asymptotic(rho: float, d: float, eps2: float) -> GreensValue:
    """Conductor-wall midplane asymptotic g = sqrt(8/(rho d)) exp(-pi rho/d)/(4 pi eps2).

    Valid for rho >> d; a warning is emitted below rho = 3 d.
    """
    if rho <= 0.0 or d <= 0.0:
        raise DomainError(f"rho and d must be > 0, got rho={rho!r}, d={d!r}")
    e2 = finite_eps(eps2, "eps2")
    if rho < 3.0 * d:
        warnings.warn("cavity_asymptotic called at rho < 3 d, outside its regime",
                      stacklevel=2)
    value = math.sqrt(8.0 / (rho * d)) * math.exp(-math.pi * rho / d) / (_FOUR_PI * e2)
    return GreensValue(value)
