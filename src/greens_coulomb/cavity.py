"""Green's function of a planar gap between two half-spaces.

Three routes, cross-validating each other:

* Bessel-integral quadrature of the layered-medium kernel (any heights,
  any reflection coefficients),
* term-by-term image series (midplane), with Euler acceleration of the
  conductor case where the image sum is only conditionally convergent,
* the conductor large-separation asymptotic sqrt(8/(rho d)) exp(-pi rho/d).

Between two conducting walls the program evaluates the K0 mode sum (for
rho >= MODAL_RHO_MIN d) and the digamma self-energy, which keep full
relative accuracy where the quadrature reaches its absolute floor. Forces
differentiate the Green's function: the mode sum and the digamma form term
by term, the quadrature under the Hankel integral (Michalski & Mosig, IEEE
TAP 45 (1997) 508).

Region 2 (the gap, host permittivity eps2) spans -d/2 < z < d/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import digamma, k0, k1, polygamma

from . import kernels
from .core import (
    DEFAULT_QUADRATURE,
    CoincidentPointsError,
    ConvergenceError,
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
_EPS = float(np.finfo(float).eps)

# The mode sum between conducting walls is used from rho = MODAL_RHO_MIN d on,
# where each mode is at least e^{-pi/2} below the one before.
MODAL_RHO_MIN = 0.5
# Modes are kept up to this many e-folds of decay past the first one.
_MODE_SPAN = 40.0


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


def _spec_for_kernel(spec: QuadratureSpec, pref: float, scale_len: float,
                     power: int = 1) -> QuadratureSpec:
    """Tolerances for the raw Bessel integral given tolerances on g (power 1)
    or on its gradient (power 2).

    abs_tol on g is divided by the 1/(4 pi eps2) prefactor, and for a
    gradient by scale_len as well; when the caller left abs_tol at 0 a floor
    of 1e-12 of the free-space magnitude 1/(4 pi scale_len^power) at the same
    separation is supplied, since a purely relative target is unreachable in
    float64 once reflections suppress g exponentially.
    """
    if spec.abs_tol > 0.0:
        abs_g = spec.abs_tol / scale_len ** (power - 1)
    else:
        abs_g = 1e-12 / (_FOUR_PI * scale_len ** power)
    return replace(spec, abs_tol=abs_g / pref)


def _checked_gradient(parts, floor: float, tried: str):
    """`parts`, the components of a gradient from quadrature, each a GreensValue.

    Raises ConvergenceError, saying what was `tried`, when their combined
    abs_err exceeds 1% of the gradient's magnitude plus `floor`, the absolute
    target each component's quadrature was given (a gradient that vanishes
    by symmetry is known only to that target).
    """
    err = math.hypot(*(p.abs_err for p in parts))
    mag = math.hypot(*(p.value for p in parts))
    if err > 0.01 * mag + math.sqrt(len(parts)) * floor:
        raise ConvergenceError(
            f"{tried}: gradient abs_err {err:.3e} exceeds 1% of its magnitude {mag:.3e} "
            f"plus the absolute target {floor:.3e} per component")
    return parts


def _pair_setup(z: float, z0: float, rho: float, d: float, eps1: Permittivity,
                eps2: float, eps3: Permittivity, where: str):
    """The prefactor 1/(4 pi eps2) and the reflection coefficients of a gap
    pair, after checking its arguments."""
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    _check_gap(z, d, "z")
    _check_gap(z0, d, "z0")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    if rho == 0.0 and z == z0:
        raise CoincidentPointsError(f"{where}: field point coincides with source")
    e2 = finite_eps(eps2, "eps2")
    return 1.0 / (_FOUR_PI * e2), reflection_coeffs(eps1, eps2, eps3)


def cavity_g_general(z: float, z0: float, rho: float, d: float,
                     eps1: Permittivity, eps2: float, eps3: Permittivity,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """Gap Green's function between heights z0 (source) and z, in-plane offset rho."""
    pref, coeffs = _pair_setup(z, z0, rho, d, eps1, eps2, eps3, "cavity_g_general")
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

    sep = max(math.hypot(rho, a_free), 0.05 * d)
    got = hankel_integral(f, rho, _spec_for_kernel(spec, pref, sep), k_scale=k_scale)
    return GreensValue(pref * got.value, pref * got.abs_err)


def cavity_grad_general(z: float, z0: float, rho: float, d: float,
                        eps1: Permittivity, eps2: float, eps3: Permittivity,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """(dg/drho, dg/dz) of cavity_g_general, z the field point's height.

    The free-space part 1/(4 pi eps2 r) is differentiated in closed form. The
    reflected kernel R(k) = exp(-k*a_free)(N/D - 1) is differentiated under
    the integral: dg/drho takes -int R k J1(k rho) dk, and dg/dz the
    z-derivative of R's exponentials against J0. Raises ConvergenceError when
    the gradient's abs_err exceeds 1% of its magnitude (see _checked_gradient).
    """
    pref, coeffs = _pair_setup(z, z0, rho, d, eps1, eps2, eps3, "cavity_grad_general")
    r1, r3 = coeffs.r1, coeffs.r3
    sign = 1.0 if z >= z0 else -1.0  # the field point is the upper one, or the lower
    upper, lower = max(z, z0), min(z, z0)
    a_free = upper - lower
    a1 = d + 2.0 * lower
    a3 = d - 2.0 * upper
    scales = [2.0 * d]
    if r1 != 0.0:
        scales.append(a_free + a1)
    if r3 != 0.0:
        scales.append(a_free + a3)
    k_scale = 1.0 / max(min(scales), 1e-300)

    def reflected_k(k: np.ndarray) -> np.ndarray:
        return k * np.exp(-k * a_free) * kernels.cavity_scatter_integrand(k, a1, a3, d, r1, r3)

    def reflected_dz(k: np.ndarray) -> np.ndarray:
        return kernels.cavity_reflected_dz(k, a_free, a1, a3, d, r1, r3, sign)

    r = math.hypot(rho, a_free)
    kspec = _spec_for_kernel(spec, pref, max(r, 0.05 * d), power=2)
    free = pref / (r * r * r)
    d_rho = hankel_integral(reflected_k, rho, kspec, k_scale=k_scale, order=1)
    d_z = hankel_integral(reflected_dz, rho, kspec, k_scale=k_scale)
    parts = (GreensValue(-free * rho - pref * d_rho.value, pref * d_rho.abs_err),
             GreensValue(-free * (z - z0) + pref * d_z.value, pref * d_z.abs_err))
    return _checked_gradient(
        parts, pref * kspec.abs_tol,
        f"Hankel gradient of the gap kernel (orders 1 and 0) at rho = {rho!r}, "
        f"z = {z!r}, z0 = {z0!r}, d = {d!r}, rel_tol = {spec.rel_tol!r}")


def conducting_gap_g(z: float, z0: float, rho: float, d: float,
                     eps2: float) -> GreensValue:
    """Green's function between grounded walls at z = -d/2 and d/2, from its modes.

    g = sum_n sin(n pi u/d) sin(n pi u0/d) K0(n pi rho/d) / (pi d eps2), with
    u = z + d/2 and u0 = z0 + d/2, for rho > 0. abs_err bounds the dropped
    modes and the roundoff of the kept ones.
    """
    n, a, pref, (s, _, m), (s0, _, m0) = _modes(z, z0, rho, d, eps2)
    kv = k0(n * a)
    err = _mode_tail(n, a, k0) + _mode_roundoff(n, a, d, s, m, s0, m0, kv)
    return GreensValue(pref * float(np.sum(s * s0 * kv)), pref * err)


def conducting_gap_grad(z: float, z0: float, rho: float, d: float, eps2: float):
    """(dg/drho, dg/dz) of conducting_gap_g, z the field point's height: the
    modes differentiated term by term, K0' = -K1 in rho and sin' = cos in z."""
    n, a, pref, (s, c, m), (s0, _, m0) = _modes(z, z0, rho, d, eps2)
    kn = n * (math.pi / d)
    kv0 = kn * k0(n * a)
    kv1 = kn * k1(n * a)
    err_rho = _mode_tail(n, a, k1, math.pi / d) + _mode_roundoff(n, a, d, s, m, s0, m0, kv1)
    err_z = _mode_tail(n, a, k0, math.pi / d) + _mode_roundoff(n, a, d, c, m, s0, m0, kv0)
    return (GreensValue(-pref * float(np.sum(s * s0 * kv1)), pref * err_rho),
            GreensValue(pref * float(np.sum(c * s0 * kv0)), pref * err_z))


def _modes(z: float, z0: float, rho: float, d: float, eps2: float):
    """The modes n = 1..N of the sum, a = pi rho/d, the prefactor
    1/(pi d eps2), and _wall_sines of z and of z0.

    N a reaches _MODE_SPAN past a, plus ln(d/2m) + ln(d/2m0) for the wall
    distances m and m0: the first mode's sines are at least 2m/d and 2m0/d,
    so the dropped modes stay e^{-_MODE_SPAN} below it however near a wall
    the points are.
    """
    if not (rho > 0.0):
        raise DomainError(f"rho must be > 0 for the mode sum, got {rho!r}")
    e2 = finite_eps(eps2, "eps2")
    m, m0 = min(_wall_distances(z, d)), min(_wall_distances(z0, d))
    span = _MODE_SPAN + 2.0 * math.log(0.5 * d) - math.log(m) - math.log(m0)
    a = math.pi * rho / d
    n = np.arange(1.0, math.ceil(span / a) + 2.0)
    return n, a, 1.0 / (math.pi * d * e2), _wall_sines(n, z, d), _wall_sines(n, z0, d)


def _wall_sines(n: np.ndarray, z: float, d: float):
    """sin(n pi u/d), cos(n pi u/d) with u = z + d/2, and the distance m to
    the nearer wall, from which both are taken so that they keep their
    relative accuracy there: with w = d/2 - z, sin(n pi u/d) =
    (-1)^(n+1) sin(n pi w/d) and cos(n pi u/d) = (-1)^n cos(n pi w/d)."""
    u, w = _wall_distances(z, d)
    if u <= w:
        arg = n * (math.pi * u / d)
        return np.sin(arg), np.cos(arg), u
    arg = n * (math.pi * w / d)
    alt = np.where(n % 2.0 == 1.0, 1.0, -1.0)  # (-1)^(n+1)
    return alt * np.sin(arg), -alt * np.cos(arg), w


def _wall_distances(z: float, d: float):
    """Distances u = z + d/2 and w = d/2 - z of a gap point from the two walls."""
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    _check_gap(z, d, "z")
    return 0.5 * d + z, 0.5 * d - z


def _mode_tail(n: np.ndarray, a: float, bessel, step: Optional[float] = None) -> float:
    """Bound on the modes past N of a sum whose n-th term is at most K(n a),
    or n step K(n a) when `step` is given.

    K(x) e^x decreases for K0 and K1, so they sum to at most
    K((N+1) a) sum_{m>=0} e^{-m a}, or K((N+1) a) step sum_{m>=0} (N+1+m) e^{-m a}.
    """
    q = math.exp(-a)
    n_next = n[-1] + 1.0
    if step is None:
        series = 1.0 / (1.0 - q)
    else:
        series = step * (n_next / (1.0 - q) + q / (1.0 - q) ** 2)
    return float(bessel(n_next * a)) * series


def _mode_roundoff(n: np.ndarray, a: float, d: float, f: np.ndarray, m: float,
                   g: np.ndarray, m0: float, kv: np.ndarray) -> float:
    """Roundoff bound of sum_n f_n g_n kv_n, with f and g sines or cosines from
    _wall_sines at wall distances m and m0, and kv_n a multiple of K(n a).

    Each argument n pi m/d carries 2 eps of relative rounding, which moves its
    sine or cosine by at most 2 eps n pi m/d; K(n a) moves by n a eps of
    itself with its rounded argument; the functions, products and the sum
    add a few eps of each term.
    """
    shift = (2.0 * math.pi / d) * n * kv * (np.abs(g) * m + np.abs(f) * m0)
    return _EPS * float(np.sum((6.0 + n * a) * np.abs(f * g * kv) + shift))


def conducting_gap_g1(z0: float, d: float, eps2: float) -> GreensValue:
    """Scattering part at coincident points between grounded walls, in closed form.

    g1 = (gamma + (psi(x) + psi(y))/2) / (4 pi eps2 d), with x = (d/2 + z0)/d
    and y = (d/2 - z0)/d = 1 - x; the midplane value is -ln 2/(2 pi eps2 d).
    """
    u, w = _wall_distances(z0, d)
    e2 = finite_eps(eps2, "eps2")
    return GreensValue((np.euler_gamma + 0.5 * (digamma(u / d) + digamma(w / d)))
                       / (_FOUR_PI * e2 * d))


def conducting_gap_dg1(z0: float, d: float, eps2: float) -> GreensValue:
    """d/dz0 of conducting_gap_g1, both points moving:
    (psi'(x) - psi'(y)) / (8 pi eps2 d^2), with the trigamma psi'."""
    u, w = _wall_distances(z0, d)
    e2 = finite_eps(eps2, "eps2")
    return GreensValue((polygamma(1, u / d) - polygamma(1, w / d))
                       / (2.0 * _FOUR_PI * e2 * d * d))


def cavity_g_midpoint(rho: float, d: float, eps1: Permittivity, eps2: float,
                      eps3: Permittivity,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """Midplane special case z = z0 = 0."""
    if rho <= 0.0:
        raise DomainError(f"rho must be > 0 at the midplane, got {rho!r}")
    return cavity_g_general(0.0, 0.0, rho, d, eps1, eps2, eps3, spec)


def _self_term(z0: float, d: float, eps1: Permittivity, eps2: float,
               eps3: Permittivity, spec: QuadratureSpec, power: int, kernel):
    """1/(4 pi eps2) times the half-line integral of kernel(k, a1, a3, d, r1, r3),
    a1 = d + 2 z0 and a3 = d - 2 z0, and times the abs_tol it was given (see
    _spec_for_kernel for `power`); both 0 when neither wall reflects."""
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    _check_gap(z0, d, "z0")
    pref = 1.0 / (_FOUR_PI * finite_eps(eps2, "eps2"))
    coeffs = reflection_coeffs(eps1, eps2, eps3)
    r1, r3 = coeffs.r1, coeffs.r3
    if r1 == 0.0 and r3 == 0.0:
        return GreensValue(0.0, 0.0), 0.0
    a1 = d + 2.0 * z0
    a3 = d - 2.0 * z0

    def f(k: np.ndarray) -> np.ndarray:
        return kernel(k, a1, a3, d, r1, r3)

    kspec = _spec_for_kernel(spec, pref, min(a1, a3), power)
    got = hankel_integral(f, 0.0, kspec, k_scale=1.0 / min(a1, a3))
    return GreensValue(pref * got.value, pref * got.abs_err), pref * kspec.abs_tol


def cavity_scattering_g1(z0: float, d: float, eps1: Permittivity, eps2: float,
                         eps3: Permittivity,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """Reflection-only part at coincident points (rho = 0, z = z0); finite."""
    return _self_term(z0, d, eps1, eps2, eps3, spec, 1,
                      kernels.cavity_scatter_integrand)[0]


def cavity_scattering_dg1(z0: float, d: float, eps1: Permittivity, eps2: float,
                          eps3: Permittivity,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """d/dz0 of cavity_scattering_g1, both points moving: by symmetry twice the
    derivative at one point, so one half-line integral of twice the pair
    route's kernel cavity_reflected_dz at a_free = 0, which is
    2k (r1 e^{-k a1} - r3 e^{-k a3}) / D since a1 + a3 = 2d cancels its r1 r3
    terms. Raises ConvergenceError when its abs_err exceeds 1% of its
    magnitude (see _checked_gradient)."""
    def twice_dz(k, a1, a3, d, r1, r3):
        return 2.0 * kernels.cavity_reflected_dz(k, 0.0, a1, a3, d, r1, r3, 1.0)

    dg1, floor = _self_term(z0, d, eps1, eps2, eps3, spec, 2, twice_dz)
    _checked_gradient(
        (dg1,), floor,
        f"half-line integral of the gap self-force kernel at z0 = {z0!r}, d = {d!r}, "
        f"rel_tol = {spec.rel_tol!r}")
    return dg1


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
