"""Green's function of a planar gap between two half-spaces.

The program's routes:

* Bessel-integral quadrature (`cavity_g_general`, any heights, any
  reflection coefficients) of the reflected kernel, the free term
  1/(4 pi eps2 r) in closed form (Michalski & Mosig, IEEE TAP 45 (1997)
  508); g1, its coincident limit, and the gradients share its set-up;
* between two conducting walls, the K0 mode sum (for rho >= MODAL_RHO_MIN d)
  and the digamma self-energy, which keep full relative accuracy where the
  quadrature reaches its absolute floor.

Two references that the tests and `validate` compare against:

* the term-by-term image series (`cavity_g_series`), at any heights where
  r1 r3 is below 1 in magnitude, and at the midplane with Euler
  acceleration of the conductor case, where the image sum is only
  conditionally convergent;
* the conductor large-separation asymptotic sqrt(8/(rho d)) exp(-pi rho/d)
  (`cavity_asymptotic`).

Forces differentiate the Green's function: the mode sum and the digamma
form term by term, the quadrature under the Hankel integral.

The four conducting-wall functions import K0, K1, digamma and the trigamma
from scipy.special when they are called, not when the package is imported.

Region 2 (the gap, host permittivity eps2) spans -d/2 < z < d/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import kernels
from .core import (
    DEFAULT_QUADRATURE,
    CoincidentPointsError,
    ConvergenceError,
    DomainError,
    OutOfRegionError,
    Permittivity,
    QuadratureSpec,
    ValueWithError,
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


def _checked_gradient(parts, floor: float, tried: str):
    """`parts`, the components of a gradient from quadrature, each a ValueWithError.

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


def _gap_integral(kernel, z: float, z0: float, rho: float, d: float, eps1: Permittivity,
                  eps2: float, eps3: Permittivity, spec: QuadratureSpec, power: int = 1,
                  order: int = 0, free: bool = False):
    """1/(4 pi eps2) times the Hankel integral of order `order` of
    kernel(k, a_free, a1, a3, d, r1, r3), a reflected kernel of the pair at
    heights z and z0, rho apart; and the absolute target it was given.

    With upper and lower the two heights, a_free = upper - lower is the
    direct path's exponent, and a1 = d + 2 lower and a3 = d - 2 upper add
    the reflection in the wall below and in the wall above; the kernel
    decays on the scale of the shorter reflected path, a_free + a1 or
    a_free + a3, and of 2d. With `free`, the free term 1/r is added in
    closed form and rel_tol applies to the sum; coincident points then raise
    CoincidentPointsError. The integral is 0 where neither wall reflects.

    The target is spec's abs_tol on g (power 1), or on a gradient (power 2)
    divided by a length L; where spec left abs_tol at 0, it is 1e-12 of the
    free-space magnitude 1/(4 pi L^power), since a purely relative target is
    unreachable in float64 once reflections suppress g exponentially. L is
    the separation r, no less than d/20, or at coincident points the nearer
    image distance min(a1, a3).
    """
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    _check_gap(z, d, "z")
    _check_gap(z0, d, "z0")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    pref = 1.0 / (_FOUR_PI * finite_eps(eps2, "eps2"))
    coeffs = reflection_coeffs(eps1, eps2, eps3)
    r1, r3 = coeffs.r1, coeffs.r3
    upper, lower = max(z, z0), min(z, z0)
    a_free = upper - lower
    a1 = d + 2.0 * lower
    a3 = d - 2.0 * upper
    r = math.hypot(rho, a_free)
    if free and r == 0.0:
        raise CoincidentPointsError("field point coincides with source")
    known = 1.0 / r if free else 0.0
    length = max(r, 0.05 * d) if r > 0.0 else min(a1, a3)
    if spec.abs_tol > 0.0:
        floor = spec.abs_tol / length ** (power - 1)
    else:
        floor = 1e-12 / (_FOUR_PI * length ** power)
    if r1 == 0.0 and r3 == 0.0:
        return ValueWithError(pref * known), floor
    scales = [2.0 * d]
    if r1 != 0.0:
        scales.append(a_free + a1)
    if r3 != 0.0:
        scales.append(a_free + a3)

    def f(k: np.ndarray) -> np.ndarray:
        return kernel(k, a_free, a1, a3, d, r1, r3)

    got = hankel_integral(f, rho, replace(spec, abs_tol=floor / pref),
                          k_scale=1.0 / max(min(scales), 1e-300), order=order, subtracted=known)
    return ValueWithError(pref * (known + got.value), pref * got.abs_err), floor


def cavity_g_general(z: float, z0: float, rho: float, d: float,
                     eps1: Permittivity, eps2: float, eps3: Permittivity,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """Gap Green's function between heights z0 (source) and z, in-plane offset
    rho: the free term 1/(4 pi eps2 r) in closed form plus the Hankel
    integral of the reflected kernel, to rel_tol of their sum."""
    return _gap_integral(kernels.cavity_integrand, z, z0, rho, d, eps1, eps2, eps3, spec,
                         free=True)[0]


def cavity_grad_general(z: float, z0: float, rho: float, d: float,
                        eps1: Permittivity, eps2: float, eps3: Permittivity,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """(dg/drho, dg/dz) of cavity_g_general, z the field point's height.

    The free-space part 1/(4 pi eps2 r) is differentiated in closed form. The
    reflected kernel R(k) = exp(-k*a_free)(N/D - 1) is differentiated under
    the integral: dg/drho takes -int R k J1(k rho) dk, and dg/dz the
    z-derivative of R's exponentials against J0. Raises DomainError when the
    free-space part overflows float64, and ConvergenceError when the
    gradient's abs_err exceeds 1% of its magnitude (see _checked_gradient).
    """
    pref = 1.0 / (_FOUR_PI * finite_eps(eps2, "eps2"))
    r = math.hypot(rho, z - z0)
    if r == 0.0:
        raise CoincidentPointsError("cavity_grad_general: field point coincides with source")
    # divided by r in stages: r * r * r underflows to 0 below r ~ 1e-108
    free_rho = pref * (rho / r) / r / r
    free_z = pref * ((z - z0) / r) / r / r
    if not (math.isfinite(free_rho) and math.isfinite(free_z)):
        raise DomainError(f"cavity_grad_general: the free-space gradient at a separation "
                          f"of {r!r} m overflows float64")
    sign = 1.0 if z >= z0 else -1.0  # the field point is the upper one, or the lower

    def reflected_k(k, a_free, a1, a3, d, r1, r3):
        return k * np.exp(-k * a_free) * kernels.cavity_scatter_integrand(k, a1, a3, d, r1, r3)

    def reflected_dz(k, *args):
        return kernels.cavity_reflected_dz(k, *args, sign)

    pair = (z, z0, rho, d, eps1, eps2, eps3, spec)
    d_rho, floor = _gap_integral(reflected_k, *pair, power=2, order=1)
    d_z, _ = _gap_integral(reflected_dz, *pair, power=2)
    return _checked_gradient(
        (ValueWithError(-free_rho - d_rho.value, d_rho.abs_err),
         ValueWithError(-free_z + d_z.value, d_z.abs_err)), floor,
        f"Hankel gradient of the gap kernel (orders 1 and 0) at rho = {rho!r}, "
        f"z = {z!r}, z0 = {z0!r}, d = {d!r}, rel_tol = {spec.rel_tol!r}")


def conducting_gap_g(z: float, z0: float, rho: float, d: float,
                     eps2: float) -> ValueWithError:
    """Green's function between grounded walls at z = -d/2 and d/2, from its modes.

    g = sum_n sin(n pi u/d) sin(n pi u0/d) K0(n pi rho/d) / (pi d eps2), with
    u = z + d/2 and u0 = z0 + d/2, for rho > 0. abs_err bounds the dropped
    modes and the roundoff of the kept ones.
    """
    from scipy.special import k0
    n, a, pref, (s, _, m), (s0, _, m0) = _modes(z, z0, rho, d, eps2)
    kv = k0(n * a)
    err = _mode_tail(n, a, k0) + _mode_roundoff(n, a, d, s, m, s0, m0, kv)
    return ValueWithError(pref * float(np.sum(s * s0 * kv)), pref * err)


def conducting_gap_grad(z: float, z0: float, rho: float, d: float, eps2: float):
    """(dg/drho, dg/dz) of conducting_gap_g, z the field point's height: the
    modes differentiated term by term, K0' = -K1 in rho and sin' = cos in z."""
    from scipy.special import k0, k1
    n, a, pref, (s, c, m), (s0, _, m0) = _modes(z, z0, rho, d, eps2)
    kn = n * (math.pi / d)
    kv0 = kn * k0(n * a)
    kv1 = kn * k1(n * a)
    err_rho = _mode_tail(n, a, k1, math.pi / d) + _mode_roundoff(n, a, d, s, m, s0, m0, kv1)
    err_z = _mode_tail(n, a, k0, math.pi / d) + _mode_roundoff(n, a, d, c, m, s0, m0, kv0)
    return (ValueWithError(-pref * float(np.sum(s * s0 * kv1)), pref * err_rho),
            ValueWithError(pref * float(np.sum(c * s0 * kv0)), pref * err_z))


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


def conducting_gap_g1(z0: float, d: float, eps2: float) -> ValueWithError:
    """Scattering part at coincident points between grounded walls, in closed form.

    g1 = (gamma + (psi(x) + psi(y))/2) / (4 pi eps2 d), with x = (d/2 + z0)/d
    and y = (d/2 - z0)/d = 1 - x; the midplane value is -ln 2/(2 pi eps2 d).
    """
    from scipy.special import digamma
    u, w = _wall_distances(z0, d)
    e2 = finite_eps(eps2, "eps2")
    return ValueWithError((np.euler_gamma + 0.5 * (digamma(u / d) + digamma(w / d)))
                          / (_FOUR_PI * e2 * d))


def conducting_gap_dg1(z0: float, d: float, eps2: float) -> ValueWithError:
    """d/dz0 of conducting_gap_g1, both points moving:
    (psi'(x) - psi'(y)) / (8 pi eps2 d^2), with the trigamma psi'."""
    from scipy.special import polygamma
    u, w = _wall_distances(z0, d)
    e2 = finite_eps(eps2, "eps2")
    return ValueWithError((polygamma(1, u / d) - polygamma(1, w / d))
                          / (2.0 * _FOUR_PI * e2 * d * d))


def cavity_scattering_g1(z0: float, d: float, eps1: Permittivity, eps2: float,
                         eps3: Permittivity,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """Reflection-only part at coincident points (rho = 0, z = z0); finite.
    The integral of cavity_g_general's reflected kernel at a_free = 0."""
    return _gap_integral(kernels.cavity_integrand, z0, z0, 0.0, d, eps1, eps2, eps3, spec)[0]


def cavity_scattering_dg1(z0: float, d: float, eps1: Permittivity, eps2: float,
                          eps3: Permittivity,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """d/dz0 of cavity_scattering_g1, both points moving: by symmetry twice the
    derivative at one point, so one half-line integral of twice the pair
    route's kernel cavity_reflected_dz at a_free = 0, which is
    2k (r1 e^{-k a1} - r3 e^{-k a3}) / D since a1 + a3 = 2d cancels its r1 r3
    terms. Raises ConvergenceError when its abs_err exceeds 1% of its
    magnitude (see _checked_gradient)."""
    def twice_dz(k, *args):
        return 2.0 * kernels.cavity_reflected_dz(k, *args, 1.0)

    dg1, floor = _gap_integral(twice_dz, z0, z0, 0.0, d, eps1, eps2, eps3, spec, power=2)
    _checked_gradient(
        (dg1,), floor,
        f"half-line integral of the gap self-force kernel at z0 = {z0!r}, d = {d!r}, "
        f"rel_tol = {spec.rel_tol!r}")
    return dg1


def cavity_g_series(rho: float, d: float, coeffs: CavityCoeffs, eps2: float,
                    n_max: int = 200, z: float = 0.0, z0: float = 0.0) -> ValueWithError:
    """Image series between the source height z0 and the field height z.

    With q = r1 r3, a = z - z0, b = z + z0 + d and D(s) = sqrt(rho^2 + s^2)
    (Barrera, Guzman & Balaguer, Am. J. Phys. 46 (1978) 1172),

        4 pi eps2 g = sum_{|m| <= n_max} q^|m| / D(a + 2md)
                      - sum_{k=0}^{n_max} q^k (r1 / D(b + 2kd) + r3 / D(b - 2(k+1)d)),

    summed at any heights for |q| < 1, with abs_err a geometric bound from
    the first term dropped. At the midplane z = z0 = 0 with both walls
    conducting (r1 = r3 = 1) the sum is rearranged as the alternating
    image-distance series and extrapolated by repeated averaging, which
    converges far below the plain partial sums; abs_err then adds the
    roundoff of that cancelling sum, eps * (1/rho + sum |terms|), which
    exceeds the value itself beyond about 10 d.
    """
    if rho <= 0.0:
        raise DomainError(f"rho must be > 0, got {rho!r}")
    if d <= 0.0:
        raise DomainError(f"d must be > 0, got {d!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max!r}")
    e2 = finite_eps(eps2, "eps2")
    r1, r3 = coeffs.r1, coeffs.r3
    q = r1 * r3
    c = r1 + r3
    pref = 1.0 / (_FOUR_PI * e2)

    def image_dist(a: np.ndarray) -> np.ndarray:
        return np.sqrt((a * d) ** 2 + rho * rho)

    if abs(q) < 1.0:
        _check_gap(z, d, "z")
        _check_gap(z0, d, "z0")
        a, b = (z - z0) / d, (z + z0) / d + 1.0
        n = np.arange(0, n_max + 2, dtype=float)  # n_max + 1 is the first term dropped
        qn = q ** n
        direct = qn * (1.0 / image_dist(a + 2.0 * n) + 1.0 / image_dist(a - 2.0 * n))
        below = r1 * qn / image_dist(b + 2.0 * n)  # images in the wall at -d/2
        above = r3 * qn / image_dist(b - 2.0 * n - 2.0)  # and in the wall at d/2
        value = 0.5 * direct[0] + np.sum(direct[1:-1]) - np.sum(below[:-1] + above[:-1])
        dropped = abs(direct[-1]) + abs(below[-1]) + abs(above[-1])
        return ValueWithError(pref * value, pref * dropped / (1.0 - abs(q)))

    if z != 0.0 or z0 != 0.0:
        raise DomainError(f"the image series for r1 r3 = {q!r} is summed at the midplane only")
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
    return ValueWithError(pref * (1.0 / rho + s), pref * (err + roundoff))


def cavity_asymptotic(rho: float, d: float, eps2: float) -> ValueWithError:
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
    return ValueWithError(value)
