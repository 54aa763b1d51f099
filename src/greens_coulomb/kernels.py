"""Hot numeric kernels, written in numpy.

The quadrature integrands take a 1-D float64 array of wavenumbers, so the
panel integrator evaluates a block of panels, or a whole bisection level, in
one call; `alpha_chain_sum` also takes 2-D weights and returns per-cell sums,
which is how the Born octree calls it. `hole_greens` is scalar. Callers look
the kernels up on this module at call time.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_OVER_PI = 2.0 / math.pi
_SQRT2 = math.sqrt(2.0)


def _bracket(lam: float, F: float, D: float) -> float:
    # (1/D) * [1 + (2*lam/pi) * arctan(F/D)], written so the lam = -1 branch
    # stays finite as D -> 0 (arctan(F/D) -> pi/2 saturation).
    if lam > 0.0:
        return (1.0 + _TWO_OVER_PI * math.atan2(F, D)) / D
    if D <= 0.0:
        return _TWO_OVER_PI / F
    return _TWO_OVER_PI * math.atan2(D, F) / D


def hole_greens(rho, phi, z, rhop, phip, zp, R):
    """Green's function of a grounded plate with a circular aperture.

    Cylindrical coordinates, aperture of radius R centered on the z axis,
    conductor at z = 0, rho >= R. Requires z >= 0 (map z < 0 configurations
    by the mirror symmetry of the geometry before calling).

    Returns (g, F_minus, F_plus, D_minus, D_plus, lam_minus, lam_plus).
    """
    R2 = R * R
    s = rho * rho + z * z - R2
    sp = rhop * rhop + zp * zp - R2
    A = math.sqrt(s * s + 4.0 * R2 * z * z)
    Ap = math.sqrt(sp * sp + 4.0 * R2 * zp * zp)
    cross = 4.0 * R2 * z * zp
    braces_p = s * sp - cross + A * Ap
    braces_m = s * sp + cross + A * Ap
    Fp = math.sqrt(braces_p if braces_p > 0.0 else 0.0) / (_SQRT2 * R)
    Fm = math.sqrt(braces_m if braces_m > 0.0 else 0.0) / (_SQRT2 * R)

    perp2 = rho * rho + rhop * rhop - 2.0 * rho * rhop * math.cos(phi - phip)
    if perp2 < 0.0:
        perp2 = 0.0
    Dm = math.sqrt(perp2 + (z - zp) * (z - zp))
    Dp = math.sqrt(perp2 + (z + zp) * (z + zp))

    if zp >= 0.0:
        lm = 1.0
        t = zp * s + z * sp
        lp = 1.0 if t > 0.0 else -1.0
    else:
        lp = -1.0
        u = zp * s - z * sp
        lm = 1.0 if u > 0.0 else -1.0

    g = (_bracket(lm, Fm, Dm) - _bracket(lp, Fp, Dp)) / (8.0 * math.pi)
    return g, Fm, Fp, Dm, Dp, lm, lp


def _one_minus_r_exp(r: float, x: np.ndarray) -> np.ndarray:
    # 1 - r*exp(-x) evaluated without cancellation near r = 1, x = 0.
    return (1.0 - r) - r * np.expm1(-x)


def cavity_integrand(k: np.ndarray, a_free: float, a1: float, a3: float,
                     d: float, r1: float, r3: float) -> np.ndarray:
    """Layered-gap integrand exp(-k*a_free)*(1-r1*e^{-k*a1})(1-r3*e^{-k*a3})/(1-r1*r3*e^{-2kd})."""
    k = np.asarray(k, dtype=float)
    num = _one_minus_r_exp(r1, k * a1) * _one_minus_r_exp(r3, k * a3)
    den = _one_minus_r_exp(r1 * r3, 2.0 * d * k)
    return np.exp(-k * a_free) * num / den


def cavity_scatter_integrand(k: np.ndarray, a1: float, a3: float,
                             d: float, r1: float, r3: float) -> np.ndarray:
    """Reflection-only part of the gap integrand at coincident heights: N/D - 1."""
    k = np.asarray(k, dtype=float)
    e1 = np.exp(-k * a1)
    e3 = np.exp(-k * a3)
    ed = np.exp(-2.0 * d * k)
    den = _one_minus_r_exp(r1 * r3, 2.0 * d * k)
    # N - D = -r1*e1 - r3*e3 + r1*r3*e1*e3 + r1*r3*ed, grouped to avoid
    # cancellation (every term is exponentially small at large k).
    num = -r1 * e1 - r3 * e3 + r1 * r3 * (e1 * e3 + ed)
    return num / den


def cavity_reflected_dz(k: np.ndarray, a_free: float, a1: float, a3: float,
                        d: float, r1: float, r3: float, sign: float) -> np.ndarray:
    """d/dz of the reflected gap kernel exp(-k*a_free)*(N/D - 1), at the upper point
    (sign 1) or at the lower one (sign -1), the other point fixed.

    The exponents of the reflected terms r1 e^{-k(a_free+a1)} and
    r3 e^{-k(a_free+a3)} change at rates +1 and -1 with either point, those
    of r1 r3 e^{-k(a_free+a1+a3)} and r1 r3 e^{-k(a_free+2d)} at rates -sign
    and +sign.
    """
    k = np.asarray(k, dtype=float)
    t1 = r1 * np.exp(-k * (a_free + a1))
    t3 = r3 * np.exp(-k * (a_free + a3))
    t13 = r1 * r3 * np.exp(-k * (a_free + a1 + a3))
    td = r1 * r3 * np.exp(-k * (a_free + 2.0 * d))
    den = _one_minus_r_exp(r1 * r3, 2.0 * d * k)
    return k * (t1 - t3 + sign * (t13 - td)) / den


def cavity_scatter_dz(k: np.ndarray, a1: float, a3: float,
                      d: float, r1: float, r3: float) -> np.ndarray:
    """d/dz0 of cavity_scatter_integrand with both points at z0 (a1 = d + 2 z0,
    a3 = d - 2 z0): 2k (r1 e^{-k a1} - r3 e^{-k a3}) / D; e^{-k(a1+a3)} is fixed."""
    k = np.asarray(k, dtype=float)
    num = r1 * np.exp(-k * a1) - r3 * np.exp(-k * a3)
    return 2.0 * k * num / _one_minus_r_exp(r1 * r3, 2.0 * d * k)


def screening_integrand(k: np.ndarray, r: float, eps_b: float, w: float) -> np.ndarray:
    """k / (r * (eps_b * k^2 + w)), the smooth factor multiplying sin(k r).

    w = (omega_p / beta)^2; equals 1/(k r eps(k, 0)) for the hydrodynamic
    static longitudinal permittivity.
    """
    k = np.asarray(k, dtype=float)
    return k / (r * (eps_b * k * k + w))


def alpha_chain_sum(points: np.ndarray, weights: np.ndarray,
                    r: np.ndarray, rp: np.ndarray, alpha: np.ndarray):
    """Sum over quadrature nodes of w * (r-x).alpha.(rp-x) / (|r-x|^3 |rp-x|^3).

    points: (n, 3); r, rp: (3,); alpha: (3, 3). weights: (n,), giving a
    float, or (cells, n // cells), giving the per-cell sums over the last
    axis as an array (cells,); the points then run cell by cell.
    """
    s1 = r[np.newaxis, :] - points
    s2 = rp[np.newaxis, :] - points
    n1 = np.einsum("ij,ij->i", s1, s1)
    n2 = np.einsum("ij,ij->i", s2, s2)
    quad = np.einsum("ij,ij->i", s1 @ alpha, s2)
    terms = np.reshape(weights, -1) * quad / (n1 * np.sqrt(n1) * n2 * np.sqrt(n2))
    sums = np.sum(terms.reshape(np.shape(weights)), axis=-1)
    return float(sums) if np.ndim(weights) == 1 else sums
