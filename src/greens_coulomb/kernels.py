"""Hot numeric kernels, written in numpy.

The quadrature integrands take a 1-D float64 array of wavenumbers, so the
panel integrator evaluates a block of panels, or a whole bisection level, in
one call; `alpha_chain_sum` also takes 2-D weights and returns per-cell sums,
which is how the Born octree calls it, as does its gradient
`alpha_chain_grad_sum`. The gap's reflected kernels serve the pair and the
self-term alike: `cavity_reflected_dz` at a_free = 0, doubled, is the
self-force kernel. The aperture kernels (`hole_greens`, its gradient and the
on-axis self-terms) are scalar; `analytic` hands `hole_greens` and its
gradient lengths divided by a power of two that brings them to order 1.
Callers look the kernels up on this module at call time.
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


def _braces(q: float, w: float, AAp: float, R2: float) -> float:
    # q + A*Ap, the radicand of F; where q < 0 the sum cancels, and since
    # (A*Ap)^2 - q^2 = 4 R^2 w^2 it is taken as 4 R^2 w^2 / (A*Ap - q) instead
    b = q + AAp if q >= 0.0 else 4.0 * R2 * w * w / (AAp - q)
    return b if b > 0.0 else 0.0


def hole_greens(rho, phi, z, rhop, phip, zp, R):
    """Green's function of a grounded plate with a circular aperture.

    Cylindrical coordinates, aperture of radius R centered on the z axis,
    conductor at z = 0, rho >= R. Requires z >= 0 (map z < 0 configurations
    by the mirror symmetry of the geometry before calling).

    g = [B(lam_minus, F_minus, D_minus) - B(lam_plus, F_plus, D_plus)] / (8 pi),
    with B = [1 + (2 lam/pi) arctan(F/D)] / D.
    """
    R2 = R * R
    s = rho * rho + z * z - R2
    sp = rhop * rhop + zp * zp - R2
    AAp = math.sqrt(s * s + 4.0 * R2 * z * z) * math.sqrt(sp * sp + 4.0 * R2 * zp * zp)
    cross = 4.0 * R2 * z * zp
    t = zp * s + z * sp
    u = zp * s - z * sp
    Fp = math.sqrt(_braces(s * sp - cross, t, AAp, R2)) / (_SQRT2 * R)
    Fm = math.sqrt(_braces(s * sp + cross, u, AAp, R2)) / (_SQRT2 * R)

    perp2 = rho * rho + rhop * rhop - 2.0 * rho * rhop * math.cos(phi - phip)
    if perp2 < 0.0:
        perp2 = 0.0
    Dm = math.sqrt(perp2 + (z - zp) * (z - zp))
    Dp = math.sqrt(perp2 + (z + zp) * (z + zp))

    if zp >= 0.0:
        lm = 1.0
        lp = 1.0 if t > 0.0 else -1.0
    else:
        lp = -1.0
        lm = 1.0 if u > 0.0 else -1.0

    return (_bracket(lm, Fm, Dm) - _bracket(lp, Fp, Dp)) / (8.0 * math.pi)


def _atan_defect(x: float) -> float:
    """(x/(1 + x^2) - arctan(x)) / x^3 for x >= 0, by its series below 1e-2."""
    if x < 1e-2:
        x2 = x * x
        return -2.0 / 3.0 + x2 * (0.8 - x2 * (6.0 / 7.0 - x2 * (8.0 / 9.0)))
    return (x / (1.0 + x * x) - math.atan(x)) / x / x / x


def _signed_f_grad(q, dq, w, dw, AAp, dAAp, R, lam):
    """lam * F of one term of hole_greens and its field-point gradient.

    A gradient here is a pair (a, b), meaning a * r + b * z_hat, r the field
    point; every auxiliary of the aperture function has one of that form.
    Where q >= 0, F = sqrt(q + A Ap) / (sqrt(2) R). Elsewhere
    F = sqrt(2) |w| / sqrt(A Ap - q) (see _braces), and lam * F is smooth
    across w = 0 wherever lam flips with the sign of w.
    """
    if q >= 0.0:
        root = math.sqrt(q + AAp)
        c = lam / (2.0 * _SQRT2 * R) / root
        return lam * root / (_SQRT2 * R), (c * (dq[0] + dAAp[0]), c * (dq[1] + dAAp[1]))
    E = AAp - q
    c = (lam if w > 0.0 else -lam) * _SQRT2 / math.sqrt(E)
    k = 0.5 * w / E
    return c * w, (c * (dw[0] - k * (dAAp[0] - dq[0])), c * (dw[1] - k * (dAAp[1] - dq[1])))


def _bracket_grad(Ft: float, D: float):
    """(dB/dFt, (dB/dD)/D) of B = [1 + (2/pi) arctan(Ft/D)] / D, Ft = lam * F."""
    h = math.hypot(D, Ft)
    dF = _TWO_OVER_PI / h / h
    if Ft < 0.0 and D < -Ft:
        # the two terms of dB/dD cancel as D/|Ft| -> 0
        G = -Ft
        return dF, _TWO_OVER_PI * _atan_defect(D / G) / G / G / G
    B = (1.0 + _TWO_OVER_PI * math.atan2(Ft, D)) / D
    return dF, -(B + dF * Ft) / D / D


def hole_greens_grad(x, y, z, xp, yp, zp, R):
    """Field-point gradient (dg/dx, dg/dy, dg/dz) of hole_greens, Cartesian, z >= 0.

    The chain rule through s, A, F and D, all algebraic in the two points;
    lengths are taken with hypot, so that A, which the gradient divides by,
    is 0 on the rim alone.
    """
    R2 = R * R
    s = x * x + y * y + z * z - R2
    sp = xp * xp + yp * yp + zp * zp - R2
    A = math.hypot(s, 2.0 * R * z)
    Ap = math.hypot(sp, 2.0 * R * zp)
    AAp = A * Ap
    dAAp = (2.0 * s * Ap / A, 4.0 * R2 * z * Ap / A)
    cross = 4.0 * R2 * z * zp
    t = zp * s + z * sp
    u = zp * s - z * sp
    if zp >= 0.0:
        lm, lp = 1.0, (1.0 if t > 0.0 else -1.0)
    else:
        lm, lp = (1.0 if u > 0.0 else -1.0), -1.0
    Fp, dFp = _signed_f_grad(s * sp - cross, (2.0 * sp, -4.0 * R2 * zp), t,
                             (2.0 * zp, sp), AAp, dAAp, R, lp)
    Fm, dFm = _signed_f_grad(s * sp + cross, (2.0 * sp, 4.0 * R2 * zp), u,
                             (2.0 * zp, -sp), AAp, dAAp, R, lm)

    ex, ey = x - xp, y - yp
    Dm = math.hypot(ex, ey, z - zp)
    Dp = math.hypot(ex, ey, z + zp)
    bFm, bDm = _bracket_grad(Fm, Dm)
    bFp, bDp = _bracket_grad(Fp, Dp)
    # g = (B_minus - B_plus) / (8 pi): coefficients of r, z_hat, r - r' and r - r'*
    c_r = bFm * dFm[0] - bFp * dFp[0]
    c_z = bFm * dFm[1] - bFp * dFp[1]
    c_d = bDm - bDp
    scale = 1.0 / (8.0 * math.pi)
    return (scale * (c_r * x + c_d * ex), scale * (c_r * y + c_d * ey),
            scale * (c_r * z + c_z + bDm * (z - zp) - bDp * (z + zp)))


def hole_onaxis_g1(z: float, R: float) -> float:
    """Reflected part of the aperture function at coincident on-axis points,
    -arctan(|z|/R) / (4 pi^2 |z|), and its limit -1/(4 pi^2 R) at z = 0."""
    az = abs(z)
    if az < R:
        x = az / R
        return -(math.atan(x) / x if x else 1.0) / (4.0 * math.pi ** 2 * R)
    return -math.atan(az / R) / (4.0 * math.pi ** 2 * az)


def hole_onaxis_dg1(z: float, R: float) -> float:
    """d/dz of hole_onaxis_g1: -sign(z) (x/(1 + x^2) - arctan x) / (4 pi^2 z^2), x = |z|/R."""
    az = abs(z)
    x = az / R
    if x < 1.0:
        return -(z / R) * _atan_defect(x) / R / R / (4.0 * math.pi ** 2)
    f = x / (1.0 + x * x) - math.atan(x)
    return -math.copysign(1.0, z) * f / (4.0 * math.pi ** 2) / az / az


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


def alpha_chain_grad_sum(points: np.ndarray, weights: np.ndarray, r: np.ndarray,
                         rp: np.ndarray, alpha: np.ndarray, axis: int) -> np.ndarray:
    """Per-cell sums of the derivative in r[axis] of alpha_chain_sum's terms,
    w * [(alpha.(rp-x))_i - 3 (r-x)_i (r-x).alpha.(rp-x) / |r-x|^2] / (|r-x|^3 |rp-x|^3).

    points: (cells * n, 3), cell by cell; weights: (cells, n); returns (cells,).
    """
    s1 = r[np.newaxis, :] - points
    s2 = rp[np.newaxis, :] - points
    n1 = np.einsum("ij,ij->i", s1, s1)
    n2 = np.einsum("ij,ij->i", s2, s2)
    quad = np.einsum("ij,ij->i", s1 @ alpha, s2)
    terms = (np.reshape(weights, -1) * (s2 @ alpha[axis] - 3.0 * s1[:, axis] * quad / n1)
             / (n1 * np.sqrt(n1) * n2 * np.sqrt(n2)))
    return np.sum(terms.reshape(np.shape(weights)), axis=-1)
