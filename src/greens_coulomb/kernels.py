"""Hot numeric kernels: the array kernels in numpy, the aperture's in math.

The quadrature integrands take a 1-D float64 array of wavenumbers, so the
panel integrator evaluates a block of panels, or a whole bisection level, in
one call; the Born octree's kernels take a block of cells and return
per-cell sums, `alpha_chain_sum` of the energy's integrand and
`alpha_chain_grad_sum` of its gradient's three components. The gap's
kernels are its reflected parts alone,
the free term being taken in closed form, and serve the pair and the
self-term alike: `cavity_integrand` at a_free = 0 is the kernel of g1, and
`cavity_reflected_dz` at a_free = 0 that of half its gradient. The
aperture kernels (`hole_greens`, its gradient and the on-axis self-terms)
are scalar; `hole_greens` and its gradient take the
same Cartesian points, which `analytic` divides by a power of two that
brings them to order 1, and share their auxiliaries (`_hole_terms`).
Callers look the kernels up on this module at call time. Each array kernel
imports numpy itself, once per call on a block of nodes, so that importing
this module, which `core` and `analytic` do, loads none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_TWO_OVER_PI = 2.0 / math.pi
_SQRT2 = math.sqrt(2.0)


def _bracket(Ft: float, D: float) -> float:
    # B = [1 + (2/pi) arctan(Ft/D)] / D with Ft = lam * F, written so that
    # Ft < 0 stays finite as D -> 0 (arctan(Ft/D) -> -pi/2 saturation).
    if Ft >= 0.0:
        return (1.0 + _TWO_OVER_PI * math.atan2(Ft, D)) / D
    if D <= 0.0:
        return _TWO_OVER_PI / -Ft
    return _TWO_OVER_PI * math.atan2(D, -Ft) / D


def _hole_terms(x, y, z, xp, yp, zp, R):
    """The auxiliaries that hole_greens and its gradient share.

    s = r^2 - R^2 and A = |s + 2iRz| for each point, and for each term of g
    (plus, then minus) q, w, lam and D: F = sqrt(q + A Ap) / (sqrt(2) R),
    (A Ap)^2 - q^2 = 4 R^2 w^2, and D is the distance to the source or to
    its mirror image. Lengths are taken with hypot, so A is 0 on the rim
    alone and D is 0 only where the two points coincide.
    """
    R2 = R * R
    s = x * x + y * y + z * z - R2
    sp = xp * xp + yp * yp + zp * zp - R2
    A = math.hypot(s, 2.0 * R * z)
    Ap = math.hypot(sp, 2.0 * R * zp)
    cross = 4.0 * R2 * z * zp
    t = zp * s + z * sp
    u = zp * s - z * sp
    if zp >= 0.0:
        lm, lp = 1.0, (1.0 if t > 0.0 else -1.0)
    else:
        lm, lp = (1.0 if u > 0.0 else -1.0), -1.0
    ex, ey = x - xp, y - yp
    return (s, sp, A, Ap, ex, ey,
            s * sp - cross, t, lp, math.hypot(ex, ey, z + zp),
            s * sp + cross, u, lm, math.hypot(ex, ey, z - zp))


def _signed_f(q, w, AAp, R, lam):
    """lam * F of one term of hole_greens.

    Where q >= 0, F = sqrt(q + A Ap) / (sqrt(2) R). Elsewhere q + A Ap
    cancels, and F = sqrt(2) |w| / sqrt(A Ap - q) instead.
    """
    if q >= 0.0:
        return lam * math.sqrt(q + AAp) / (_SQRT2 * R)
    return (lam if w > 0.0 else -lam) * _SQRT2 / math.sqrt(AAp - q) * w


def hole_greens(x, y, z, xp, yp, zp, R):
    """Green's function of a grounded plate with a circular aperture.

    Cartesian points, aperture of radius R centered on the z axis, conductor
    at z = 0, x^2 + y^2 >= R^2. Requires z >= 0 (map z < 0 configurations
    by the mirror symmetry of the geometry before calling).

    g = [B(lam_minus F_minus, D_minus) - B(lam_plus F_plus, D_plus)] / (8 pi),
    with B(Ft, D) = [1 + (2/pi) arctan(Ft/D)] / D.
    """
    _, _, A, Ap, _, _, qp, t, lp, Dp, qm, u, lm, Dm = _hole_terms(x, y, z, xp, yp, zp, R)
    AAp = A * Ap
    return (_bracket(_signed_f(qm, u, AAp, R, lm), Dm)
            - _bracket(_signed_f(qp, t, AAp, R, lp), Dp)) / (8.0 * math.pi)


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
    F is that of _signed_f, and lam * F is smooth across w = 0 wherever lam
    flips with the sign of w.
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


def _times(k: float, delta: float) -> float:
    """k delta; 0 where the offset delta is 0, even if k overflows (inf * 0 is NaN)."""
    return k * delta if delta else 0.0


def hole_greens_grad(x, y, z, xp, yp, zp, R):
    """Field-point gradient (dg/dx, dg/dy, dg/dz) of hole_greens, Cartesian, z >= 0.

    The chain rule through the auxiliaries of _hole_terms, all algebraic in
    the two points; the gradient divides by A, which is 0 on the rim alone.
    """
    s, sp, A, Ap, ex, ey, qp, t, lp, Dp, qm, u, lm, Dm = _hole_terms(x, y, z, xp, yp, zp, R)
    R2 = R * R
    AAp = A * Ap
    dAAp = (2.0 * s * Ap / A, 4.0 * R2 * z * Ap / A)
    Fp, dFp = _signed_f_grad(qp, (2.0 * sp, -4.0 * R2 * zp), t,
                             (2.0 * zp, sp), AAp, dAAp, R, lp)
    Fm, dFm = _signed_f_grad(qm, (2.0 * sp, 4.0 * R2 * zp), u,
                             (2.0 * zp, -sp), AAp, dAAp, R, lm)
    bFm, bDm = _bracket_grad(Fm, Dm)
    bFp, bDp = _bracket_grad(Fp, Dp)
    # g = (B_minus - B_plus) / (8 pi): coefficients of r, z_hat, r - r' and r - r'*
    c_r = bFm * dFm[0] - bFp * dFp[0]
    c_z = bFm * dFm[1] - bFp * dFp[1]
    c_d = bDm - bDp
    scale = 1.0 / (8.0 * math.pi)
    return (scale * (c_r * x + _times(c_d, ex)), scale * (c_r * y + _times(c_d, ey)),
            scale * (c_r * z + c_z + _times(bDm, z - zp) - _times(bDp, z + zp)))


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
    # x/(1 + x^2) is 0 where x overflows (|z| past R by more than float64 holds)
    f = (x / (1.0 + x * x) if x < math.inf else 0.0) - math.atan(x)
    return -math.copysign(1.0, z) * f / (4.0 * math.pi ** 2) / az / az


def _one_minus_r_exp(r: float, x: np.ndarray) -> np.ndarray:
    # 1 - r*exp(-x) evaluated without cancellation near r = 1, x = 0.
    import numpy as np
    return (1.0 - r) - r * np.expm1(-x)


def _reflection(k: np.ndarray, a1: float, a3: float, d: float, r1: float,
                r3: float) -> np.ndarray:
    # N/D - 1, with N = (1 - r1 e^{-k a1})(1 - r3 e^{-k a3}) and D = 1 - r1 r3 e^{-2kd}
    import numpy as np
    e1 = np.exp(-k * a1)
    e3 = np.exp(-k * a3)
    ed = np.exp(-2.0 * d * k)
    den = _one_minus_r_exp(r1 * r3, 2.0 * d * k)
    # N - D = -r1*e1 - r3*e3 + r1*r3*e1*e3 + r1*r3*ed, grouped to avoid
    # cancellation (every term is exponentially small at large k).
    num = -r1 * e1 - r3 * e3 + r1 * r3 * (e1 * e3 + ed)
    return num / den


def cavity_integrand(k: np.ndarray, a_free: float, a1: float, a3: float,
                     d: float, r1: float, r3: float) -> np.ndarray:
    """The gap's reflected pair kernel exp(-k*a_free)*(N/D - 1): the layered
    kernel exp(-k*a_free)*N/D less its free term."""
    import numpy as np
    k = np.asarray(k, dtype=float)
    return np.exp(-k * a_free) * _reflection(k, a1, a3, d, r1, r3)


def cavity_scatter_integrand(k: np.ndarray, a1: float, a3: float,
                             d: float, r1: float, r3: float) -> np.ndarray:
    """N/D - 1, the factor of cavity_integrand that the gradient in rho
    multiplies by k exp(-k*a_free)."""
    import numpy as np
    return _reflection(np.asarray(k, dtype=float), a1, a3, d, r1, r3)


def cavity_reflected_dz(k: np.ndarray, a_free: float, a1: float, a3: float,
                        d: float, r1: float, r3: float, sign: float) -> np.ndarray:
    """d/dz of the reflected gap kernel exp(-k*a_free)*(N/D - 1), at the upper point
    (sign 1) or at the lower one (sign -1), the other point fixed.

    The exponents of the reflected terms r1 e^{-k(a_free+a1)} and
    r3 e^{-k(a_free+a3)} change at rates +1 and -1 with either point, those
    of r1 r3 e^{-k(a_free+a1+a3)} and r1 r3 e^{-k(a_free+2d)} at rates -sign
    and +sign.
    """
    import numpy as np
    k = np.asarray(k, dtype=float)
    t1 = r1 * np.exp(-k * (a_free + a1))
    t3 = r3 * np.exp(-k * (a_free + a3))
    t13 = r1 * r3 * np.exp(-k * (a_free + a1 + a3))
    td = r1 * r3 * np.exp(-k * (a_free + 2.0 * d))
    den = _one_minus_r_exp(r1 * r3, 2.0 * d * k)
    return k * (t1 - t3 + sign * (t13 - td)) / den


def _chain_terms(points: np.ndarray, weights: np.ndarray, r: np.ndarray, rp: np.ndarray,
                 alpha: np.ndarray):
    """r - x, alpha.(rp - x), (r-x).alpha.(rp-x), |r-x|^2 and w / (|r-x|^3 |rp-x|^3)
    at every node of points (cells * n, 3). The nodes run along rows, one row
    per component, so that every product is over contiguous memory. The sums
    over components are written out: an einsum's rounding depends on the
    memory layout of points, and the octree's results must not."""
    import numpy as np
    s1 = r[:, np.newaxis] - points.T
    s2 = rp[:, np.newaxis] - points.T
    a2 = alpha @ s2
    n1 = s1[0] * s1[0] + s1[1] * s1[1] + s1[2] * s1[2]
    n2 = s2[0] * s2[0] + s2[1] * s2[1] + s2[2] * s2[2]
    quad = s1[0] * a2[0] + s1[1] * a2[1] + s1[2] * a2[2]
    n12 = n1 * n2
    return s1, a2, quad, n1, weights.reshape(-1) / (n12 * np.sqrt(n12))


def alpha_chain_sum(points: np.ndarray, weights: np.ndarray,
                    r: np.ndarray, rp: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-cell sums over quadrature nodes of w * (r-x).alpha.(rp-x) / (|r-x|^3 |rp-x|^3).

    points: (cells * n, 3), cell by cell; weights: (cells, n); r, rp: (3,);
    alpha: (3, 3). Returns (cells,).
    """
    import numpy as np
    _, _, quad, _, scale = _chain_terms(points, weights, r, rp, alpha)
    return np.sum((quad * scale).reshape(weights.shape), axis=-1)


def alpha_chain_grad_sum(points: np.ndarray, weights: np.ndarray, r: np.ndarray,
                         rp: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-cell sums of the gradient in r of alpha_chain_sum's terms,
    w * [alpha.(rp-x) - 3 (r-x) (r-x).alpha.(rp-x) / |r-x|^2] / (|r-x|^3 |rp-x|^3).

    points: (cells * n, 3), cell by cell; weights: (cells, n); alpha
    symmetric. Returns (cells, 3).
    """
    import numpy as np
    s1, a2, quad, n1, scale = _chain_terms(points, weights, r, rp, alpha)
    terms = a2 * scale - s1 * (3.0 * quad / n1 * scale)
    return np.sum(terms.reshape(3, *weights.shape), axis=-1).T
