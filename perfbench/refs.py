"""Reference values computed apart from the program under test.

Nothing here imports `greens_coulomb`: every reference is a series, closed
form or quadrature written out again from the physics, so that a fault in
the program cannot also sit in its reference. Each function returns the
value together with a bound on its own truncation error, in the same unit.

Conventions follow the program's: g solves div(eps grad g) = -delta(r - r'),
so the free-space kernel is 1/(4 pi eps |r - r'|); lengths are in meters.
A gap of width d fills -d/2 < z < d/2 with eps2; eps1 lies below, eps3
above. A perfect conductor is passed as None.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import digamma, k0, k1, polygamma

EULER_GAMMA = 0.5772156649015329
FOUR_PI = 4.0 * math.pi


def reflection(eps_wall, eps2: float) -> float:
    """(eps_wall - eps2)/(eps_wall + eps2), 1 for a conductor (None)."""
    if eps_wall is None:
        return 1.0
    return (eps_wall - eps2) / (eps_wall + eps2)


def local_field_factor(eps: float) -> float:
    return 3.0 * eps / (2.0 * eps + 1.0)


# ---------------------------------------------------------------------------
# Gap with two conducting walls: modal (K0) series and the digamma closed form
# ---------------------------------------------------------------------------

_MODAL_X_MAX = 60.0  # K0 beyond this argument is below 1e-27 of K0 at 0.16


def _modal_terms(rho: float, d: float):
    a = math.pi * rho / d
    n_max = int(math.ceil(_MODAL_X_MAX / a))
    n = np.arange(1, n_max + 1, dtype=float)
    return n, a, n_max


def modal_gap_g(ra, rb, d: float, eps2: float):
    """g between grounded walls at z = -d/2 and z = d/2.

    g = sum_n sin(n pi u/d) sin(n pi u0/d) K0(n pi rho/d) / (pi d eps2), with
    u, u0 the heights above the lower wall. K0(x) e^x decreases, so the
    tail past n_max is bounded by a geometric series of ratio e^{-pi rho/d}.
    """
    rho = math.hypot(ra[0] - rb[0], ra[1] - rb[1])
    u, u0 = ra[2] + 0.5 * d, rb[2] + 0.5 * d
    n, a, n_max = _modal_terms(rho, d)
    kn = n * math.pi / d
    val = np.sum(np.sin(kn * u) * np.sin(kn * u0) * k0(n * a))
    tail = k0((n_max + 1) * a) / (1.0 - math.exp(-a))
    pref = 1.0 / (math.pi * d * eps2)
    return pref * float(val), pref * tail


def modal_gap_grad(ra, rb, d: float, eps2: float):
    """Gradient of modal_gap_g with respect to the field point ra."""
    dx, dy = ra[0] - rb[0], ra[1] - rb[1]
    rho = math.hypot(dx, dy)
    u, u0 = ra[2] + 0.5 * d, rb[2] + 0.5 * d
    n, a, n_max = _modal_terms(rho, d)
    kn = n * math.pi / d
    s0 = np.sin(kn * u0)
    d_rho = -np.sum(np.sin(kn * u) * s0 * kn * k1(n * a))
    d_z = np.sum(np.cos(kn * u) * s0 * kn * k0(n * a))
    pref = 1.0 / (math.pi * d * eps2)
    # n K1(n a) e^{n a} decreases no faster than n grows; bound the tail by a
    # geometric series of ratio (N+2)/(N+1) e^{-a}
    ratio = (n_max + 2) / (n_max + 1) * math.exp(-a)
    k_next = (n_max + 1) * math.pi / d
    tail = k_next * k1((n_max + 1) * a) / (1.0 - ratio)
    grad = pref * np.array([d_rho * dx / rho, d_rho * dy / rho, d_z])
    return grad, pref * tail


def digamma_gap_g1(z: float, d: float, eps2: float) -> float:
    """Scattering part at coincident points between grounded walls.

    g1 = (gamma + (psi(x) + psi(1 - x))/2) / (4 pi eps2 d), x = (z + d/2)/d.
    Exact; the midplane value is -ln 2/(2 pi d eps2).
    """
    x = (z + 0.5 * d) / d
    return (EULER_GAMMA + 0.5 * (digamma(x) + digamma(1.0 - x))) / (FOUR_PI * eps2 * d)


def digamma_gap_dg1_dz(z: float, d: float, eps2: float) -> float:
    """d g1(z, z)/dz of digamma_gap_g1, both points moving together."""
    x = (z + 0.5 * d) / d
    return 0.5 * (polygamma(1, x) - polygamma(1, 1.0 - x)) / (FOUR_PI * eps2 * d * d)


# ---------------------------------------------------------------------------
# Gap with at least one dielectric wall: image series in (r1 r3)^n
# ---------------------------------------------------------------------------

def _image_terms(r1: float, r3: float, eps_target: float = 1e-18):
    q = r1 * r3
    if abs(q) >= 1.0:
        raise ValueError("image series needs |r1 r3| < 1")
    n = 2 if q == 0.0 else max(2, int(math.ceil(math.log(eps_target) / math.log(abs(q)))))
    return q, n


def _image_sources(ra, rb, d: float, r1: float, r3: float):
    """Coefficients and z-offsets s of every image kept (its distance from ra
    is sqrt(rho^2 + s^2), and s moves with ra at rate 1), with r1 r3 and the
    truncation order. The first 2n+1 are the source's images, the rest the
    walls' images of it."""
    q, n = _image_terms(r1, r3)
    a = ra[2] - rb[2]
    b = ra[2] + rb[2] + d
    m = np.arange(-n, n + 1, dtype=float)
    k = np.arange(0, n + 1, dtype=float)
    coef = np.concatenate([q ** np.abs(m), -r1 * q ** k, -r3 * q ** k])
    s = np.concatenate([a + 2.0 * m * d, b + 2.0 * k * d, b - 2.0 * (k + 1.0) * d])
    return coef, s, q, n


def _image_tail(q: float, n: int, r1: float, r3: float, d: float, power: int) -> float:
    """Bound on the dropped images: every one past order n is at least
    (2n+1) d away and carries at most |q|^{n+1}."""
    lead = abs(q) ** (n + 1) / (1.0 - abs(q))
    return lead * (2.0 + abs(r1) + abs(r3)) / ((2 * n + 1) * d) ** power


def image_gap_g(ra, rb, d: float, eps1, eps2: float, eps3):
    """Gap g by summing images; both points inside the gap, ra != rb."""
    r1, r3 = reflection(eps1, eps2), reflection(eps3, eps2)
    coef, s, q, n = _image_sources(ra, rb, d, r1, r3)
    rho2 = (ra[0] - rb[0]) ** 2 + (ra[1] - rb[1]) ** 2
    val = np.sum(coef / np.sqrt(rho2 + s * s))
    pref = 1.0 / (FOUR_PI * eps2)
    return pref * float(val), pref * _image_tail(q, n, r1, r3, d, 1)


def image_gap_grad(ra, rb, d: float, eps1, eps2: float, eps3):
    """Gradient of image_gap_g with respect to ra."""
    r1, r3 = reflection(eps1, eps2), reflection(eps3, eps2)
    coef, s, q, n = _image_sources(ra, rb, d, r1, r3)
    dx, dy = ra[0] - rb[0], ra[1] - rb[1]
    inv3 = coef / (dx * dx + dy * dy + s * s) ** 1.5
    grad = -np.array([dx * np.sum(inv3), dy * np.sum(inv3), np.sum(s * inv3)])
    pref = 1.0 / (FOUR_PI * eps2)
    return pref * grad, pref * _image_tail(q, n, r1, r3, d, 2)


def image_gap_g1(z: float, d: float, eps1, eps2: float, eps3):
    """Scattering part at coincident points: the image sum without the source."""
    r1, r3 = reflection(eps1, eps2), reflection(eps3, eps2)
    coef, s, q, n = _image_sources((0.0, 0.0, z), (0.0, 0.0, z), d, r1, r3)
    keep = s != 0.0
    val = np.sum(coef[keep] / np.abs(s[keep]))
    pref = 1.0 / (FOUR_PI * eps2)
    return pref * float(val), pref * _image_tail(q, n, r1, r3, d, 1)


def image_gap_dg1_dz(z: float, d: float, eps1, eps2: float, eps3):
    """d g1(z, z)/dz: only the wall images (offset z + z0 + d) move, at rate 2."""
    r1, r3 = reflection(eps1, eps2), reflection(eps3, eps2)
    coef, s, q, n = _image_sources((0.0, 0.0, z), (0.0, 0.0, z), d, r1, r3)
    moving = slice(2 * n + 1, None)
    c, sm = coef[moving], s[moving]
    val = np.sum(-2.0 * c * sm / np.abs(sm) ** 3)
    pref = 1.0 / (FOUR_PI * eps2)
    return pref * float(val), 2.0 * pref * _image_tail(q, n, r1, r3, d, 2)


def gap_g(ra, rb, d, eps1, eps2, eps3):
    if eps1 is None and eps3 is None:
        return modal_gap_g(ra, rb, d, eps2)
    return image_gap_g(ra, rb, d, eps1, eps2, eps3)


def gap_grad(ra, rb, d, eps1, eps2, eps3):
    if eps1 is None and eps3 is None:
        return modal_gap_grad(ra, rb, d, eps2)
    return image_gap_grad(ra, rb, d, eps1, eps2, eps3)


def gap_g1(z, d, eps1, eps2, eps3):
    if eps1 is None and eps3 is None:
        return digamma_gap_g1(z, d, eps2), 0.0
    return image_gap_g1(z, d, eps1, eps2, eps3)


def gap_dg1_dz(z, d, eps1, eps2, eps3):
    if eps1 is None and eps3 is None:
        return digamma_gap_dg1_dz(z, d, eps2), 0.0
    return image_gap_dg1_dz(z, d, eps1, eps2, eps3)


# ---------------------------------------------------------------------------
# Closed forms: free space, planar interface, screened bulk, plate with hole
# ---------------------------------------------------------------------------

def _vec(p):
    return np.asarray(p, dtype=float)


def coulomb_grad(ra, rb, eps: float) -> np.ndarray:
    """Gradient in ra of 1/(4 pi eps |ra - rb|)."""
    r = _vec(ra) - _vec(rb)
    return -r / (FOUR_PI * eps * float(np.linalg.norm(r)) ** 3)


def half_space_g(ra, rb, eps_up, eps_down) -> float:
    """Interface at z = 0, eps_up above; None marks a conductor."""
    ra, rb = _vec(ra), _vec(rb)
    side_a = eps_up if ra[2] > 0 else eps_down
    side_b = eps_up if rb[2] > 0 else eps_down
    if side_a is None or side_b is None:
        return 0.0
    if ra[2] * rb[2] < 0.0:
        return 2.0 / ((eps_up + eps_down) * FOUR_PI * float(np.linalg.norm(ra - rb)))
    other = eps_down if ra[2] > 0 else eps_up
    refl = -1.0 if other is None else (side_a - other) / (side_a + other)
    image = rb * np.array([1.0, 1.0, -1.0])
    return (1.0 / float(np.linalg.norm(ra - rb))
            + refl / float(np.linalg.norm(ra - image))) / (FOUR_PI * side_a)


def half_space_grad(ra, rb, eps_up, eps_down) -> np.ndarray:
    """Gradient in ra of half_space_g."""
    ra, rb = _vec(ra), _vec(rb)
    side_a = eps_up if ra[2] > 0 else eps_down
    side_b = eps_up if rb[2] > 0 else eps_down
    if side_a is None or side_b is None:
        return np.zeros(3)
    if ra[2] * rb[2] < 0.0:
        return coulomb_grad(ra, rb, 0.5 * (eps_up + eps_down))
    other = eps_down if ra[2] > 0 else eps_up
    refl = -1.0 if other is None else (side_a - other) / (side_a + other)
    image = rb * np.array([1.0, 1.0, -1.0])
    return coulomb_grad(ra, rb, side_a) + refl * coulomb_grad(ra, image, side_a)


def half_space_self_dg1_dz(z: float, eps_up, eps_down) -> float:
    """d/dz of refl/(4 pi eps 2|z|), the image self-term of a charge at height z."""
    side, other = (eps_up, eps_down) if z > 0 else (eps_down, eps_up)
    refl = -1.0 if other is None else (side - other) / (side + other)
    return -refl * math.copysign(1.0, z) / (FOUR_PI * side * 2.0 * z * z)


def yukawa_grad(ra, rb, eps_b: float, k_s: float) -> np.ndarray:
    """Gradient in ra of exp(-k_s r)/(4 pi eps_b r)."""
    r = _vec(ra) - _vec(rb)
    dist = float(np.linalg.norm(r))
    return -r * math.exp(-k_s * dist) * (1.0 + k_s * dist) / (FOUR_PI * eps_b * dist ** 3)


def plate_hole_onaxis_g1(z: float, R: float) -> float:
    """On-axis scattering part for a grounded plate with an aperture of radius R."""
    az = abs(z)
    return (-1.0 / (16.0 * math.pi * az)
            + math.atan(R / (2.0 * az) - az / (2.0 * R)) / (8.0 * math.pi ** 2 * az))


def plate_hole_onaxis_dg1_dz(z: float, R: float) -> float:
    """Derivative of plate_hole_onaxis_g1 in z."""
    az = abs(z)
    w = R / (2.0 * az) - az / (2.0 * R)
    dw = -R / (2.0 * az * az) - 1.0 / (2.0 * R)
    d_abs = (1.0 / (16.0 * math.pi * az * az)
             - math.atan(w) / (8.0 * math.pi ** 2 * az * az)
             + dw / ((1.0 + w * w) * 8.0 * math.pi ** 2 * az))
    return math.copysign(d_abs, z)


def central_gradient(fn, p, h: float) -> np.ndarray:
    """Fourth-order central difference of a scalar function of a 3-vector."""
    p = _vec(p)
    grad = np.zeros(3)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        grad[axis] = (-fn(p + 2 * e) + 8 * fn(p + e) - 8 * fn(p - e) + fn(p - 2 * e)) / (12 * h)
    return grad


# ---------------------------------------------------------------------------
# Dilute bodies: first-order Born volume integrals
# ---------------------------------------------------------------------------

def born_half_space_g1(ra, rb, eta: float, alpha: float, eps_bg: float, eps0: float) -> float:
    """Isotropic body filling z < 0: g1 = -(eta alpha/eps0)/(8 pi eps_bg^2 |ra - rb*|).

    Follows from int_{z<0} d^3x grad(1/|ra - x|) . grad(1/|rb - x|) = 2 pi/|ra - rb*|,
    which at ra = rb is the volume identity int 1/s^4 = pi/h.
    """
    image = _vec(rb) * np.array([1.0, 1.0, -1.0])
    dist = float(np.linalg.norm(_vec(ra) - image))
    return -(eta * alpha / eps0) / (8.0 * math.pi * eps_bg ** 2 * dist)


def _graded_breaks(lo: float, hi: float, centers, scale: float, ratio: float):
    """Panel ends on [lo, hi], geometrically graded towards each center.

    Panels near a center are about `scale` wide and grow by `ratio`, so every
    panel stays narrower than its distance to the nearest singular point.
    """
    pts = {lo, hi}
    for c in centers:
        c = min(max(c, lo), hi)
        pts.add(c)
        step = scale
        off = step
        while off < hi - lo:
            for x in (c - off, c + off):
                if lo < x < hi:
                    pts.add(x)
            step *= ratio
            off += step
    return np.array(sorted(pts))


def _composite_rule(breaks: np.ndarray, order: int):
    x, w = leggauss(order)
    a, b = breaks[:-1, None], breaks[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
    weights = 0.5 * (b - a) * w
    return nodes.ravel(), weights.ravel()


def _box_chain_integral(box, ra, rb, alpha: np.ndarray, order: int, ratio: float) -> float:
    """int_box (ra - x).alpha.(rb - x) / (|ra - x|^3 |rb - x|^3) d^3x by a
    tensor Gauss-Legendre rule graded towards the field points."""
    ra, rb = _vec(ra), _vec(rb)
    lows, highs = np.array(box[0::2]), np.array(box[1::2])
    rules = []
    for axis in range(3):
        lo, hi = lows[axis], highs[axis]
        centers, scales = [], []
        for p in (ra, rb):
            gap = float(np.linalg.norm(np.maximum(0.0, np.maximum(lows - p, p - highs))))
            centers.append(p[axis])
            scales.append(gap)
        scale = max(min(scales), 1e-6 * (hi - lo))
        rules.append(_composite_rule(_graded_breaks(lo, hi, centers, scale, ratio), order))
    (xs, wx), (ys, wy), (zs, wz) = rules
    Y, Z = np.meshgrid(ys, zs, indexing="ij")
    WYZ = np.outer(wy, wz)
    total = 0.0
    for x, w in zip(xs, wx):  # one yz-plane at a time keeps memory small
        s1 = np.stack([np.full_like(Y, ra[0] - x), ra[1] - Y, ra[2] - Z], axis=-1)
        s2 = np.stack([np.full_like(Y, rb[0] - x), rb[1] - Y, rb[2] - Z], axis=-1)
        n1 = np.einsum("...i,...i->...", s1, s1)
        n2 = np.einsum("...i,...i->...", s2, s2)
        quad = np.einsum("...i,ij,...j->...", s1, alpha, s2)
        total += w * float(np.sum(WYZ * quad / (n1 * np.sqrt(n1) * n2 * np.sqrt(n2))))
    return total


def born_boxes_g1(ra, rb, regions, alpha: np.ndarray, eps_bg: float, eps0: float):
    """First Born g1 of boxes [(x0, x1, y0, y1, z0, z1, eta), ...].

    The error bound is the change between two graded rules, the finer with
    more nodes per panel and a gentler grading.
    """
    pref = -1.0 / (eps0 * (FOUR_PI * eps_bg) ** 2)
    coarse = fine = 0.0
    for *box, eta in regions:
        coarse += eta * _box_chain_integral(box, ra, rb, alpha, 8, 2.0)
        fine += eta * _box_chain_integral(box, ra, rb, alpha, 12, 1.5)
    return pref * fine, abs(pref) * abs(fine - coarse)
