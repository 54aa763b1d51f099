"""Green's function of a planar gap between two half-spaces.

Region 2 (the gap, host permittivity eps2) spans -d/2 < z < d/2. Every
function takes the gap as the ThreeLayerCavity that validated it and
derived its walls' reflection coefficients r1 and r3 once. `gap_many` is
the one dispatch for g, g1 at coincident points and their gradients, by
this rule:

* both walls conducting (r1 = r3 = 1, `_conducting`: each a perfect
  conductor, or of a permittivity whose coefficient rounds to 1):
  the K0 mode sum for rho >= MODAL_RHO_MIN d and the digamma form at
  coincident points, their gradients term by term and by the trigamma;
  they keep full relative accuracy where the quadrature reaches its
  absolute floor;
* every other g and g1: the image series (`_images`; Barrera, Guzman &
  Balaguer, Am. J. Phys. 46 (1978) 1172), a sweep's points as one batch,
  with an Euler-Maclaurin tail between conducting walls; where the series
  yields nothing, past its order cap (|r1 r3| above about 0.99), and where
  |r1 r3| = 1 without both walls conducting, the Bessel-integral
  quadrature of the reflected kernel, the free term 1/(4 pi eps2 r) in
  closed form (`cavity_g_general`, `cavity_scattering_g1`; Michalski &
  Mosig, IEEE TAP 45 (1997) 508);
* every other gradient: that quadrature (`cavity_grad_general`).

At coincident points a gradient is g1's, both points moving. Where both
walls reflect with r = -1, g and g1 diverge, a DomainError.

The conducting-wall functions import K0, K1, digamma and the trigamma from
scipy.special when they are called, and the quadrature loads J0 and J1 on
first use, so a dielectric gap's energies, and a conducting gap's pair
energies closer than MODAL_RHO_MIN d, load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .core import (
    DEFAULT_QUADRATURE,
    CoincidentPointsError,
    ConvergenceError,
    DomainError,
    OutOfRegionError,
    QuadratureSpec,
    ValueWithError,
    until_error,
)
from .quadrature import hankel_integral

if TYPE_CHECKING:
    from .core import ThreeLayerCavity

_FOUR_PI = 4.0 * math.pi
_EPS = float(np.finfo(float).eps)

# The mode sum between conducting walls is used from rho = MODAL_RHO_MIN d on,
# where each mode is at least e^{-pi/2} below the one before.
MODAL_RHO_MIN = 0.5
# Modes are kept up to this many e-folds of decay past the first one.
_MODE_SPAN = 40.0
# The image series is summed to at most this order; a pair whose series
# needs more (|r1 r3| above about 0.99) takes the Hankel route.
IMAGE_ORDER_MAX = 4096
# From r1 r3 = _POLE_Q on, with r1, r3 < 0, the pole of 1/(1 - r1 r3 e^{-2kd})
# lies below 1/64 of 1/(2d), where the gap's kernels decay most slowly (_g_integral).
_POLE_Q = math.exp(-1.0 / 64.0)
# Roundoff of the image series, relative to the sum of its terms' magnitudes.
_IMAGE_ROUNDOFF = 8.0 * _EPS
# The batched image series sums its points in blocks of at most this many
# points x orders, so that a sweep past the order cap builds no array much
# larger than one point's (the largest, 8 terms per point and order, is
# 512 kB); a block holds at least one point, of at most IMAGE_ORDER_MAX + 2
# orders. Blocks that fit the cache sum faster than larger ones.
_IMAGE_BLOCK = 1 << 13
# Between conducting walls the image series sums orders 0.._EM_ORDER - 1
# and takes the rest by Euler-Maclaurin with _EM_TERMS Bernoulli terms;
# _EM_BERNOULLI holds B_2k/(2k) for k = 1.._EM_TERMS + 1, the last for the
# first term left out.
_EM_ORDER = 16
_EM_TERMS = 4
_EM_BERNOULLI = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)
# the signs of the images at shifts (a_free + a1, a_free + a3, a_free, -a_free)
_EM_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])


def _conducting(cav: ThreeLayerCavity) -> bool:
    """r1 = r3 = 1: each wall a conductor, or of eps that rounds r to 1."""
    return cav.r1 == cav.r3 == 1.0


def _check_gap(z: float, d: float, name: str) -> None:
    if not (-0.5 * d < z < 0.5 * d):
        raise OutOfRegionError(f"{name} = {z!r} outside the gap (-d/2, d/2), d = {d!r}")


def _checked_gradient(values, errs, floor: float, tried: str):
    """`values`, the components of a gradient from quadrature, of abs_err `errs`.

    Raises ConvergenceError, saying what was `tried`, when their combined
    abs_err exceeds 1% of the gradient's magnitude plus `floor`, the absolute
    target each component's quadrature was given, in g's units (a gradient
    that vanishes by symmetry is known only to that target).
    """
    err = math.hypot(*errs)
    mag = math.hypot(*values)
    if err > 0.01 * mag + math.sqrt(len(values)) * floor:
        raise ConvergenceError(
            f"{tried}: gradient abs_err {err:.3e} exceeds 1% of its magnitude {mag:.3e} "
            f"plus the absolute target {floor:.3e} per component")
    return values


class _Pair(NamedTuple):
    """A gap pair's set-up, shared by the image series and every Hankel
    integral of the gap.

    With upper and lower the two heights, a_free = upper - lower is the
    direct path's height difference, and a1 = d + 2 lower and a3 = d - 2 upper
    add the reflection in the wall below and in the wall above.
    """

    pref: float  # 1/(4 pi eps2)
    r1: float
    r3: float
    rho: float
    d: float
    a_free: float
    a1: float
    a3: float
    r: float  # the separation, hypot(rho, a_free)

    def floor(self, spec: QuadratureSpec, power: int = 1) -> float:
        """The absolute target of g (power 1) or of a gradient (power 2), in
        the units every route of the gap sums in, 4 pi eps2 times those of g:
        the one place that reads spec's abs_tol.

        It is spec's abs_tol, divided by a length L for a gradient. Where
        spec left abs_tol at 0, since a purely relative target is unreachable
        in float64 once reflections suppress g exponentially, it is 1e-12 of
        the free-space value 1/(4 pi eps2 L) for g; for a gradient, 1e-12 of
        1/(4 pi L^2), without eps2: each of its Hankel components is targeted
        on its own, and one that nearly vanishes misses a floor with eps2
        (of 1,152 seeded gradients, eps2 from 1 to 1e8, 21 raised
        ConvergenceError with it, 2 without). L is the separation r, no
        less than d/20, or at coincident points the nearer image distance
        min(a1, a3). A gradient's is divided by L in stages (L^2 underflows
        first); where it leaves float64 itself, DomainError.
        """
        length = max(self.r, 0.05 * self.d) if self.r > 0.0 else min(self.a1, self.a3)
        if power == 1:
            return spec.abs_tol / self.pref if spec.abs_tol > 0.0 else 1e-12 / length
        floor = (spec.abs_tol if spec.abs_tol > 0.0 else 1e-12 / _FOUR_PI / length) / length
        floor /= self.pref
        if not math.isfinite(floor):
            raise DomainError(f"the absolute target of the gap's gradient, over the length "
                              f"L = {length!r} (d = {self.d!r}), leaves float64")
        return floor


def _pair(cav: ThreeLayerCavity, z: float, z0: float, rho: float) -> _Pair:
    """The set-up of the pair of cav at heights z and z0, rho apart."""
    _check_gap(z, cav.d, "z")
    _check_gap(z0, cav.d, "z0")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    upper, lower = max(z, z0), min(z, z0)
    return _Pair(1.0 / (_FOUR_PI * cav.eps2), cav.r1, cav.r3, rho, cav.d,
                 upper - lower, cav.d + 2.0 * lower, cav.d - 2.0 * upper,
                 math.hypot(rho, upper - lower))


def _refuse_divergent(cav: ThreeLayerCavity) -> None:
    """g and g1 diverge where both walls reflect with r = -1: a DomainError."""
    if cav.r1 == cav.r3 == -1.0:
        raise DomainError(
            f"g of the gap diverges: both walls, of eps1 = {cav.eps1!r} and "
            f"eps3 = {cav.eps3!r}, reflect with r = -1 in float64 against eps2 = {cav.eps2!r}")


def gap_many(cav: ThreeLayerCavity, points: Iterable[Tuple[float, float, float]],
             spec: QuadratureSpec = DEFAULT_QUADRATURE,
             gradient: bool = False) -> Iterator:
    """The gap's one choice of route, the module docstring's rule: at each
    (z, z0, rho) of `points`, g, or g1 at coincident points (rho = 0,
    z = z0), each a ValueWithError; or with gradient=True (dg/drho, dg/dz),
    z the field point's height, at coincident points (0, dg1/dz0) with both
    points moving, two floats. The values of points off the closed forms
    are summed as one batch (_images), and take the Hankel quadrature where
    it yields None or cannot converge (|r1 r3| = 1, walls not both
    conducting); each point's error is raised when the iteration reaches it."""
    conducting, points = _conducting(cav), list(points)
    closed = [conducting and (rho >= MODAL_RHO_MIN * cav.d or (rho == 0.0 and z == z0))
              for z, z0, rho in points]
    converges = conducting or abs(cav.r1 * cav.r3) < 1.0
    series = _images(cav, [p for p, c in zip(points, closed) if converges and not c], spec)
    for (z, z0, rho), c in zip(points, closed):
        if c and rho == 0.0:
            yield (0.0, conducting_gap_dg1(cav, z0)) if gradient else conducting_gap_g1(cav, z0)
        elif c:
            yield (conducting_gap_grad if gradient else conducting_gap_g)(cav, z, z0, rho)
        elif gradient:
            yield cavity_grad_general(cav, z, z0, rho, spec)
        elif converges and (value := next(series)) is not None:
            yield value
        elif rho == 0.0 and z == z0:
            yield cavity_scattering_g1(cav, z0, spec)
        else:
            yield cavity_g_general(cav, z, z0, rho, spec)


def _gap_integral(kernel, p: _Pair, spec: QuadratureSpec, floor: float, order: int = 0,
                  known: float = 0.0, k_scale: Optional[float] = None) -> ValueWithError:
    """1/(4 pi eps2) times the Hankel integral of order `order` of
    kernel(k, a_free, a1, a3, d, r1, r3), a reflected kernel of the pair p,
    to spec's rel_tol and the absolute target `floor` (_Pair.floor); plus
    known/(4 pi eps2), a part taken out of the kernel in closed form, to
    whose sum rel_tol applies. The panels start from the wavenumber
    k_scale, by default that on whose scale the kernel decays: 1 over the
    shorter reflected path, a_free + a1 or a_free + a3, or over 2d. The
    integral is 0 where neither wall reflects.
    """
    if p.r1 == 0.0 and p.r3 == 0.0:
        return ValueWithError(p.pref * known)
    if k_scale is None:
        scales = [2.0 * p.d]
        if p.r1 != 0.0:
            scales.append(p.a_free + p.a1)
        if p.r3 != 0.0:
            scales.append(p.a_free + p.a3)
        k_scale = 1.0 / max(min(scales), 1e-300)

    def f(k: np.ndarray) -> np.ndarray:
        return kernel(k, p.a_free, p.a1, p.a3, p.d, p.r1, p.r3)

    got = hankel_integral(f, p.rho, replace(spec, abs_tol=floor), k_scale=k_scale,
                          order=order, subtracted=known)
    return ValueWithError(p.pref * (known + got.value), p.pref * got.abs_err)


def _g_integral(p: _Pair, spec: QuadratureSpec, known: float = 0.0) -> ValueWithError:
    """g's reflected kernel by _gap_integral, plus known/(4 pi eps2): g1, or g
    with known = 1/r. From q = r1 r3 = _POLE_Q on, with r1, r3 < 0, the
    panels start from the kernel's pole, -ln(q)/(2d) below k = 0, and
    abs_err adds half an ulp of q times 4/(d (1 - q) 4 pi eps2), a bound on
    dg/dq (README, numerical notes)."""
    floor = p.floor(spec)
    q = p.r1 * p.r3
    if not (p.r1 < 0.0 and q > _POLE_Q):
        return _gap_integral(kernels.cavity_integrand, p, spec, floor, known=known)
    got = _gap_integral(kernels.cavity_integrand, p, spec, floor, known=known,
                        k_scale=-math.log(q) / (2.0 * p.d))
    return ValueWithError(got.value, got.abs_err + p.pref * 2.0 * _EPS / (p.d * (1.0 - q)))


def cavity_g_general(cav: ThreeLayerCavity, z: float, z0: float, rho: float,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """Gap Green's function between heights z0 (source) and z, in-plane offset
    rho: the free term 1/(4 pi eps2 r) in closed form plus the Hankel
    integral of the reflected kernel, to rel_tol of their sum (_g_integral)."""
    p = _pair(cav, z, z0, rho)
    _refuse_divergent(cav)
    if p.r == 0.0:
        raise CoincidentPointsError("field point coincides with source")
    return _g_integral(p, spec, known=1.0 / p.r)


def cavity_grad_general(cav: ThreeLayerCavity, z: float, z0: float, rho: float,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Tuple[float, float]:
    """(dg/drho, dg/dz) of cavity_g_general, z the field point's height; at
    coincident points (rho = 0, z = z0) (0, dg1/dz0), the reflected part's
    with both points moving: twice its dg/dz, since by reciprocity each
    point moves it alike.

    The free-space part 1/(4 pi eps2 r) is differentiated in closed form. The
    reflected kernel R(k) = exp(-k*a_free)(N/D - 1) is differentiated under
    the integral: dg/drho takes -int R k J1(k rho) dk, and dg/dz the
    z-derivative of R's exponentials against J0; the two integrals share
    the pair's set-up; at coincident points the one integral is taken to
    half the floor. Raises DomainError when the free-space part overflows
    float64, and ConvergenceError past _checked_gradient's bound.
    """
    p = _pair(cav, z, z0, rho)
    r = p.r
    floor = p.floor(spec, 2)
    sign = 1.0 if z >= z0 else -1.0  # the field point is the upper one, or the lower

    def reflected_dz(k, *args):
        return kernels.cavity_reflected_dz(k, *args, sign)

    tried = (f"Hankel gradient of the gap kernel at rho = {rho!r}, "
             f"z = {z!r}, z0 = {z0!r}, d = {p.d!r}, rel_tol = {spec.rel_tol!r}")
    if r == 0.0:
        d_z = _gap_integral(reflected_dz, p, spec, 0.5 * floor)
        _checked_gradient((d_z.value,), (d_z.abs_err,), 0.5 * p.pref * floor, tried)
        return 0.0, 2.0 * d_z.value
    # divided by r in stages: r * r * r underflows to 0 below r ~ 1e-108
    free_rho = p.pref * (rho / r) / r / r
    free_z = p.pref * ((z - z0) / r) / r / r
    if not (math.isfinite(free_rho) and math.isfinite(free_z)):
        raise DomainError(f"cavity_grad_general: the free-space gradient at a separation "
                          f"of {r!r} m overflows float64")

    def reflected_k(k, a_free, a1, a3, d, r1, r3):
        return k * np.exp(-k * a_free) * kernels.cavity_scatter_integrand(k, a1, a3, d, r1, r3)

    d_rho = _gap_integral(reflected_k, p, spec, floor, order=1)
    d_z = _gap_integral(reflected_dz, p, spec, floor)
    return _checked_gradient((-free_rho - d_rho.value, -free_z + d_z.value),
                             (d_rho.abs_err, d_z.abs_err), p.pref * floor, tried)


def _free_term(p: _Pair) -> Tuple[int, float]:
    """The nearer wall w (0 below, 1 above) of a pair at r > 0, and order 0's
    free term 1/r plus w's image -r_w/D(a_free + a), a = min(a1, a3), as the
    two terms of one sign (1 - r_w)/D + a (2 a_free + a)/(r D (r + D)), the
    form of HalfSpace's image, so that near a conducting wall the image
    cancels no digits of 1/r."""
    w, a, r_w = (0, p.a1, p.r1) if p.a1 <= p.a3 else (1, p.a3, p.r3)
    far = math.hypot(p.rho, p.a_free + a)
    return w, (1.0 - r_w) / far + (a / p.r) * ((2.0 * p.a_free + a) / far) / (p.r + far)


def _image_orders(pairs, n: int):
    """Orders j = 0..n of the image series of each pair of `pairs`, gap
    pairs between the same walls, times 4 pi eps2: each order's sum and the
    sum of its terms' magnitudes, as one array of 2 x pairs x (n + 1) orders.

    With q = r1 r3 and D(s) = sqrt(rho^2 + s^2), order j holds the images
    -r1 q^j/D(a_free + a1 + 2jd) in the wall below and
    -r3 q^j/D(a_free + a3 + 2jd) in the wall above, and from j = 1 on the
    source's two images q^j/D(2jd +- a_free). Order 0's source image is the
    free term 1/r, taken with the nearer wall's image (_free_term), or
    nothing at coincident points (r = 0), whose g1 has no free term. Every
    distance is a sum of positive lengths, so no term loses accuracy near a
    wall.
    """
    cols = np.array([(p.rho, p.a_free + p.a1, p.a_free + p.a3, p.a_free, -p.a_free)
                     for p in pairs])
    r1, r3, d = pairs[0].r1, pairs[0].r3, pairs[0].d
    j = np.arange(n + 1.0)
    # the image in the wall below, in the wall above, and the source's two
    # images: their weights q^j (-r1, -r3, 1, 1), 4 x orders, and their
    # distances D, pairs x 4 x orders
    weights = np.array([-r1, -r3, 1.0, 1.0])[:, None] * (r1 * r3) ** j
    dist = np.hypot(cols[:, 0, None, None], (2.0 * d) * j + cols[:, 1:, None])
    dist[:, 2:, 0] = math.inf  # order 0's source images give way to the free term
    terms = np.empty((2,) + dist.shape)
    np.divide(weights, dist, out=terms[0])
    np.abs(terms[0], out=terms[1])
    for i, p in enumerate(pairs):
        if p.r > 0.0:
            w, value = _free_term(p)
            terms[:, i, w, 0] = value  # in place of the wall's image; both of one sign
    return np.add.reduce(terms, axis=2)


def _image_order_bound(p: _Pair, q: float, target: float) -> int:
    """An order n after which the image series' tail bound is below
    `target` (times 4 pi eps2), for q = |r1 r3| < 1.

    Order j >= 1 is at most q^j (2 + |r1| + |r3|)/D((2j - 1) d), and so at
    most q^j (2 + |r1| + |r3|)/D(d); the tail after order n, order n + 1
    over 1 - q, is below the target once q^(n+1) is below
    target (1 - q) D(d)/(2 + |r1| + |r3|).
    """
    if q == 0.0:
        return 0
    ratio = target * (1.0 - q) * math.hypot(p.rho, p.d) / (2.0 + abs(p.r1) + abs(p.r3))
    if not ratio > 0.0:
        return IMAGE_ORDER_MAX + 1
    return max(0, math.ceil(math.log(ratio) / math.log(q)) - 1) if ratio < 1.0 else 0


def _images(cav: ThreeLayerCavity, points: Iterable[Tuple[float, float, float]],
            spec: QuadratureSpec) -> Iterator[Optional[ValueWithError]]:
    """Gap Green's function of cav by its image series at each (z, z0, rho)
    of `points`, in order, as one batch, to spec; at coincident points
    (rho = 0, z = z0) its scattering part g1, the same series without the
    free term. The walls have |r1 r3| < 1, or both conduct.

    With q = r1 r3 and the lengths of _Pair (Barrera, Guzman & Balaguer,
    Am. J. Phys. 46 (1978) 1172; see _image_orders for its orders),

        4 pi eps2 g = 1/r + sum_{j>=1} q^j (1/D(2jd + a_free) + 1/D(2jd - a_free))
                      - sum_{j>=0} q^j (r1/D(a_free + a1 + 2jd) + r3/D(a_free + a3 + 2jd)).

    The sum stops at the first order whose geometric tail bound, the
    magnitude of the next order over 1 - |q|, meets the target
    max(floor, rel_tol |g|), floor as in _Pair.floor. abs_err is that bound
    plus the roundoff, _IMAGE_ROUNDOFF times the sum of the terms'
    magnitudes; where the roundoff keeps it above the target,
    ConvergenceError, and where the sum overflows float64, DomainError.
    Between conducting walls (r1 = r3 = 1) every point sums _EM_ORDER
    orders and its tail (_conducting_block). A point whose series needs
    more than IMAGE_ORDER_MAX orders yields None.

    Yields each point's value, and raises a point's error when the
    iteration reaches it, after every point before it was yielded. The
    points are summed in blocks of consecutive points, each one array of
    points x orders of at most _IMAGE_BLOCK values, summed when its first
    point is reached. Each point keeps its own order bound, stop rule and
    abs_err, so that its value is the one it has alone.
    """
    points = list(points)
    pairs, refused = until_error(_pair(cav, z, z0, rho) for z, z0, rho in points)
    conducting, q = _conducting(cav), abs(cav.r1 * cav.r3)
    floors = [p.floor(spec) for p in pairs]
    if conducting:
        orders = [_EM_ORDER - 1] * len(pairs)
    else:
        # orders enough for a tail of half the floor, which leaves the
        # other half to the roundoff
        orders = [min(_image_order_bound(p, q, 0.5 * floor), IMAGE_ORDER_MAX)
                  for p, floor in zip(pairs, floors)]
    described = ("Euler-Maclaurin tail {:.3e} from order {}" if conducting
                 else "tail {:.3e} after order {}")
    # a block's arrays hold up to the largest order bound + 1, so many orders
    step = max(1, _IMAGE_BLOCK // (max(orders, default=0) + 2))
    for i in range(0, len(pairs), step):
        block = slice(i, i + step)
        if conducting:
            stats, stops = _conducting_block(pairs[block], floors[block], spec)
        else:
            stats, stops = _image_block(pairs[block], floors[block], orders[block], q, spec)
        for p, (z, z0, rho), (value, bound, tail, roundoff, target), n in zip(
                pairs[block], points[block], zip(*stats.tolist()), stops):
            if not math.isfinite(bound):
                raise DomainError(f"the image series of the gap at rho = {rho!r}, "
                                  f"z = {z!r}, z0 = {z0!r}, d = {cav.d!r} overflows float64")
            if bound <= target:
                yield ValueWithError(p.pref * value, p.pref * bound)
            elif n == IMAGE_ORDER_MAX:
                yield None
            else:
                # short of the cap the last tail is below half the floor,
                # so the roundoff exceeds half the target
                raise ConvergenceError(
                    f"image series of the gap at rho = {rho!r}, z = {z!r}, z0 = {z0!r}, "
                    f"d = {cav.d!r}, r1 r3 = {p.r1 * p.r3!r}: its bound {p.pref * bound:.3e} "
                    f"({described.format(p.pref * tail, n)}, roundoff "
                    f"{p.pref * roundoff:.3e}) exceeds the target {p.pref * target:.3e} "
                    f"(rel_tol = {spec.rel_tol!r})")
    if refused is not None:
        raise refused


def _image_block(pairs, floors, orders, q: float, spec: QuadratureSpec):
    """The image series of consecutive points of _images, one array of
    points x orders, each point stopped by its own order bound.

    Returns the rows value, bound, tail, roundoff and target, one column
    per point, all in units of 4 pi eps2 g: the partial sum, its bound, the
    tail and the roundoff that make up the bound, and the target, at the
    first order n that meets the target, or else at the point's last order;
    and each point's n.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected later
        sums = _image_orders(pairs, max(orders) + 1)
        # for each n, the partial sum and the bound after orders 0..n, and its target
        partial, magnitude = sums.cumsum(axis=2)
        tail = sums[1, :, 1:] / (1.0 - q)
        roundoff = _IMAGE_ROUNDOFF * magnitude[:, :-1]
        target = np.maximum(np.array(floors)[:, None], spec.rel_tol * np.abs(partial[:, :-1]))
        bound = tail + roundoff
        met = bound <= target
    rows = np.arange(len(pairs))
    # the first order that meets the target, or else the point's last
    met[rows, orders] = True
    n = met.argmax(axis=1)
    return np.array([a[rows, n] for a in (partial, bound, tail, roundoff, target)]), n.tolist()


def _conducting_block(pairs, floors, spec: QuadratureSpec):
    """The image series of consecutive points of _images between
    conducting walls (r1 = r3 = 1), whose orders fall off only as 1/j^2:
    orders 0..M - 1 summed as _image_orders gives them, M = _EM_ORDER, and
    the rest by the Euler-Maclaurin formula in closed form.

    From order M on, order j is F(j) = sum_i c_i/D(2jd + s_i), with the
    shifts s = (a_free + a1, a_free + a3, a_free, -a_free) of _Pair and
    c = (-1, -1, 1, 1); with K = _EM_TERMS and B_2k the Bernoulli numbers,

        sum_{j>=M} F(j) = int_M^inf F(x) dx + F(M)/2
                          - sum_{k=1..K} B_2k/(2k)! F^(2k-1)(M) + R_K.

    With X_i = 2Md + s_i and R_i = D(X_i), the integral is
    -(1/2d) sum_i c_i ln(X_i + R_i), since sum_i c_i = 0 cancels ln rho and
    the upper end; so it holds at rho = 0 and at subnormal rho. The
    derivatives, from the generating function of the Legendre polynomials
    P_n, are F^(n)(M) = (2d)^n (-1)^n n! sum_i c_i P_n(X_i/R_i)/R_i^(n+1), so
    the k-th Bernoulli term, -B_2k/(2k)! F^(2k-1)(M), is
    B_2k/(2k) (2d)^(2k-1) sum_i c_i P_(2k-1)(X_i/R_i)/R_i^(2k), with P_n from
    the three-term recurrence. The tail is evaluated in units of d, so that
    no length overflows.

    abs_err is the bound

        2 |first omitted Bernoulli term (k = K + 1)|
        + _IMAGE_ROUNDOFF (sum of the magnitudes of every term),

    the terms being the direct orders' (as in _image_orders), the four
    parts of F(M)/2 and of each Bernoulli term, and 1/(2d) for each of the
    integral's four logarithms: each is taken of (X_i + R_i)/(4Md), a
    number near 1, so it is within a few eps of its value absolutely.
    Returns the rows value, bound, the omitted term's part of it, roundoff
    and the target max(floor, rel_tol |g|), one column per point, all in
    units of 4 pi eps2 g, and M for each point, as _image_block does.
    """
    m = _EM_ORDER
    d = pairs[0].d
    shifts = np.array([(p.a_free + p.a1, p.a_free + p.a3, p.a_free, -p.a_free)
                       for p in pairs]) / d
    rho = np.array([p.rho for p in pairs])[:, None] / d
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        direct, magnitude = _image_orders(pairs, m - 1).sum(axis=2)
        x = 2.0 * m + shifts
        r = np.hypot(rho, x)
        t = x / r
        inv = 1.0 / r
        w = 2.0 / r
        # in units of 1/d: the integral, F(M)/2, and the Bernoulli terms
        tail = 0.5 * (inv @ _EM_SIGNS) - 0.5 * (np.log((x + r) / (4.0 * m)) @ _EM_SIGNS)
        size = 2.0 + 0.5 * inv.sum(axis=1)
        p_prev, p_n, w_n = np.ones_like(t), t, w  # P_0, P_1 and w^1 = (2d/R)^1
        for k, coeff in enumerate(_EM_BERNOULLI, 1):  # n = 2k - 1
            part = coeff * w_n * p_n * inv
            if k <= _EM_TERMS:
                tail += part @ _EM_SIGNS
                size += np.abs(part).sum(axis=1)
            else:
                omitted = part @ _EM_SIGNS
            n = 2 * k - 1
            p_prev, p_n = p_n, ((2 * n + 1) * t * p_n - n * p_prev) / (n + 1)
            p_prev, p_n = p_n, ((2 * n + 3) * t * p_n - (n + 1) * p_prev) / (n + 2)
            w_n = w_n * (w * w)
        value = direct + tail / d
        tail_err = 2.0 * np.abs(omitted) / d
        roundoff = _IMAGE_ROUNDOFF * (magnitude + size / d)
        bound = tail_err + roundoff
        target = np.maximum(np.array(floors), spec.rel_tol * np.abs(value))
    return np.stack((value, bound, tail_err, roundoff, target)), [m] * len(pairs)


def conducting_gap_g(cav: ThreeLayerCavity, z: float, z0: float, rho: float) -> ValueWithError:
    """Green's function between the grounded walls of cav at z = -d/2 and
    d/2, from its modes.

    g = sum_n sin(n pi u/d) sin(n pi u0/d) K0(n pi rho/d) / (pi d eps2), with
    u = z + d/2 and u0 = z0 + d/2, for rho > 0. abs_err bounds the dropped
    modes and the roundoff of the kept ones.
    """
    from scipy.special import k0
    n, a, pref, (s, _, m), (s0, _, m0) = _modes(cav, z, z0, rho)
    kv = k0(n * a)
    err = _mode_tail(n, a, k0) + _mode_roundoff(n, a, cav.d, s, m, s0, m0, kv)
    return ValueWithError(pref * float(np.sum(s * s0 * kv)), pref * err)


def conducting_gap_grad(cav: ThreeLayerCavity, z: float, z0: float, rho: float):
    """(dg/drho, dg/dz) of conducting_gap_g, z the field point's height: the
    modes differentiated term by term, K0' = -K1 in rho and sin' = cos in z."""
    from scipy.special import k0, k1
    n, a, pref, (s, c, _), (s0, _, _) = _modes(cav, z, z0, rho)
    kn = n * (math.pi / cav.d)
    return (-pref * float(np.sum(s * s0 * (kn * k1(n * a)))),
            pref * float(np.sum(c * s0 * (kn * k0(n * a)))))


def _modes(cav: ThreeLayerCavity, z: float, z0: float, rho: float):
    """The modes n = 1..N of the sum, a = pi rho/d, the prefactor
    1/(pi d eps2), and _wall_sines of z and of z0.

    N a reaches _MODE_SPAN past a, plus ln(d/2m) + ln(d/2m0) for the wall
    distances m and m0: the first mode's sines are at least 2m/d and 2m0/d,
    so the dropped modes stay e^{-_MODE_SPAN} below it however near a wall
    the points are.
    """
    if not (rho > 0.0):
        raise DomainError(f"rho must be > 0 for the mode sum, got {rho!r}")
    d = cav.d
    m, m0 = min(_wall_distances(z, d)), min(_wall_distances(z0, d))
    span = _MODE_SPAN + 2.0 * math.log(0.5 * d) - math.log(m) - math.log(m0)
    a = math.pi * rho / d
    n = np.arange(1.0, math.ceil(span / a) + 2.0)
    return n, a, 1.0 / (math.pi * d * cav.eps2), _wall_sines(n, z, d), _wall_sines(n, z0, d)


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
    _check_gap(z, d, "z")
    return 0.5 * d + z, 0.5 * d - z


def _mode_tail(n: np.ndarray, a: float, bessel) -> float:
    """Bound on the modes past N of a sum whose n-th term is at most K(n a).

    K(x) e^x decreases for K0 and K1, so they sum to at most
    K((N+1) a) sum_{m>=0} e^{-m a}.
    """
    q = math.exp(-a)
    return float(bessel((n[-1] + 1.0) * a)) * (1.0 / (1.0 - q))


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


def conducting_gap_g1(cav: ThreeLayerCavity, z0: float) -> ValueWithError:
    """Scattering part at coincident points between the grounded walls of
    cav, in closed form.

    g1 = (gamma + (psi(x) + psi(y))/2) / (4 pi eps2 d), with x = (d/2 + z0)/d
    and y = (d/2 - z0)/d = 1 - x; the midplane value is -ln 2/(2 pi eps2 d).
    It is summed in Python floats, whose overflow is an inf and no warning,
    and is then a DomainError.
    """
    from scipy.special import digamma
    d = cav.d
    u, w = _wall_distances(z0, d)
    g1 = ((np.euler_gamma + 0.5 * (float(digamma(u / d)) + float(digamma(w / d))))
          / (_FOUR_PI * cav.eps2 * d))
    if not math.isfinite(g1):
        raise DomainError(f"the digamma self-term of the conducting gap at z0 = {z0!r}, "
                          f"d = {d!r} overflows float64")
    return ValueWithError(g1)


def conducting_gap_dg1(cav: ThreeLayerCavity, z0: float) -> float:
    """d/dz0 of conducting_gap_g1, both points moving:
    (psi'(x) - psi'(y)) / (8 pi eps2 d^2), with the trigamma psi'; divided
    by d in stages, in Python floats, where d^2 underflows."""
    from scipy.special import polygamma
    d = cav.d
    u, w = _wall_distances(z0, d)
    diff = float(polygamma(1, u / d)) - float(polygamma(1, w / d))
    scale = 2.0 * _FOUR_PI * cav.eps2 * d
    return diff / (scale * d) if scale * d else diff / scale / d


def cavity_scattering_g1(cav: ThreeLayerCavity, z0: float,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """Reflection-only part at coincident points (rho = 0, z = z0): the
    integral of cavity_g_general's reflected kernel at a_free = 0."""
    p = _pair(cav, z0, z0, 0.0)
    _refuse_divergent(cav)
    return _g_integral(p, spec)
