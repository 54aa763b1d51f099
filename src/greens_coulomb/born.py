"""First-order Born treatment of a dilute polarizable body.

The body is a piecewise-constant number-density field (axis-aligned boxes,
optionally the half-space z < 0) of molecules with a shared static
polarizability tensor. The charge-body energy is the self-energy of the
scattering correction to the Green's function, `born_scattering_g1(r, r)`,
the integral of s.alpha.s / s^6 over the body; `charge_body_energy`, the
pairwise charge-molecule potential integrated over the body, is that
self-energy.

One function, `_scattering`, picks each part's route, for values and
gradients alike:

* the half-space takes its closed form, for any tensor
  (`_half_space_integral`, `_half_space_grad`);
* a box at coincident field points takes its closed form, the face-and-edge
  reduction of polyhedral potential fields (`_box_self_integral`,
  `_box_self_grad`), wherever that form's roundoff bound meets rel_tol of
  the value's length, and the octree elsewhere (far from the box, where the
  form's terms cancel);
* every other box takes the octree, on the scalar or, under the integral
  sign, the vector integrand.

The octree is 7-point Gauss-Legendre per axis with dyadic refinement,
evaluated one refinement level at a time: a level is a set of corner
arrays, all its cells are split at once, and the integrand sees whole
blocks of cells per call. Accepted cells are summed in the FIFO order of a
cell-by-cell loop, so results are bit-reproducible; a cell still outside its
budget at the depth cap _MAX_DEPTH, or past _MAX_CELLS, is a ConvergenceError.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import interactions, kernels
from .analytic import free_space_g, free_space_grad
from .core import (
    DEFAULT_QUADRATURE,
    EPSILON_0,
    MIN_REL_TOL,
    ConvergenceError,
    DomainError,
    Geometry,
    Gradient,
    PointInsideBodyError,
    Point3,
    QuadratureSpec,
    ValueWithError,
    finite_eps,
)

_GL_ORDER = 7
_GL_X, _GL_W = leggauss(_GL_ORDER)
# Parents per integrand call (8 cells, 2,744 nodes each). With 2 or 4 parents
# the dilute_bodies benchmark's light rate fell by a third (1,610 to about
# 1,040 per second), and with 4 an octree of 2,000-8,000 cells ran 1.6x slower.
_CHUNK_PARENTS = 1
_CHUNK_CELLS = 8 * _CHUNK_PARENTS
# Refinement levels and cells (about 3 s) of one octree; a cell still above
# its budget at this depth, or a level past the cells, is a ConvergenceError.
# The deepest octree of the tests takes 17,609 cells; at rel_tol 1e-15 one
# asked for millions before the depth cap.
_MAX_DEPTH = 12
_MAX_CELLS = 1 << 18
# The largest box coordinate a Box admits: beyond it |r - x|^3 |r' - x|^3
# overflows float64 in metres for points at the same scale. The octree and
# the closed forms divide their coordinates by a power of two first.
MAX_BOX_COORD = 0.5 * sys.float_info.max ** (1.0 / 6.0)
# Roundoff of a closed form relative to its summed terms, and of an accepted
# octree cell relative to its value.
_ROUNDOFF = 8.0 * sys.float_info.epsilon
# Octant k of a box takes the upper half along x, y, z where bits 2, 1, 0 of k are set.
_OCTANT_UPPER = np.array([[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)], dtype=bool)


@dataclass(frozen=True)
class PolarizabilityTensor:
    """3x3 symmetric positive-semidefinite static polarizability, C m^2/V."""

    xx: float
    yy: float
    zz: float
    xy: float = 0.0
    xz: float = 0.0
    yz: float = 0.0

    @classmethod
    def isotropic(cls, alpha: float) -> "PolarizabilityTensor":
        return cls(alpha, alpha, alpha)

    @classmethod
    def from_matrix(cls, m) -> "PolarizabilityTensor":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"polarizability must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError(f"polarizability must be finite, got {m.tolist()}")
        scale = float(np.max(np.abs(m)))
        if scale > 0.0 and float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise DomainError("polarizability must be symmetric to 1e-12 relative")
        sym = 0.5 * (m + m.T)
        return cls(sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2])

    def __post_init__(self):
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise DomainError(f"polarizability must be finite, got {m.tolist()}")
        scale = float(np.max(np.abs(m)))
        if scale > 0.0:
            evals = np.linalg.eigvalsh(m)
            if evals[0] < -1e-12 * scale:
                raise DomainError(
                    f"polarizability must be positive semi-definite, eigenvalues {evals}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.xx, self.xy, self.xz],
                         [self.xy, self.yy, self.yz],
                         [self.xz, self.yz, self.zz]], dtype=float)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [x0,x1] x [y0,y1] x [z0,z1], meters, each coordinate
    within MAX_BOX_COORD of 0."""

    x0: float
    x1: float
    y0: float
    y1: float
    z0: float
    z1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0 and self.z1 > self.z0):
            raise DomainError(f"degenerate box {self!r}")
        if max(map(abs, (self.x0, self.x1, self.y0, self.y1, self.z0, self.z1))) > MAX_BOX_COORD:
            raise DomainError(f"box {self!r}: coordinates beyond {MAX_BOX_COORD:.3g} m "
                              f"overflow the Born integrand")

    @property
    def volume(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0) * (self.z1 - self.z0)

    def contains(self, p: Point3) -> bool:
        return (self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1
                and self.z0 <= p.z <= self.z1)


@dataclass(frozen=True)
class DensityRegion:
    """Constant number density eta (1/m^3) on a box."""

    box: Box
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise DomainError(f"eta must be >= 0, got {self.eta!r}")


@dataclass(frozen=True)
class DiluteBody(Geometry):
    """Piecewise-constant density body with shared polarizability.

    regions: explicit boxes; half_space_eta: additionally (or instead) fill
    the half-space z < 0 at this uniform density. Charges sit in the
    background medium: host_eps raises PointInsideBodyError on or inside a
    box (whatever its density), and at z <= 0 when half_space_eta is given
    (0 included).
    """

    alpha: PolarizabilityTensor
    regions: Tuple[DensityRegion, ...] = field(default_factory=tuple)
    half_space_eta: Optional[float] = None
    background_eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "background_eps",
                           finite_eps(self.background_eps, "background_eps"))
        if self.half_space_eta is not None and not (
                math.isfinite(self.half_space_eta) and self.half_space_eta >= 0.0):
            raise DomainError(f"half_space_eta must be >= 0, got {self.half_space_eta!r}")
        if not self.regions and self.half_space_eta is None:
            raise DomainError("DiluteBody needs at least one region or half_space_eta")

    def host_eps(self, p: Point3) -> float:
        if ((self.half_space_eta is not None and p.z <= 0.0)
                or any(reg.box.contains(p) for reg in self.regions)):
            raise PointInsideBodyError(f"point {p} lies on or inside the body volume")
        return self.background_eps

    def _g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        g0 = free_space_g(r, r_src, self.background_eps)
        g1 = born_scattering_g1(r, r_src, self, spec)
        return ValueWithError(g0.value + g1.value, g1.abs_err)

    def _beyond_float64(self, r: Point3) -> bool:
        """True where the way from r to the nearest point of the body and back
        overflows float64: the pair rule of `Geometry` for the self-term, whose
        value then underflows to 0 (as the half-space closed form finds)."""
        gaps = [math.hypot(max(b.x0 - r.x, 0.0, r.x - b.x1), max(b.y0 - r.y, 0.0, r.y - b.y1),
                           max(b.z0 - r.z, 0.0, r.z - b.z1))
                for b in (reg.box for reg in self.regions if reg.eta != 0.0)]
        if self.half_space_eta:
            gaps.append(r.z)
        return 2.0 * min(gaps, default=0.0) == math.inf

    def _g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        if self._beyond_float64(r):
            return ValueWithError(0.0)
        return born_scattering_g1(r, r, self, spec)

    def _grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        direct = free_space_grad(r, r_src, self.background_eps)
        scattered = _scattering(self, r, r_src, spec, gradient=True)
        return tuple(d + s for d, s in zip(direct, scattered))

    def _grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        if self._beyond_float64(r):
            raise self._too_far()
        return _scattering(self, r, r, spec, gradient=True)


# ---------------------------------------------------------------------------
# Deterministic adaptive volume quadrature
# ---------------------------------------------------------------------------

def _cell_nodes(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss nodes (n*343, 3) and weights (n, 343) of n boxes [lo, hi].

    Nodes run x-major, z-minor within each box, as a meshgrid with "ij"
    indexing would order them. The nodes are stored one row per component
    and returned transposed, so the kernels read `points.T` as three
    contiguous rows.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, :, None] + half[:, :, None] * _GL_X   # (n, 3, 7)
    w = half[:, :, None] * _GL_W
    pts = np.empty((3, lo.shape[0], _GL_ORDER, _GL_ORDER, _GL_ORDER))
    pts[0] = x[:, 0, :, None, None]
    pts[1] = x[:, 1, None, :, None]
    pts[2] = x[:, 2, None, None, :]
    W = w[:, 0, :, None, None] * w[:, 1, None, :, None] * w[:, 2, None, None, :]
    return pts.reshape(3, -1).T, W.reshape(lo.shape[0], -1)


def _cell_integrals(integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss estimate of each box, (n,) or (n, 3), _CHUNK_CELLS boxes per integrand call."""
    return np.concatenate([integrand(*_cell_nodes(lo[i:i + _CHUNK_CELLS], hi[i:i + _CHUNK_CELLS]))
                           for i in range(0, lo.shape[0], _CHUNK_CELLS)])


def _children(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 8 octants of each box, parent-major, x-major and z-minor."""
    mid = 0.5 * (lo + hi)
    kid_lo = np.where(_OCTANT_UPPER, mid[:, None, :], lo[:, None, :])
    kid_hi = np.where(_OCTANT_UPPER, hi[:, None, :], mid[:, None, :])
    return kid_lo.reshape(-1, 3), kid_hi.reshape(-1, 3)


class _NotFinite(ConvergenceError):
    """The octree met a cell whose integral is not finite."""


def _adaptive_boxes(integrand, boxes, rel_tol: float, scale_hint: float):
    """Octree-refined Gauss quadrature, one refinement level at a time.

    A level is held as arrays of lower corners, upper corners and coarse
    estimates; every entry shares the level's depth. All parents are split
    at once and their children integrated in blocks of _CHUNK_PARENTS
    parents. `integrand(points, weights)` takes points (cells*343, 3) and
    weights (cells, 343) and returns the per-cell sums of a scalar (cells,)
    or a vector (cells, 3); the total is a float or a tuple. A parent is
    accepted when its children's sum moves its coarse estimate by no more
    than the local budget rel_tol * max(|fine|, scale_hint), or by no more
    than MIN_REL_TOL |fine| or the least normal float64, |.| being the
    max-norm; accepted parents are added to the total in queue (FIFO) order,
    so results are bit-reproducible. The error sums each accepted parent's
    |fine - coarse| and its roundoff _ROUNDOFF |fine|. A parent still
    failing at depth _MAX_DEPTH, or a level past _MAX_CELLS, raises
    ConvergenceError.
    """
    lo = np.array([(b.x0, b.y0, b.z0) for b in boxes], dtype=float)
    hi = np.array([(b.x1, b.y1, b.z1) for b in boxes], dtype=float)
    coarse = _cell_integrals(integrand, lo, hi)
    total = [0.0] * (coarse.size // lo.shape[0])
    err = 0.0
    depth = 0
    cells = lo.shape[0]
    while lo.shape[0]:
        cells += 8 * lo.shape[0]
        if cells > _MAX_CELLS:
            raise ConvergenceError(
                f"Born octree: the {8 * lo.shape[0]} cells of depth {depth + 1} would take "
                f"it past its budget of {_MAX_CELLS} cells (rel_tol {rel_tol!r})")
        kid_lo, kid_hi = _children(lo, hi)
        kid_vals = _cell_integrals(integrand, kid_lo, kid_hi)
        per_parent = kid_vals.reshape(-1, 8, len(total))
        fine = per_parent[:, 0]
        for k in range(1, 8):  # left to right, as a running float sum would
            fine = fine + per_parent[:, k]
        diff = np.max(np.abs(fine - coarse.reshape(fine.shape)), axis=1)
        if not np.all(np.isfinite(diff)):
            # a non-finite cell never passes the test, and each level of
            # refinement holds 8x the cells of the last
            raise _NotFinite(
                f"Born octree: integrand not finite at depth {depth} "
                f"({diff.size} cells); the body's extent overflows float64")
        size = np.max(np.abs(fine), axis=1)
        budget = np.maximum(rel_tol * np.maximum(size, scale_hint), MIN_REL_TOL * size)
        # below the least normal float64 a difference has no relative precision
        budget = np.maximum(budget, sys.float_info.min)
        done = diff <= budget
        if depth >= _MAX_DEPTH and not done.all():
            worst = float(np.max(diff[~done] / budget[~done]))
            raise ConvergenceError(
                f"Born octree: {int(np.count_nonzero(~done))} cells still above their "
                f"budget at the depth cap {_MAX_DEPTH} (worst diff/budget {worst:.3e}); "
                f"a field point may lie too close to a box")
        for c, column in enumerate(fine[done].T.tolist()):
            total[c] = reduce(operator.add, column, total[c])
        err = reduce(operator.add, (diff[done] + _ROUNDOFF * size[done]).tolist(), err)
        refine = np.repeat(~done, 8)
        lo, hi, coarse = kid_lo[refine], kid_hi[refine], kid_vals[refine]
        depth += 1
    return (total[0] if coarse.ndim == 1 else tuple(total)), err


# the corners of an octree box, which unlike a Box may be degenerate
_Cell = namedtuple("_Cell", "x0 x1 y0 y1 z0 z1")


def _box_octree(kernel, box: Box, r1: Point3, r2: Point3, alpha: np.ndarray,
                rel_tol: float, power: int):
    """The octree of kernel(points, weights, r1, r2, alpha) over the box, an
    integral of dimension length^-power: (total, error), in Python floats.

    It runs in coordinates divided by 2^e, the power of two at or above every
    coordinate of the box and the field points, and scales the total back by
    2^(-power e). That is exact in binary, so at ordinary points the result
    is the octree's in metres bit for bit, and every |r - x| is at most 2, so
    no power of it overflows for a charge far from a small box.

    What can still fail is a cell whose sum is not finite: a field point so
    near a box that is so small against the scene (the box [0, 1e-300]^3 m
    with charges at 1e30 m and 2e-300 m) that a squared distance to a node,
    and the node's weight, underflow to 0 in these coordinates; or an alpha
    so large that its product with the kernel overflows. Either raises
    DomainError naming both causes, and a total that overflows when scaled
    back to metres raises DomainError too, with no numpy warning.
    """
    corners = (box.x0, box.x1, box.y0, box.y1, box.z0, box.z1)
    points = (r1.x, r1.y, r1.z, r2.x, r2.y, r2.z)
    e = math.frexp(max(map(abs, corners + points)))[1]
    rv, rpv = np.array([math.ldexp(c, -e) for c in points]).reshape(2, 3)
    cell = _Cell(*(math.ldexp(c, -e) for c in corners))
    try:
        # a non-finite cell raises; a total that overflows in metres is inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            total, err = _adaptive_boxes(lambda pts, w: kernel(pts, w, rv, rpv, alpha),
                                         [cell], rel_tol, scale_hint=0.0)
            total, err = np.ldexp(total, -power * e).tolist(), float(np.ldexp(err, -power * e))
    except _NotFinite as exc:
        raise DomainError(
            f"Born octree: the integrand over the box {box} for {r1} and {r2} is not "
            f"finite in the octree's coordinates, scaled by 2^{-e} to the scene's "
            f"largest length: a distance to the box underflows float64 there, or "
            f"its product with alpha overflows") from exc
    if not (np.isfinite(total).all() and math.isfinite(err)):
        raise DomainError(f"Born octree: the integral over the box {box} for {r1} and "
                          f"{r2} overflows float64 in metres")
    return total, err


def _half_space_integral(r1: Point3, r2: Point3, alpha: np.ndarray) -> Tuple[float, float]:
    """int over z < 0 of grad_x(1/|r1 - x|) . alpha . grad_x(1/|r2 - x|) d^3x, closed form.

    With D the in-plane offset of r2 from r1, Z = z1 + z2 and R = |r2 - r1*|
    (r1* is r1 mirrored in z = 0), the integral is

        pi [(axx + ayy)/(Z + R) - D.a_par.D / (R (Z + R)^2)] + pi azz / R,

    a_par being the in-plane 2x2 block; the xz and yz entries drop out. It
    follows from the 2-D Fourier representation of 1/|r - x| and reduces to
    2 pi/R for alpha = 1 and to (pi/4h)(axx + ayy) + (pi/2h) azz at r1 = r2.
    D/R is formed first so that no power of R overflows, and alpha's entries
    are taken as Python floats, as in every other Born term, so that a value
    that overflows is an inf and no numpy warning. The error is the
    roundoff, 8 eps times the summed term magnitudes (positive for any
    nonzero tensor, whose trace is positive).
    """
    dx, dy, Z = r2.x - r1.x, r2.y - r1.y, r1.z + r2.z
    R = math.hypot(dx, dy, Z)
    ZR = Z + R
    ux, uy = dx / R, dy / R
    a = alpha.tolist()
    par = a[0][0] * ux * ux + 2.0 * a[0][1] * ux * uy + a[1][1] * uy * uy
    terms = (math.pi * (a[0][0] + a[1][1]) / ZR,
             -math.pi * par / ZR * (R / ZR),
             math.pi * a[2][2] / R)
    value = terms[0] + terms[1] + terms[2]
    if not math.isfinite(value):
        raise DomainError(f"half-space Born integral at {r1}, {r2} overflows float64")
    return value, _ROUNDOFF * (abs(terms[0]) + abs(terms[1]) + abs(terms[2]))


def _half_space_grad(r1: Point3, r2: Point3, alpha: np.ndarray) -> Tuple[float, float, float]:
    """Gradient of _half_space_integral in r1.

    With u = D/R, zeta = Z/R, sigma = 1 + zeta, T = axx + ayy and
    par = u.a_par.u, the integral is (pi/R) [T/sigma - par/sigma^2 + azz];
    its derivatives in Z and in D are algebraic in the same ratios, and r1
    moves Z by +1 and D by -1. Overflows to inf as R -> 0.
    """
    dx, dy, Z = r2.x - r1.x, r2.y - r1.y, r1.z + r2.z
    R = math.hypot(dx, dy, Z)
    ux, uy, zeta = dx / R, dy / R, Z / R
    sigma = 1.0 + zeta
    a = alpha.tolist()
    axx, axy, ayy, azz = a[0][0], a[0][1], a[1][1], a[2][2]
    trace = axx + ayy
    par = axx * ux * ux + 2.0 * axy * ux * uy + ayy * uy * uy
    # R^2/pi times the derivatives in D: a part along u and one along a_par.u
    sigma2 = sigma * sigma
    along_u = (par * (sigma + 2.0) / sigma - trace) / sigma2 - azz
    d_dx = along_u * ux - 2.0 * (axx * ux + axy * uy) / sigma2
    d_dy = along_u * uy - 2.0 * (axy * ux + ayy * uy) / sigma2
    d_dz = -trace / sigma + par * (zeta + 2.0) / sigma2 - azz * zeta
    return -math.pi * d_dx / R / R, -math.pi * d_dy / R / R, math.pi * d_dz / R / R


# The three axes in cyclic order, each with the two that span its normal plane.
_AXES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# Series of _atanc_slope in x^2, enough terms for |x| < 0.3 (0.09^16 < eps).
_SLOPE_SERIES = tuple((-1) ** (k + 1) * 2.0 * k / (2 * k + 1) for k in range(16, 0, -1))


def _atanc(x: float) -> float:
    """atan(x)/x, 1 at x = 0."""
    return math.atan(x) / x if x else 1.0


def _atanc_slope(x: float) -> float:
    """(atan(x)/x - 1/(1 + x^2)) / x^2, by its series where the two cancel."""
    x2 = x * x
    if x2 >= 0.09:
        return (_atanc(x) - 1.0 / (1.0 + x2)) / x2
    total = 0.0
    for c in _SLOPE_SERIES:
        total = total * x2 + c
    return total


def _inv2(l0: float, l1: float, b: float) -> float:
    """int_l0^l1 dl / (l^2 + b^2).

    For l0, l1 of one sign the difference of arctangents is taken in one
    (atan(X)/X with X = b (l1 - l0)/(b^2 + l0 l1)), which stays exact as
    b -> 0, where the integral tends to 1/l0 - 1/l1.
    """
    c = l1 - l0
    if l0 * l1 > 0.0:
        d = b * b + l0 * l1
        return c / d * _atanc(b * c / d)
    return math.atan2(b * c, b * b + l0 * l1) / b


def _inv4(l0: float, l1: float, b: float) -> float:
    """int_l0^l1 dl / (l^2 + b^2)^2, as -(1/2b) d/db of _inv2 in the same forms."""
    c = l1 - l0
    b2 = b * b
    if l0 * l1 > 0.0:
        d = b2 + l0 * l1
        w = c / d
        return w / d * (_atanc(b * w) + 0.5 * w * w * (l0 * l1 - b2) * _atanc_slope(b * w))
    return ((l1 / (l1 * l1 + b2) - l0 / (l0 * l0 + b2)) / (2.0 * b2)
            + math.atan2(b * c, b2 + l0 * l1) / (2.0 * b2 * b))


def _face_k(t: float, lo_u: float, hi_u: float, lo_v: float,
            hi_v: float) -> Tuple[float, float, float]:
    """K = int dA / (u^2 + v^2 + t^2)^2 over [lo_u, hi_u] x [lo_v, hi_v] as (theta, edges, size).

    By the 2-D divergence theorem K = theta/(2 t^2) - edges/2. theta is 2 pi
    times the share of the foot (0, 0) in the rectangle (1 inside, 1/2 on an
    edge, 1/4 at a corner, 0 outside), so the 1/t^2 term appears only where
    the foot is on the face. edges sums, over the four edges at signed
    distance d from the foot (positive inside), d int dl / ((d^2 + l^2)(a^2 + l^2))
    with a^2 = d^2 + t^2, in a form with no 1/t^2; an edge whose line passes
    through the foot adds nothing, theta counting it. size sums the
    magnitudes of the terms of edges.
    """
    share = 2.0 * math.pi
    for lo, hi in ((lo_u, hi_u), (lo_v, hi_v)):
        if lo > 0.0 or hi < 0.0:
            share = 0.0
        elif lo == 0.0 or hi == 0.0:
            share *= 0.5
    t2 = t * t
    edges = size = 0.0
    for d, l0, l1 in ((-lo_u, lo_v, hi_v), (hi_u, lo_v, hi_v),
                      (-lo_v, lo_u, hi_u), (hi_v, lo_u, hi_u)):
        if d == 0.0:
            continue
        # p times the integral is [atan(l/p) + p l atanc(l (a - p)/q)/q] / (a (a + p))
        # at the ends, q = p a + l^2; a - p = t^2/(a + p) and the arctangents
        # are differenced in one
        p = abs(d)
        a = math.sqrt(p * p + t2)
        amp = t2 / (a + p)
        q0, q1 = p * a + l0 * l0, p * a + l1 * l1
        arc = math.atan2(p * (l1 - l0), p * p + l0 * l1)
        r0 = p * l0 * _atanc(l0 * amp / q0) / q0
        r1 = p * l1 * _atanc(l1 * amp / q1) / q1
        w = a * (a + p)
        edges += math.copysign((arc + r1 - r0) / w, d)
        size += (abs(arc) + abs(r0) + abs(r1)) / w
    return share, edges, size


def _box_offsets(box: Box, r: Point3):
    """Ranges of x - r over the box, each divided by the power of two 2^e at
    or above the box's longest side (exact in binary), and e."""
    e = math.frexp(max(box.x1 - box.x0, box.y1 - box.y0, box.z1 - box.z0))[1]
    lo = [math.ldexp(v, -e) for v in (box.x0 - r.x, box.y0 - r.y, box.z0 - r.z)]
    hi = [math.ldexp(v, -e) for v in (box.x1 - r.x, box.y1 - r.y, box.z1 - r.z)]
    return lo, hi, e


def _box_self_integral(box: Box, r: Point3, alpha: np.ndarray) -> Tuple[float, float]:
    """int over the box of s.alpha.s / s^6 d^3x, s = x - r, closed form for r outside it.

    With s_i s_j / s^6 = [d_i d_j (1/s^2) + 2 delta_ij / s^4] / 8 and
    1/s^4 = -div(s / s^4) the integral is -(1/4) times the sum over faces of
    int (n.alpha.s + tr(alpha) n.s) / s^4 dA. On a face at offset t along its
    normal axis m the normal part is (alpha_mm + tr alpha) t K (`_face_k`).
    The in-plane entry alpha_mu of that face and alpha_um of the face normal
    to u add, on the edge the two share, (alpha_mu / 4) sigma_m sigma_u
    int dl / (l^2 + b^2), with sigma the edge's sides and b the distance
    from r to its line (`_inv2`). This is the face-and-edge reduction of
    polyhedral potential fields (Okabe, Geophysics 44 (1979) 730).

    The error is the roundoff, 8 eps times the summed term magnitudes. Far
    from the box the terms cancel: the bound reaches 4e-11 of the value at
    ten box sizes and 1e-8 at a hundred, where the octree is the cheaper
    route. Raises ZeroDivisionError or OverflowError where a length
    underflows or overflows float64 against the box's side.
    """
    lo, hi, e = _box_offsets(box, r)
    a = alpha.tolist()
    trace = a[0][0] + a[1][1] + a[2][2]
    total = size = 0.0
    for m, u, v in _AXES:
        coef = a[m][m] + trace
        for sign, t in ((-1.0, lo[m]), (1.0, hi[m])):
            # -(1/4) sign coef t K, K = theta/(2 t^2) - edges/2
            theta, edges, edge_size = _face_k(t, lo[u], hi[u], lo[v], hi[v])
            if theta:
                term = sign * coef * theta / (8.0 * t)
                total -= term
                size += abs(term)
            term = 0.125 * sign * coef * t
            total += term * edges
            size += abs(term) * edge_size
        if a[u][v]:
            for su, bu in ((-1.0, lo[u]), (1.0, hi[u])):
                for sv, bv in ((-1.0, lo[v]), (1.0, hi[v])):
                    term = 0.25 * a[u][v] * su * sv * _inv2(lo[m], hi[m], math.hypot(bu, bv))
                    total += term
                    size += abs(term)
    scale = math.ldexp(1.0, -e)
    return total * scale, _ROUNDOFF * size * scale


def _box_self_grad(box: Box, r: Point3, alpha: np.ndarray) -> Tuple[Gradient, float]:
    """Gradient in r of _box_self_integral, and a roundoff bound on each component.

    d/dr_m of int f(x - r) d^3x is -sum over the two faces normal to m of
    sigma int f dA. On a face at offset t, with S = u^2 + v^2 + t^2, the
    identities d_u(u/S^2) = 1/S^2 - 4u^2/S^3 and d_u d_v(1/S) = 8uv/S^3 give

        int s.alpha.s / S^3 dA = (1/4)[(alpha_mm + tr alpha) K
            + (alpha_mm - alpha_uu) E_u + (alpha_mm - alpha_vv) E_v]
            - (t/2)(alpha_mu H_u + alpha_mv H_v)
            + (alpha_uv / 4) sum over corners of sigma_u sigma_v / S,

    K from `_face_k`; over the two edges at u = const, E_u sums
    d int dl / (l^2 + b^2)^2 (d the edge's signed distance from the foot)
    and H_u sums the same integral (`_inv4`) times the edge's side sigma.
    The bound is 8 eps times the largest component's summed term magnitudes.
    """
    lo, hi, e = _box_offsets(box, r)
    a = alpha.tolist()
    trace = a[0][0] + a[1][1] + a[2][2]
    grad = [0.0, 0.0, 0.0]
    sizes = [0.0, 0.0, 0.0]
    for m, u, v in _AXES:
        k_coef = 0.25 * (a[m][m] + trace)
        for sign, t in ((-1.0, lo[m]), (1.0, hi[m])):
            theta, edges, edge_size = _face_k(t, lo[u], hi[u], lo[v], hi[v])
            k_theta = theta / (2.0 * t * t) if theta else 0.0
            face = k_coef * (k_theta - 0.5 * edges)
            size = abs(k_coef) * (k_theta + 0.5 * edge_size)
            for w, l0, l1 in ((u, lo[v], hi[v]), (v, lo[u], hi[u])):
                e_coef = 0.25 * (a[m][m] - a[w][w])
                h_coef = -0.5 * t * a[m][w]
                for side, b in ((-1.0, lo[w]), (1.0, hi[w])):
                    h = side * _inv4(l0, l1, math.hypot(b, t))
                    face += (e_coef * b + h_coef) * h
                    size += (abs(e_coef * b) + abs(h_coef)) * abs(h)
            if a[u][v]:
                for su, bu in ((-1.0, lo[u]), (1.0, hi[u])):
                    for sv, bv in ((-1.0, lo[v]), (1.0, hi[v])):
                        term = 0.25 * a[u][v] * su * sv / (t * t + bu * bu + bv * bv)
                        face += term
                        size += abs(term)
            grad[m] -= sign * face
            sizes[m] += size
    scale = math.ldexp(1.0, -2 * e)
    return (grad[0] * scale, grad[1] * scale, grad[2] * scale), _ROUNDOFF * max(sizes) * scale


def _closed_form(closed, box: Box, r: Point3, alpha: np.ndarray):
    """closed(box, r, alpha), or None where a length or a term overflows or
    underflows float64 (a finite bound implies a finite value)."""
    try:
        got = closed(box, r, alpha)
    except (ZeroDivisionError, OverflowError):
        return None
    return got if math.isfinite(got[1]) else None


def _scattering(body: DiluteBody, r1: Point3, r2: Point3, spec: QuadratureSpec,
                gradient: bool = False):
    """g1(r1, r2) as a ValueWithError, or with gradient=True its gradient:
    in r1, and at r1 = r2 that of r -> g1(r, r), both points moving.

    g1 is -1/(eps0 (4 pi eps_bg)^2) times the eta-weighted integral over the
    body of grad_x(1/|r1 - x|) . alpha . grad_x(1/|r2 - x|) d^3x, and each
    part of the body takes the route that the module docstring states.
    The parts are summed eta-weighted in Python floats, so that a gradient
    that overflows is an inf (which force_on_A reports) and no warning; a
    gradient carries no error.
    """
    alpha = body.alpha.matrix
    kernel, power, closed, half_space = (
        (kernels.alpha_chain_grad_sum, 2, _box_self_grad, _half_space_grad) if gradient
        else (kernels.alpha_chain_sum, 1, _box_self_integral, _half_space_integral))
    # a gradient with both points moving is twice the gradient in r1, g1
    # being symmetric; a box's closed form gives it whole. A part doubles
    # before its eta weight, which is exact: doubling the sum instead rounds
    # otherwise where a weighted part is subnormal.
    twice = 2.0 if gradient and r1 == r2 else 1.0
    parts = []  # (eta, value or gradient, error, factor)
    for reg in body.regions:
        if reg.eta == 0.0:
            continue
        got = _closed_form(closed, reg.box, r1, alpha) if r1 == r2 else None
        if got is not None and got[1] <= spec.rel_tol * (
                math.hypot(*got[0]) if gradient else abs(got[0])):
            parts.append((reg.eta, *got, 1.0))
        else:
            parts.append((reg.eta, *_box_octree(kernel, reg.box, r1, r2, alpha, spec.rel_tol,
                                                power), twice))
    if body.half_space_eta:
        got = half_space(r1, r2, alpha)
        parts.append((body.half_space_eta, *((got, 0.0) if gradient else got), twice))
    total, err = [0.0, 0.0, 0.0], 0.0
    for eta, val, e, factor in parts:
        for k, c in enumerate(val if gradient else (val,)):
            total[k] += eta * (factor * c)
        err += eta * e
    screen = 4.0 * math.pi * body.background_eps  # its square overflows to inf, g1 to 0
    pref = -1.0 / (EPSILON_0 * (screen * screen))
    if gradient:
        return pref * total[0], pref * total[1], pref * total[2]
    return ValueWithError(pref * total[0], abs(pref) * err)


def born_scattering_g1(r: Point3, r_src: Point3, body: DiluteBody,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """First Born correction to g from the polarizable body.

    g1(r, r') = -(1/eps0) int d^3x eta(x) grad_x g0(r, x) . alpha . grad_x g0(x, r')
    with the uniform background kernel g0 = 1/(4 pi eps_bg |.|). Callers
    outside `DiluteBody.g` use it too, so it admits both points itself.
    """
    body.host_eps(r)
    body.host_eps(r_src)
    return _scattering(body, r, r_src, spec)


def charge_body_energy(a, body: DiluteBody,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """Volume integral of eta(x) * U_charge-molecule(rA, x) over the body, joules.

    s.alpha.s / s^6 is the r1 = r2 case of the Green's-function route's
    integrand, so this is the self-energy q^2/(2 eps0) born_scattering_g1(rA, rA),
    with its abs_err; it carries the same 1/eps_bg^2 background screening.
    """
    got = interactions.self_energy(body, a, spec)
    return ValueWithError(got.energy, got.abs_err)
