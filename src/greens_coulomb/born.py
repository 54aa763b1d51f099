"""First-order Born treatment of a dilute polarizable body.

The body is a piecewise-constant number-density field (axis-aligned boxes,
optionally the half-space z < 0) of molecules with a shared static
polarizability tensor. Two routes to the charge-body energy are exposed:

* the pairwise charge-molecule potential integrated over the body,
* the scattering correction to the Green's function, contracted to the
  self-energy.

Both are the same volume integral written differently and must agree; the
tests exploit that. The half-space z < 0 is integrated in closed form for
any tensor (`_half_space_integral`). Boxes use deterministic 5-point
Gauss-Legendre per axis with dyadic (octree) refinement, evaluated one
refinement level at a time: a level is a set of corner arrays, all its
cells are split at once, and the integrand sees whole blocks of cells per
call. Accepted cells are summed in the FIFO order of a cell-by-cell loop,
so results are bit-reproducible; a cell still outside its budget at the
depth cap is a ConvergenceError. Forces differentiate the same integrals
under the integral sign (`born_scattering_grad`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.constants import epsilon_0

from . import kernels
from .analytic import free_space_g, free_space_grad
from .core import (
    DEFAULT_QUADRATURE,
    MIN_REL_TOL,
    CoincidentPointsError,
    ConvergenceError,
    DomainError,
    Geometry,
    Gradient,
    GreensValue,
    PointInsideBodyError,
    Point3,
    QuadratureSpec,
    ValueWithError,
    finite_eps,
)

_GL_ORDER = 5
_GL_X, _GL_W = leggauss(_GL_ORDER)
# Parents per integrand call (8 cells, 1,000 nodes each). With 64 parents
# the dilute_bodies benchmark ran a quarter slower and its peak RSS rose 12%.
_CHUNK_PARENTS = 4
_CHUNK_CELLS = 8 * _CHUNK_PARENTS
# The integrand divides by |r - x|^3 |r' - x|^3; with box coordinates beyond
# this, that product overflows float64 for points at the same scale.
MAX_BOX_COORD = 0.5 * sys.float_info.max ** (1.0 / 6.0)
# Roundoff of the closed-form half-space integral, relative to its summed terms.
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
    """Axis-aligned box [x0,x1] x [y0,y1] x [z0,z1], meters."""

    x0: float
    x1: float
    y0: float
    y1: float
    z0: float
    z1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0 and self.z1 > self.z0):
            raise DomainError(f"degenerate box {self!r}")

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
    the half-space z < 0 at this uniform density.
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

    def contains(self, p: Point3) -> bool:
        if self.half_space_eta is not None and p.z < 0.0:
            return True
        return any(reg.box.contains(p) for reg in self.regions)

    def host_eps(self, p: Point3) -> float:
        return self.background_eps

    def surface_distance(self, p: Point3) -> float:
        dist = math.inf
        if self.half_space_eta is not None:
            dist = min(dist, abs(p.z))
        for reg in self.regions:
            b = reg.box
            dx = max(b.x0 - p.x, 0.0, p.x - b.x1)
            dy = max(b.y0 - p.y, 0.0, p.y - b.y1)
            dz = max(b.z0 - p.z, 0.0, p.z - b.z1)
            dist = min(dist, math.hypot(dx, math.hypot(dy, dz)))
        return dist

    def g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> GreensValue:
        g0 = free_space_g(r, r_src, self.background_eps)
        g1 = born_scattering_g1(r, r_src, self, spec)
        return GreensValue(g0.value + g1.value, g1.abs_err)

    def g1(self, r: Point3, spec: QuadratureSpec) -> GreensValue:
        return born_scattering_g1(r, r, self, spec)

    def grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        direct = free_space_grad(r, r_src, self.background_eps)
        scattered = born_scattering_grad(r, r_src, self, spec)
        return tuple(d + s for d, s in zip(direct, scattered))

    def grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        # g1 is symmetric, so the gradient of r -> g1(r, r) is 2 grad_1 g1(r, r)
        return tuple(2.0 * c for c in born_scattering_grad(r, r, self, spec))


def charge_molecule_potential(qA: float, rA: Point3, rB: Point3,
                              alpha: PolarizabilityTensor) -> float:
    """Charge-molecule interaction -qA^2 (r . alpha . r) / (32 pi^2 eps0^2 r^6), joules."""
    r = np.array([rA.x - rB.x, rA.y - rB.y, rA.z - rB.z])
    r2 = float(r @ r)
    if r2 == 0.0:
        raise CoincidentPointsError("charge_molecule_potential: rA coincides with rB")
    quad = float(r @ alpha.matrix @ r)
    return -qA * qA * quad / (32.0 * math.pi ** 2 * epsilon_0 ** 2 * r2 ** 3)


# ---------------------------------------------------------------------------
# Deterministic adaptive volume quadrature
# ---------------------------------------------------------------------------

def _cell_nodes(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss nodes (n*125, 3) and weights (n, 125) of n boxes [lo, hi].

    Nodes run x-major, z-minor within each box, as a meshgrid with "ij"
    indexing would order them.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, :, None] + half[:, :, None] * _GL_X   # (n, 3, 5)
    w = half[:, :, None] * _GL_W
    pts = np.empty((lo.shape[0], _GL_ORDER, _GL_ORDER, _GL_ORDER, 3))
    pts[..., 0] = x[:, 0, :, None, None]
    pts[..., 1] = x[:, 1, None, :, None]
    pts[..., 2] = x[:, 2, None, None, :]
    W = w[:, 0, :, None, None] * w[:, 1, None, :, None] * w[:, 2, None, None, :]
    return pts.reshape(-1, 3), W.reshape(lo.shape[0], -1)


def _cell_integrals(integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss estimate of each box, _CHUNK_CELLS boxes per integrand call."""
    out = np.empty(lo.shape[0])
    for i in range(0, lo.shape[0], _CHUNK_CELLS):
        pts, w = _cell_nodes(lo[i:i + _CHUNK_CELLS], hi[i:i + _CHUNK_CELLS])
        out[i:i + _CHUNK_CELLS] = integrand(pts, w)
    return out


def _children(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 8 octants of each box, parent-major, x-major and z-minor."""
    mid = 0.5 * (lo + hi)
    kid_lo = np.where(_OCTANT_UPPER, mid[:, None, :], lo[:, None, :])
    kid_hi = np.where(_OCTANT_UPPER, hi[:, None, :], mid[:, None, :])
    return kid_lo.reshape(-1, 3), kid_hi.reshape(-1, 3)


def _adaptive_boxes(integrand, boxes, rel_tol: float, scale_hint: float,
                    max_depth: int = 12) -> Tuple[float, float]:
    """Octree-refined Gauss quadrature, one refinement level at a time.

    A level is held as arrays of lower corners, upper corners and coarse
    estimates; every entry shares the level's depth. All parents are split
    at once and their children integrated in blocks of _CHUNK_PARENTS
    parents. `integrand(points, weights)` takes points (cells*125, 3) and
    weights (cells, 125) and returns the per-cell sums. A parent is accepted
    when its children's sum moves its coarse estimate by no more than the
    local budget rel_tol * max(|fine|, scale_hint), or by no more than
    MIN_REL_TOL |fine|; accepted parents are added to the total in queue (FIFO)
    order, so results are bit-reproducible. A parent still failing at
    max_depth raises ConvergenceError.
    """
    total = 0.0
    err = 0.0
    lo = np.array([(b.x0, b.y0, b.z0) for b in boxes], dtype=float)
    hi = np.array([(b.x1, b.y1, b.z1) for b in boxes], dtype=float)
    coarse = _cell_integrals(integrand, lo, hi)
    depth = 0
    while lo.shape[0]:
        kid_lo, kid_hi = _children(lo, hi)
        kid_vals = _cell_integrals(integrand, kid_lo, kid_hi)
        per_parent = kid_vals.reshape(-1, 8)
        fine = per_parent[:, 0]
        for k in range(1, 8):  # left to right, as a running float sum would
            fine = fine + per_parent[:, k]
        diff = np.abs(fine - coarse)
        if not np.all(np.isfinite(diff)):
            # a non-finite cell never passes the test, and each level of
            # refinement holds 8x the cells of the last
            raise ConvergenceError(
                f"Born octree: integrand not finite at depth {depth} "
                f"({diff.size} cells); the body's extent overflows float64")
        budget = np.maximum(rel_tol * np.maximum(np.abs(fine), scale_hint),
                            MIN_REL_TOL * np.abs(fine))
        done = diff <= budget
        if depth >= max_depth and not done.all():
            with np.errstate(divide="ignore"):
                worst = float(np.max(diff[~done] / budget[~done]))
            raise ConvergenceError(
                f"Born octree: {int(np.count_nonzero(~done))} cells still above their "
                f"budget at the depth cap {max_depth} (worst diff/budget {worst:.3e}); "
                f"a field point may lie too close to a box")
        for v, e in zip(fine[done].tolist(), diff[done].tolist()):
            total += v
            err += e
        refine = np.repeat(~done, 8)
        lo, hi, coarse = kid_lo[refine], kid_hi[refine], kid_vals[refine]
        depth += 1
    return total, err


def _half_space_integral(r1: Point3, r2: Point3, alpha: np.ndarray) -> Tuple[float, float]:
    """int over z < 0 of grad_x(1/|r1 - x|) . alpha . grad_x(1/|r2 - x|) d^3x, closed form.

    With D the in-plane offset of r2 from r1, Z = z1 + z2 and R = |r2 - r1*|
    (r1* is r1 mirrored in z = 0), the integral is

        pi [(axx + ayy)/(Z + R) - D.a_par.D / (R (Z + R)^2)] + pi azz / R,

    a_par being the in-plane 2x2 block; the xz and yz entries drop out. It
    follows from the 2-D Fourier representation of 1/|r - x| and reduces to
    2 pi/R for alpha = 1 and to (pi/4h)(axx + ayy) + (pi/2h) azz at r1 = r2.
    D/R is formed first so that no power of R overflows. The error is the
    roundoff, 8 eps times the summed term magnitudes (positive for any
    nonzero tensor, whose trace is positive).
    """
    dx, dy, Z = r2.x - r1.x, r2.y - r1.y, r1.z + r2.z
    R = math.hypot(dx, dy, Z)
    ZR = Z + R
    ux, uy = dx / R, dy / R
    par = alpha[0, 0] * ux * ux + 2.0 * alpha[0, 1] * ux * uy + alpha[1, 1] * uy * uy
    terms = (math.pi * (alpha[0, 0] + alpha[1, 1]) / ZR,
             -math.pi * par / ZR * (R / ZR),
             math.pi * alpha[2, 2] / R)
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


def _check_outside(body: DiluteBody, pts) -> None:
    for p in pts:
        if body.contains(p):
            raise PointInsideBodyError(f"point {p} lies inside the body volume")


def _body_integral(body: DiluteBody, box_integrand, half_space, r1: Point3, r2: Point3,
                   spec: QuadratureSpec) -> Tuple[float, float]:
    """eta-weighted integral over the body and its error.

    Boxes go to the octree with `box_integrand`; the half-space takes
    `half_space(r1, r2, alpha)`, the closed form (value, error) of the same
    integrand over z < 0.
    """
    total = 0.0
    err = 0.0
    for reg in body.regions:
        if reg.eta == 0.0:
            continue
        val, e = _adaptive_boxes(box_integrand, [reg.box], spec.rel_tol, scale_hint=0.0)
        total += reg.eta * val
        err += reg.eta * e
    if body.half_space_eta:
        if r1.z <= 0.0 or r2.z <= 0.0:
            raise PointInsideBodyError("field points must lie above the half-space body")
        val, e = half_space(r1, r2, body.alpha.matrix)
        total += body.half_space_eta * val
        err += body.half_space_eta * e
    return total, err


def born_scattering_g1(r: Point3, r_src: Point3, body: DiluteBody,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GreensValue:
    """First Born correction to g from the polarizable body.

    g1(r, r') = -(1/eps0) int d^3x eta(x) grad_x g0(r, x) . alpha . grad_x g0(x, r')
    with the uniform background kernel g0 = 1/(4 pi eps_bg |.|).
    """
    _check_outside(body, (r, r_src))
    alpha = body.alpha.matrix
    rv = np.array([r.x, r.y, r.z])
    rpv = np.array([r_src.x, r_src.y, r_src.z])
    pref = -1.0 / (epsilon_0 * (4.0 * math.pi * body.background_eps) ** 2)

    def integrand(pts, w):
        return kernels.alpha_chain_sum(pts, w, rv, rpv, alpha)

    total, err = _body_integral(body, integrand, _half_space_integral, r, r_src, spec)
    return GreensValue(pref * total, abs(pref) * err)


def born_scattering_grad(r: Point3, r_src: Point3, body: DiluteBody,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Tuple[float, float, float]:
    """Gradient of born_scattering_g1 in its field point r.

    Each component is its own volume integral: the octree runs once per
    component on kernels.alpha_chain_grad_sum, with the energy's per-cell
    budget (rel_tol of the cell's own value), and the half-space term is the
    gradient of its closed form.
    """
    _check_outside(body, (r, r_src))
    alpha = body.alpha.matrix
    rv = np.array([r.x, r.y, r.z])
    rpv = np.array([r_src.x, r_src.y, r_src.z])
    pref = -1.0 / (epsilon_0 * (4.0 * math.pi * body.background_eps) ** 2)

    def component(axis: int) -> float:
        def integrand(pts, w):
            return kernels.alpha_chain_grad_sum(pts, w, rv, rpv, alpha, axis)

        def half_space(r1, r2, a):
            return _half_space_grad(r1, r2, a)[axis], 0.0

        return pref * _body_integral(body, integrand, half_space, r, r_src, spec)[0]

    return component(0), component(1), component(2)


def charge_body_energy(a, body: DiluteBody,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """Volume integral of eta(x) * U_charge-molecule(rA, x) over the body, joules.

    Independent of the born_scattering_g1 route on boxes (the two are
    checked against each other in the tests); on the half-space both use
    the closed form, since s.alpha.s / s^6 is the r1 = r2 case of its
    integrand. Carries the same 1/eps_bg^2 background screening as the
    Green's-function route so they agree for any background permittivity.
    """
    r = a.position
    _check_outside(body, (r,))
    alpha = body.alpha.matrix
    rv = np.array([r.x, r.y, r.z])
    pref = -a.q * a.q / (32.0 * math.pi ** 2 * epsilon_0 ** 2 * body.background_eps ** 2)

    def integrand(pts, w):
        s = rv[np.newaxis, :] - pts
        s2 = np.einsum("ij,ij->i", s, s)
        quad = np.einsum("ij,ij->i", s @ alpha, s)
        return np.sum((w.ravel() * quad / s2 ** 3).reshape(w.shape), axis=-1)

    total, err = _body_integral(body, integrand, _half_space_integral, r, r, spec)
    return ValueWithError(pref * total, abs(pref) * err)
