"""Independent finite-difference solver for div(eps grad g) = -delta.

Axisymmetric (m = 0) conservative finite volumes on a uniform (rho, z)
grid, for z-layered permittivity profiles (planar interface or gap). Used
as a numerical cross-check of the closed-form and quadrature routes; it
shares no code with them.

The singular part is never discretized: writing g = g_free/eps_src + g1,
the unknown g1 satisfies

    div(eps grad g1) = -div((eps - eps_src) grad g_free) / eps_src

whose right side is supported only where eps differs from the source-region
value, i.e. away from the singularity. The discrete right side is the flux
mismatch of the sampled free kernel through faces whose permittivity
differs from eps_src, so the scheme is O(h^2) up to domain truncation.

There is one outer boundary condition: g1 falls off like 1/s, s measured
from the source, which passes the induced monopole through and keeps the
truncation error far below the discretization error.

The operator is symmetric and five-diagonal: the radial and axial face
weights are arrays, and each sits on both off-diagonals of its pair.

It is solved by conjugate gradients preconditioned with the exact inverse
of its separable part (Concus & Golub, SIAM J. Numer. Anal. 10 (1973)
1103). eps depends on z alone, so the radial face weights factor as
2 pi (i + 1) times D_z = eps dz and the axial ones as D_r = 2 pi rho drho
times eps_face / dz: the interior operator is K_r (x) D_z + D_r (x) K_z,
with K_r and K_z the 1-D stiffness matrices of those couplings. Only the
1/s outer faces break the product, as a diagonal term that varies along
each outer edge; the preconditioner puts one constant per edge in its
place, the median of the term divided by its D. Its inverse is fast
diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185): the
eigenpairs of the two 1-D pencils (K, D) turn a solve into four n x n
matrix products and a division by the eigenvalue sums.

The operator and its preconditioner share every interior coupling and
differ only by the edge terms, each of which stays within a ratio of its
median that the domain's shape fixes, not the grid. So the preconditioned
operator's condition number, and with it the iteration count (9 to 12 to
a relative residual of 1e-12), does not grow with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (
    DomainError,
    HalfSpace,
    Point3,
    SolverError,
    SourceOnInterfaceError,
    ThreeLayerCavity,
    UnsupportedGeometryError,
    is_conductor,
)

_FOUR_PI = 4.0 * math.pi
_TOL = 1e-10  # largest relative residual the solve may leave
_CG_MAXITER = 100  # the solve takes 9 to 12 on every grid tried


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on [0, rho_max] x [z_min, z_max]."""

    n_rho: int
    n_z: int
    rho_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if self.n_rho < 32 or self.n_z < 32:
            raise DomainError("grid must be at least 32 x 32")
        if not (self.rho_max > 0.0 and self.z_max > self.z_min):
            raise DomainError("empty grid domain")

    @property
    def drho(self) -> float:
        return self.rho_max / self.n_rho

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n_z

    def rho_centers(self) -> np.ndarray:
        return (np.arange(self.n_rho) + 0.5) * self.drho

    def z_centers(self) -> np.ndarray:
        return self.z_min + (np.arange(self.n_z) + 0.5) * self.dz


def aligned_grid(n: int, src_z: float, interfaces, z_half_span: float,
                 rho_max: float) -> GridSpec:
    """n x n grid with a face on the first interface and a cell center on
    src_z, spanning roughly [src_z - span, src_z + span] in z.

    Only the first interface is sure to lie on a face; the others fall
    wherever the spacing puts them.
    """
    dz = 2.0 * z_half_span / n
    # put a face on the first interface, then nudge so src_z is on a center
    anchor = interfaces[0] if len(interfaces) else 0.0
    k = round((src_z - anchor) / dz - 0.5)
    dz_adj = (src_z - anchor) / (k + 0.5)
    if not (0.0 < dz_adj < 10.0 * dz):
        dz_adj = dz
    j_lo = math.floor((anchor - (src_z - z_half_span)) / dz_adj)
    z_min = anchor - j_lo * dz_adj
    return GridSpec(n_rho=n, n_z=n, rho_max=rho_max,
                    z_min=z_min, z_max=z_min + n * dz_adj)


def _eps_profile(geom) -> Tuple[Callable[[np.ndarray], np.ndarray], Tuple[float, ...]]:
    """Layered eps(z) and the interface z-positions."""
    if isinstance(geom, HalfSpace):
        if is_conductor(geom.eps1) or is_conductor(geom.eps2):
            raise UnsupportedGeometryError("the FD solver needs finite permittivities")
        e1, e2 = float(geom.eps1), float(geom.eps2)

        def eps(z: np.ndarray) -> np.ndarray:
            return np.where(z > 0.0, e1, e2)

        return eps, (0.0,)
    if isinstance(geom, ThreeLayerCavity):
        if is_conductor(geom.eps1) or is_conductor(geom.eps3):
            raise UnsupportedGeometryError("the FD solver needs finite permittivities")
        e1, e2, e3 = float(geom.eps1), float(geom.eps2), float(geom.eps3)
        half = 0.5 * geom.d

        def eps(z: np.ndarray) -> np.ndarray:
            return np.where(z < -half, e1, np.where(z > half, e3, e2))

        return eps, (-half, half)
    raise UnsupportedGeometryError(
        f"FD oracle supports HalfSpace and ThreeLayerCavity, not {type(geom).__name__}")


@dataclass
class FDSolution:
    """Sampled scattering field g1 on the grid, plus reconstruction helpers."""

    grid: GridSpec
    g1: np.ndarray           # (n_rho, n_z)
    eps_cell: np.ndarray     # (n_rho, n_z)
    eps_src: float
    src_z: float
    axis_offset: Tuple[float, float]
    residual: float

    def _interp(self, rho: np.ndarray, z: np.ndarray) -> np.ndarray:
        rc = self.grid.rho_centers()
        zc = self.grid.z_centers()
        rho_ext = np.concatenate([-rc[::-1], rc])
        vals = np.vstack([self.g1[::-1, :], self.g1])
        from scipy.interpolate import RegularGridInterpolator
        f = RegularGridInterpolator((rho_ext, zc), vals, method="linear",
                                    bounds_error=True)
        return f(np.column_stack([np.atleast_1d(rho), np.atleast_1d(z)]))

    def g1_at(self, p: Point3) -> float:
        """Interpolated g1 at a lab-frame point (source translated on axis)."""
        rho = math.hypot(p.x - self.axis_offset[0], p.y - self.axis_offset[1])
        return float(self._interp(np.array([rho]), np.array([p.z]))[0])

    def g_free(self, p: Point3) -> float:
        rho = math.hypot(p.x - self.axis_offset[0], p.y - self.axis_offset[1])
        dist = math.hypot(rho, p.z - self.src_z)
        return 1.0 / (_FOUR_PI * self.eps_src * dist)

    def g_total_at(self, p: Point3) -> float:
        return self.g1_at(p) + self.g_free(p)

    def source_g1(self) -> float:
        """g1 at the source point itself (the smooth scattering value)."""
        return self.g1_at(Point3(self.axis_offset[0], self.axis_offset[1], self.src_z))

    def gauss_flux(self, n_ring: int) -> float:
        """Outward flux of -eps grad g through a grid contour around the source.

        n_ring counts cells from the source in each direction; the result
        should equal the enclosed charge, i.e. 1.
        """
        g = self.grid
        rc, zc = g.rho_centers(), g.z_centers()
        j_src = int(np.argmin(np.abs(zc - self.src_z)))
        i_hi = min(n_ring, g.n_rho - 2)
        j_lo = max(j_src - n_ring, 1)
        j_hi = min(j_src + n_ring, g.n_z - 2)

        def gtot(i, j):
            dist = math.hypot(rc[i], zc[j] - self.src_z)
            return self.g1[i, j] + 1.0 / (_FOUR_PI * self.eps_src * dist)

        flux = 0.0
        rho_face = (i_hi + 1) * g.drho
        for j in range(j_lo, j_hi + 1):
            e = 2.0 / (1.0 / self.eps_cell[i_hi, j] + 1.0 / self.eps_cell[i_hi + 1, j])
            area = 2.0 * math.pi * rho_face * g.dz
            flux -= e * area * (gtot(i_hi + 1, j) - gtot(i_hi, j)) / g.drho
        for i in range(0, i_hi + 1):
            area = 2.0 * math.pi * rc[i] * g.drho
            e_top = 2.0 / (1.0 / self.eps_cell[i, j_hi] + 1.0 / self.eps_cell[i, j_hi + 1])
            flux -= e_top * area * (gtot(i, j_hi + 1) - gtot(i, j_hi)) / g.dz
            e_bot = 2.0 / (1.0 / self.eps_cell[i, j_lo] + 1.0 / self.eps_cell[i, j_lo - 1])
            flux -= e_bot * area * (gtot(i, j_lo - 1) - gtot(i, j_lo)) / g.dz
        return flux


def _pencil(w: np.ndarray, d: np.ndarray, end_lo: float, end_hi: float):
    """Eigenpairs of the 1-D pencil K x = lam D x, scaled so X^T D X = 1.

    K is the stiffness matrix of face weights w between neighbouring cells,
    with end_lo and end_hi added to its first and last diagonal entries; D
    is diagonal and positive.
    """
    k = np.diag(np.pad(w, (1, 0)) + np.pad(w, (0, 1)))
    k[0, 0] += end_lo
    k[-1, -1] += end_hi
    k -= np.diag(w, 1) + np.diag(w, -1)
    scale = 1.0 / np.sqrt(d)
    lam, q = np.linalg.eigh(scale[:, np.newaxis] * k * scale)
    return lam, scale[:, np.newaxis] * q


def solve_scattering_g1(geom: Union[HalfSpace, ThreeLayerCavity], src: Point3,
                        grid: GridSpec) -> FDSolution:
    """Solve for the scattering part g1 = g - g_free/eps_src on the grid.

    The source may sit off the z axis; the planar geometry is translation
    invariant in-plane, so the solve runs in a frame with the source on the
    axis and the solution remembers the offset.
    """
    eps_z, interfaces = _eps_profile(geom)
    zs = src.z
    for z_if in interfaces:
        if abs(zs - z_if) < grid.dz:
            raise SourceOnInterfaceError(
                f"source z = {zs!r} too close to the interface at z = {z_if!r}")
    if not (grid.z_min + 10 * grid.dz < zs < grid.z_max - 10 * grid.dz):
        raise DomainError("source must sit inside the grid with >= 10 cells margin")

    n_rho, n_z = grid.n_rho, grid.n_z
    drho, dz = grid.drho, grid.dz
    rc = grid.rho_centers()
    zc = grid.z_centers()
    eps_col = eps_z(zc)                      # (n_z,)
    eps_cell = np.broadcast_to(eps_col, (n_rho, n_z)).copy()
    eps_src = float(eps_z(np.array([zs]))[0])

    def gf(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
        return 1.0 / (_FOUR_PI * eps_src * np.hypot(rho, z - zs))

    RC, ZC = np.meshgrid(rc, zc, indexing="ij")
    gf_cell = gf(RC, ZC)

    # Interior faces: w couples the two cells a face separates, and the flux
    # mismatch m of the free kernel through it enters b with opposite signs.
    # Radial faces at rho = (i + 1) drho, (n_rho - 1, n_z):
    area_r = 2.0 * math.pi * (np.arange(1, n_rho) * drho)[:, np.newaxis] * dz
    e_r = 2.0 / (1.0 / eps_cell[:-1] + 1.0 / eps_cell[1:])
    w_r = e_r * area_r / drho
    m_r = (e_r - eps_src) * area_r / drho * (gf_cell[1:] - gf_cell[:-1])
    # axial faces between z-cells j and j + 1, (n_rho, n_z - 1):
    area_z = 2.0 * math.pi * rc * drho
    e_z = 2.0 / (1.0 / eps_col[:-1] + 1.0 / eps_col[1:])
    w_z = e_z * area_z[:, np.newaxis] / dz
    m_z = (e_z - eps_src) * area_z[:, np.newaxis] / dz * (gf_cell[:, 1:] - gf_cell[:, :-1])

    # each cell sums its faces in one order: lower and upper rho face, lower
    # and upper z face, then the outer faces below
    diag = np.zeros((n_rho, n_z))
    b = np.zeros((n_rho, n_z))
    diag[1:] += w_r
    b[1:] -= m_r
    diag[:-1] += w_r
    b[:-1] += m_r
    diag[:, 1:] += w_z
    b[:, 1:] -= m_z
    diag[:, :-1] += w_z
    b[:, :-1] += m_z

    def outer_face(cells, e, area, rho, z, ghost_rho, ghost_z, delta):
        # g1 falls off like 1/s from the source between the cell and its
        # ghost one step outside the face
        s_ghost = np.hypot(ghost_rho, ghost_z - zs)
        w = e * area * (1.0 - np.hypot(rho, z - zs) / s_ghost) / delta
        diag[cells] += w
        b[cells] += (e - eps_src) * area * (gf(ghost_rho, ghost_z) - gf(rho, z)) / delta
        return w

    w_out = outer_face(np.s_[-1, :], eps_col, 2.0 * math.pi * grid.rho_max * dz,
                       rc[-1], zc, rc[-1] + drho, zc, drho)
    w_lo = outer_face(np.s_[:, 0], eps_col[0], area_z, rc, zc[0], rc, zc[0] - dz, dz)
    w_hi = outer_face(np.s_[:, -1], eps_col[-1], area_z, rc, zc[-1], rc, zc[-1] + dz, dz)

    # cell (i, j) is unknown i n_z + j; the z coupling is 0 where a column ends
    off_z = -np.pad(w_z, ((0, 0), (0, 1))).ravel()[:-1]
    off_r = -w_r.ravel()
    M = sp.diags([off_r, off_z, diag.ravel(), off_z, off_r], [-n_z, -1, 0, 1, n_z],
                 shape=(diag.size, diag.size), format="csr")
    rhs = b.ravel()

    # the separable part: w_r = 2 pi (i + 1) D_z and w_z = D_r e_z / dz, and
    # each outer edge's term divided by its D replaced by its median
    d_r, d_z = area_z, eps_col * dz
    lam, x_r = _pencil(2.0 * math.pi * np.arange(1, n_rho), d_r,
                       0.0, np.median(w_out / d_z))
    mu, x_z = _pencil(e_z / dz, d_z, np.median(w_lo / d_r), np.median(w_hi / d_r))
    sums = lam[:, np.newaxis] + mu

    def separable_inverse(v):
        w = x_r.T @ v.reshape(n_rho, n_z) @ x_z
        return (x_r @ (w / sums) @ x_z.T).ravel()

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    u, _ = spla.cg(M, rhs, rtol=1e-12, atol=0.0, maxiter=_CG_MAXITER, callback=count,
                   M=spla.LinearOperator(M.shape, matvec=separable_inverse, dtype=float))
    res = float(np.linalg.norm(M @ u - rhs) / max(np.linalg.norm(rhs), 1e-300))
    if not np.all(np.isfinite(u)) or res > _TOL:
        raise SolverError(
            f"FD solve: conjugate gradients stopped after {iterations} iterations "
            f"at relative residual {res:.3e}, above the tolerance {_TOL:.3e}")

    return FDSolution(grid=grid, g1=u.reshape(n_rho, n_z), eps_cell=eps_cell,
                      eps_src=eps_src, src_z=zs, axis_offset=(src.x, src.y),
                      residual=res)
