"""Validation suites behind `greens-coulomb validate`.

Each check returns a CheckResult; suites bundle them. These checks are the
only implementation of acceptance criteria 1-7: `tests/test_acceptance.py`
runs them and asserts that they pass, so CLI validation and pytest cannot
drift apart. Degeneration tolerances (the 10% asymptotic window, the
[0.9, 1.1] band) are implementation choices recorded here, not literature
values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

import numpy as np
from scipy.constants import elementary_charge, epsilon_0

from . import analytic, born, cavity, interactions, kernels, poisson_fd, screening
from .core import (
    PERFECT_CONDUCTOR,
    Charge,
    FreeSpace,
    GreensValue,
    HalfSpace,
    PlateWithHole,
    Point3,
    QuadratureSpec,
    ThreeLayerCavity,
)
from .quadrature import hankel_integral, sine_integral

PC = PERFECT_CONDUCTOR
QE = elementary_charge


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    target: float
    tol: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"{status} {self.name}: measured={self.measured:.6e} "
               f"target={self.target:.6e} tol={self.tol:.1e}")
        return out + (f" ({self.note})" if self.note else "")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _rng(seed: int = 20240817) -> random.Random:
    return random.Random(seed)


def _rand_point(rng, lo=0.1, hi=3.0, signed=False) -> Point3:
    z = rng.uniform(lo, hi)
    if signed and rng.random() < 0.5:
        z = -z
    return Point3(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), z)


def _xyz(rng, zlo=0.1, zhi=3.0) -> Point3:
    """A point drawn in x, y, z order (`_rand_point` draws z first)."""
    return Point3(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(zlo, zhi))


# ---------------------------------------------------------------------------
# limits suite (criterion 2: plate-with-hole pinch points)
# ---------------------------------------------------------------------------

def check_plate_hole_r_to_zero() -> CheckResult:
    # two independent samples: 100 draws from seed 1, 100 pairs from seed 12345
    rng = _rng(1)
    pairs = [(_rand_point(rng), _rand_point(rng)) for _ in range(100)]
    pairs = [(a, b) for a, b in pairs if analytic.distance(a, b) >= 1e-3]
    rng, wanted = _rng(12345), len(pairs) + 100
    while len(pairs) < wanted:
        a, b = _xyz(rng), _xyz(rng)
        if analytic.distance(a, b) >= 1e-3:
            pairs.append((a, b))
    worst = 0.0
    for a, b in pairs:
        R = 1e-6 * min(a.z, b.z)
        got = analytic.plate_hole_g(a, b, R).value
        image = (1.0 / analytic.distance(a, b)
                 - 1.0 / analytic.distance(a, b.mirror_z())) / (4.0 * math.pi)
        worst = max(worst, _rel(got, image))
    return CheckResult("plate_hole_R_to_0_image", worst <= 1e-4, worst, 0.0, 1e-4,
                       f"max rel err over {len(pairs)} same-side pairs")


def check_plate_hole_r_to_zero_opposite() -> CheckResult:
    rng, rng2 = _rng(2), _rng(54321)
    pairs = ([(_rand_point(rng), _rand_point(rng).mirror_z()) for _ in range(100)]
             + [(_xyz(rng2), _xyz(rng2).mirror_z()) for _ in range(100)])
    worst = 0.0
    for a, b in pairs:
        R = 1e-6 * min(a.z, -b.z)
        dm = analytic.distance(a, b)
        worst = max(worst, abs(analytic.plate_hole_g(a, b, R).value) * dm)
    return CheckResult("plate_hole_R_to_0_screens", worst <= 1e-6, worst, 0.0, 1e-6,
                       "max |g| D_minus over 200 opposite-side pairs")


def check_plate_hole_r_to_inf() -> CheckResult:
    rng = _rng(3)
    worst = 0.0
    for _ in range(100):
        a = _rand_point(rng)
        b = _rand_point(rng, signed=True)
        dist = analytic.distance(a, b)
        if dist < 1e-3:
            continue
        R = 1e6 * max(3.0, dist)
        got = analytic.plate_hole_g(a, b, R).value
        worst = max(worst, _rel(got, 1.0 / (4.0 * math.pi * dist)))
    return CheckResult("plate_hole_R_to_inf_free", worst <= 1e-4, worst, 0.0, 1e-4,
                       "max rel err, both sides")


def check_plate_conductor_bc() -> CheckResult:
    rng = _rng(4)
    worst = 0.0
    for _ in range(50):
        src = _rand_point(rng)
        rho = rng.uniform(1.05, 6.0)
        phi = rng.uniform(0, 2 * math.pi)
        p = Point3(rho * math.cos(phi), rho * math.sin(phi), 1e-9)
        free = 1.0 / (4.0 * math.pi * analytic.distance(p, src))
        got = analytic.plate_hole_g(p, src, 1.0).value
        worst = max(worst, abs(got) / free)
    return CheckResult("plate_hole_conductor_bc", worst <= 1e-6, worst, 0.0, 1e-6,
                       "|g|/g_free approaching the plate")


def check_half_space_continuity() -> CheckResult:
    # +-1e-12 straddle: small enough that the field's linear variation across
    # the gap sits far below the tolerance, so only a true jump could fail
    src = Point3(0.3, -0.2, 0.7)
    worst = 0.0
    for eps1, eps2 in ((1.0, 4.0), (2.0, 80.0), (5.0, 1.0)):
        for rho in (0.4, 1.3):
            above = analytic.half_space_g(Point3(rho, 0.1, 1e-12), src, eps1, eps2).value
            below = analytic.half_space_g(Point3(rho, 0.1, -1e-12), src, eps1, eps2).value
            worst = max(worst, _rel(above, below))
    return CheckResult("half_space_continuity", worst <= 1e-8, worst, 0.0, 1e-8)


def check_half_space_flux_jump() -> CheckResult:
    """eps1 dg/dz just above = eps2 dg/dz just below (normal D continuity)."""
    src = Point3(0.0, 0.0, 0.9)
    eps1, eps2 = 2.0, 7.0
    h = 1e-5
    worst = 0.0
    for rho in (0.3, 0.8, 1.7):
        p_up = [analytic.half_space_g(Point3(rho, 0.0, z), src, eps1, eps2).value
                for z in (h, 2 * h)]
        p_dn = [analytic.half_space_g(Point3(rho, 0.0, -z), src, eps1, eps2).value
                for z in (h, 2 * h)]
        g0 = analytic.half_space_g(Point3(rho, 0.0, 0.0), src, eps1, eps2).value
        d_up = (4.0 * p_up[0] - p_up[1] - 3.0 * g0) / (2.0 * h)
        d_dn = -(4.0 * p_dn[0] - p_dn[1] - 3.0 * g0) / (2.0 * h)
        worst = max(worst, _rel(eps1 * d_up, eps2 * d_dn))
    return CheckResult("half_space_D_normal_jump", worst <= 1e-4, worst, 0.0, 1e-4)


def check_onaxis_limit() -> CheckResult:
    R = 1.0
    target = -QE * QE / (8.0 * math.pi ** 2 * epsilon_0 * R)
    z1, z2 = 1e-3 * R, 1e-4 * R
    u1, u2 = (interactions.self_energy(PlateWithHole(R), Charge(QE, Point3(0, 0, z))).energy
              for z in (z1, z2))
    extrap = u2 + (u2 - u1) * z2 ** 2 / (z1 ** 2 - z2 ** 2)
    err = _rel(extrap, target)
    return CheckResult("plate_hole_onaxis_z_to_0", err <= 1e-4, extrap, target, 1e-4,
                       "Richardson extrapolation in z^2")


# ---------------------------------------------------------------------------
# quadrature suite (criterion 4: screened bulk)
# ---------------------------------------------------------------------------

def check_hankel_laplace() -> CheckResult:
    got = hankel_integral(lambda k: np.exp(-k), 1.0).value
    return CheckResult("hankel_exp_kernel", _rel(got, 1 / math.sqrt(2)) <= 1e-10,
                       got, 1 / math.sqrt(2), 1e-10)


def check_hankel_closure() -> CheckResult:
    got = hankel_integral(lambda k: np.ones_like(k), 2.0).value
    return CheckResult("hankel_closure", _rel(got, 0.5) <= 1e-10, got, 0.5, 1e-10)


def check_hankel_geometric() -> CheckResult:
    d = 1.0
    got = hankel_integral(lambda k: np.exp(-2 * k * d) / (1 - 0.25 * np.exp(-2 * k * d)),
                          1.0, k_scale=0.5).value
    n = np.arange(1, 200)
    oracle = float(np.sum(0.25 ** (n - 1) / np.sqrt(4 * n ** 2 * d * d + 1.0)))
    return CheckResult("hankel_geometric_series", abs(got - oracle) <= 1e-10,
                       got, oracle, 1e-10, "term-by-term image sum oracle")


def check_sine_dirichlet() -> CheckResult:
    got = sine_integral(lambda k: 1.0 / np.maximum(k, 1e-300), 2.0).value
    return CheckResult("sine_dirichlet", _rel(got, math.pi / 2) <= 1e-10,
                       got, math.pi / 2, 1e-10)


def check_screened_grid() -> CheckResult:
    r = 2e-10
    params = [screening.DrudeStatic(omega_p=wp, omega_p_bound=ratio * 4e15,
                                    omega_0=4e15, beta=beta)
              for wp in np.linspace(1e15, 2e16, 5)
              for ratio in np.linspace(0.0, 3.0, 5)
              for beta in np.linspace(8e5, 2e6, 5)]
    params.append(screening.DrudeStatic(omega_p=9e15, omega_p_bound=7e15,
                                        omega_0=4e15, beta=1e6))
    worst = max(_rel(screening.screened_potential_numeric(r, QE, QE, p).value,
                     screening.screened_potential(r, QE, QE, p)) for p in params)
    return CheckResult("screened_closed_vs_quadrature", worst <= 1e-8, worst, 0.0,
                       1e-8, f"worst rel err over {len(params)} parameter sets")


def check_thomas_fermi() -> CheckResult:
    p = screening.DrudeStatic(omega_p=7.3e15, omega_p_bound=0.0, omega_0=1e15,
                              beta=1.1e6)
    target = p.omega_p / p.beta
    return CheckResult("screened_thomas_fermi_k_s", p.k_s == target, p.k_s, target,
                       0.0, "exact without bound charge")


# ---------------------------------------------------------------------------
# oracle (finite-difference) suite (criterion 6)
# ---------------------------------------------------------------------------

_FD_H = 1.0
_FD_EXACT = -(1.0 / (4.0 * math.pi)) * (3.0 / 5.0) / (2.0 * _FD_H)


@lru_cache(maxsize=None)
def _half_space_fd(n: int) -> poisson_fd.FDSolution:
    """HalfSpace(1, 4) with the source at height 1 on the aligned n x n grid.

    Four checks read these grids; the cache solves each one once per process.
    """
    grid = poisson_fd.aligned_grid(n, _FD_H, (0.0,), 20 * _FD_H, 40 * _FD_H)
    return poisson_fd.solve_scattering_g1(HalfSpace(1.0, 4.0), Point3(0, 0, _FD_H), grid)


def check_fd_half_space() -> CheckResult:
    got = _half_space_fd(256).source_g1()
    err = _rel(got, _FD_EXACT)
    return CheckResult("fd_half_space_g1_at_source", err <= 0.02,
                       got, _FD_EXACT, 0.02, "256x256 grid")


def check_fd_convergence() -> CheckResult:
    errs = [abs(_half_space_fd(n).source_g1() - _FD_EXACT) for n in (64, 128, 256)]
    ratio = min(errs[0] / errs[1], errs[1] / errs[2])
    return CheckResult("fd_order_h2_convergence", ratio >= 3.0, ratio, 4.0, 1.0,
                       "error ratio per halving of h (>= 3 required)")


@lru_cache(maxsize=None)
def _cavity_fd(eps1: float, eps3: float, z0: float) -> poisson_fd.FDSolution:
    """ThreeLayerCavity(eps1, 1, eps3, d = 1) with the source at height z0 on
    the aligned 256 x 256 grid, solved once per process."""
    d = 1.0
    grid = poisson_fd.aligned_grid(256, z0, (-d / 2, d / 2), 3 * d, 8 * d)
    return poisson_fd.solve_scattering_g1(ThreeLayerCavity(eps1, 1.0, eps3, d),
                                          Point3(0, 0, z0), grid)


def check_fd_cavity_midpoint() -> CheckResult:
    d = 1.0
    got = _cavity_fd(8.0, 8.0, 0.0).g_total_at(Point3(d, 0, 0))
    ref = cavity.cavity_g_midpoint(d, d, 8.0, 1.0, 8.0).value
    err = _rel(got, ref)
    return CheckResult("fd_cavity_midpoint", err <= 0.02, got, ref, 0.02)


def check_fd_cavity_general() -> CheckResult:
    d = 1.0
    got = _cavity_fd(4.0, 8.0, 0.2 * d).g_total_at(Point3(0.5 * d, 0, 0.2 * d))
    ref = cavity.cavity_g_general(0.2 * d, 0.2 * d, 0.5 * d, d, 4.0, 1.0, 8.0).value
    err = _rel(got, ref)
    return CheckResult("fd_cavity_general_z", err <= 0.02, got, ref, 0.02)


def check_fd_gauss_flux() -> CheckResult:
    flux = _half_space_fd(128).gauss_flux(24)
    return CheckResult("fd_gauss_law_flux", abs(flux - 1.0) <= 0.01, flux, 1.0, 0.01)


def check_fd_scaling() -> CheckResult:
    g1 = _half_space_fd(64).g1
    g2 = poisson_fd.solve_scattering_g1(
        HalfSpace(3.0, 12.0), Point3(0, 0, _FD_H),
        poisson_fd.aligned_grid(64, _FD_H, (0.0,), 20 * _FD_H, 40 * _FD_H)).g1
    err = float(np.max(np.abs(3.0 * g2 - g1)) / np.max(np.abs(g1)))
    return CheckResult("fd_eps_scaling", err <= 1e-10, err, 0.0, 1e-10,
                       "g(c eps) = g(eps)/c")


# ---------------------------------------------------------------------------
# cross-route checks used by `validate all`
# ---------------------------------------------------------------------------

# criterion 3: wall/host combinations spanning r1 r3 from -0.9 to +1
_GAP_LAYERS = ((PC, 1.0, PC),        # r1 r3 = +1
               (4.0, 1.0, 8.0),      # +0.47
               (19.0, 1.0, PC),      # +0.9
               (1.0, 1.0, 1.0),      # 0
               (1.0, 19.0, PC),      # -0.9
               (1.0, 4.0, PC),       # -0.6
               (1.0, 4.0, 1.0))      # +0.36


def check_cavity_triple() -> CheckResult:
    d = 1.0
    worst = 0.0
    spec = QuadratureSpec(rel_tol=1e-11)
    for rho_over_d in (0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
        rho = rho_over_d * d
        for eps1, eps2, eps3 in _GAP_LAYERS:
            co = cavity.reflection_coeffs(eps1, eps2, eps3)
            q = abs(co.r1 * co.r3)
            n_max = 400
            if 0.0 < q < 1.0:
                n_max = max(80, int(math.log(1e-13) / math.log(q)) + 1)
            gs = cavity.cavity_g_series(rho, d, co, eps2, n_max=n_max)
            gq = cavity.cavity_g_midpoint(rho, d, eps1, eps2, eps3, spec)
            budget = max(gs.abs_err + gq.abs_err, 1e-9 / rho)
            worst = max(worst, abs(gs.value - gq.value) / budget)
    return CheckResult("cavity_series_vs_quadrature", worst <= 1.0, worst, 0.0, 1.0,
                       "worst |diff| / combined budget (<= 1)")


def check_cavity_asymptotic() -> CheckResult:
    d = 1.0
    ratios = []
    for rho_over_d in (5.0, 6.0, 7.0, 8.0):
        ga = cavity.cavity_asymptotic(rho_over_d * d, d, 1.0).value
        gq = cavity.cavity_g_midpoint(rho_over_d * d, d, PC, 1.0, PC).value
        ratios.append(ga / gq)
    ok = abs(ratios[0] - 1.0) <= 0.10 and all(
        abs(r2 - 1.0) < abs(r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:]))
    return CheckResult("cavity_asymptotic_window", ok, ratios[0], 1.0, 0.10,
                       "ratio at rho=5d; monotone approach beyond")


def check_cavity_slope() -> CheckResult:
    d = 1.0
    rs = np.linspace(3.0, 8.0, 11)
    vals = np.array([cavity.cavity_g_midpoint(r, d, PC, 1.0, PC).value for r in rs])
    # remove the known sqrt(rho) prefactor so the fit isolates the decay rate
    slope = float(np.polyfit(rs, np.log(vals * np.sqrt(rs)), 1)[0])
    err = _rel(slope, -math.pi / d)
    return CheckResult("cavity_exponential_slope", err <= 0.02, slope,
                       -math.pi / d, 0.02)


# criterion 5: a dilute half-space z < 0 with eta alpha / eps0 = 1e-3, probed at h.
# The program integrates the half-space in closed form; these checks run the
# Born octree on half-cube shells instead, so they do not test the formula
# against itself.
_BORN_H = 1e-9
_BORN_X = 1e-3
_BORN_ALPHA = 1e-30 * epsilon_0
_BORN_ETA = _BORN_X * epsilon_0 / _BORN_ALPHA
_BORN_REL_TOL = 1e-6


def _half_shells(field_pts, rel_tail: float):
    """Half-cube shells covering z < 0 out to a truncation radius.

    The integrand falls off like 1/s^4 with s the distance to the nearer
    field point, so the exterior contributes ~ 2 pi / S relative to the
    pi/h total; S is chosen to push that below rel_tail.
    """
    h = min(abs(p.z) for p in field_pts)
    span = max(max(abs(p.x), abs(p.y)) for p in field_pts)
    L0 = 2.0 * (h + span)
    S = 4.0 * h / rel_tail
    boxes = [born.Box(-L0, L0, -L0, L0, -L0, 0.0)]
    L = L0
    while L < S:
        L2 = 2.0 * L
        boxes.append(born.Box(-L2, L2, -L2, L2, -L2, -L))
        boxes.append(born.Box(-L2, -L, -L2, L2, -L, 0.0))
        boxes.append(born.Box(L, L2, -L2, L2, -L, 0.0))
        boxes.append(born.Box(-L, L, -L2, -L, -L, 0.0))
        boxes.append(born.Box(-L, L, L, L2, -L, 0.0))
        L = L2
    tail_bound = 2.0 * math.pi / L  # bound on the exterior of int d^3r / s^4
    return boxes, tail_bound


def half_space_octree(r1: Point3, r2: Point3, alpha: np.ndarray,
                      rel_tol: float) -> GreensValue:
    """int over z < 0 of grad_x(1/|r1 - x|) . alpha . grad_x(1/|r2 - x|) d^3x by the
    Born octree on half-cube shells; abs_err adds the truncated tail's bound."""
    rv, rpv = np.array([r1.x, r1.y, r1.z]), np.array([r2.x, r2.y, r2.z])
    boxes, tail = _half_shells((r1, r2), 0.05 * rel_tol)
    alpha_scale = float(np.max(np.abs(alpha)))
    # scale_hint: the dominant pi/h magnitude of the isotropic integral
    hint = alpha_scale * math.pi / min(r1.z, r2.z)
    val, err = born._adaptive_boxes(
        lambda pts, w: kernels.alpha_chain_sum(pts, w, rv, rpv, alpha),
        boxes, rel_tol, scale_hint=hint)
    return GreensValue(val, err + alpha_scale * tail)


def born_g1_prefactor(eta: float, eps_bg: float) -> float:
    """g1 per unit half-space integral: -eta / (eps0 (4 pi eps_bg)^2)."""
    return -eta / (epsilon_0 * (4.0 * math.pi * eps_bg) ** 2)


@lru_cache(maxsize=None)
def _born_charge_energy() -> float:
    p = Point3(0, 0, _BORN_H)
    integral = half_space_octree(p, p, _BORN_ALPHA * np.eye(3), _BORN_REL_TOL).value
    return -QE ** 2 * _BORN_ETA * integral / (32 * math.pi ** 2 * epsilon_0 ** 2)


def check_born_half_space() -> CheckResult:
    p = Point3(0, 0, _BORN_H)
    measured = half_space_octree(p, p, np.eye(3), _BORN_REL_TOL).value
    target = math.pi / _BORN_H
    err = _rel(measured, target)
    return CheckResult("born_half_space_volume_identity", err <= 1e-4,
                       measured, target, 1e-4, "int d^3r / s^4 = pi/h")


def check_born_closed_form() -> CheckResult:
    u_born = _born_charge_energy()
    target = -QE ** 2 * _BORN_ETA * _BORN_ALPHA / (32 * math.pi * epsilon_0 ** 2 * _BORN_H)
    return CheckResult("born_half_space_closed_form", _rel(u_born, target) <= 1e-4,
                       u_born, target, 1e-4, "-q^2 eta alpha / (32 pi eps0^2 h)")


def check_born_vs_linearized() -> CheckResult:
    u_born = _born_charge_energy()
    u_image = interactions.self_energy(HalfSpace(1.0, 1.0 + _BORN_X),
                                       Charge(QE, Point3(0, 0, _BORN_H))).energy
    err = _rel(u_born, u_image)
    return CheckResult("born_vs_image_linearized", err <= 1e-3, u_born, u_image,
                       1e-3, "eta alpha/eps0 = 1e-3")


def check_born_anisotropic_pair() -> CheckResult:
    # a tensor with every entry nonzero, in a background of eps 2
    alpha = _BORN_ALPHA * np.array([[2.0, 0.3, 0.7], [0.3, 1.0, -0.5], [0.7, -0.5, 1.5]])
    body = born.DiluteBody(alpha=born.PolarizabilityTensor.from_matrix(alpha),
                           half_space_eta=_BORN_ETA, background_eps=2.0)
    a, b = Point3(0.0, 0.0, _BORN_H), Point3(0.5 * _BORN_H, -0.2 * _BORN_H, 1.4 * _BORN_H)
    got = born.born_scattering_g1(a, b, body)
    octree = half_space_octree(a, b, alpha, _BORN_REL_TOL)
    pref = born_g1_prefactor(_BORN_ETA, 2.0)
    ratio = abs(got.value - pref * octree.value) / (got.abs_err + abs(pref) * octree.abs_err)
    return CheckResult("born_half_space_anisotropic_pair", ratio <= 1.0, ratio, 0.0, 1.0,
                       "|g1 - octree| / combined abs_err (<= 1); xz, yz != 0, eps_bg = 2")


def check_local_field_80() -> CheckResult:
    got = interactions.local_field_factor(80.0)
    return CheckResult("local_field_factor_80", abs(got - 1.4907) <= 5e-4,
                       got, 1.4907, 5e-4)


# ---------------------------------------------------------------------------
# criterion 7: reciprocity, forces, bilinearity, free-space limit
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reciprocity():
    """(configurations, worst closed-form rel err, worst quadrature diff/budget)."""
    rng = _rng(777)
    n_checked = 0
    worst_closed = 0.0
    worst_quad = 0.0

    def closed(g1, g2):
        nonlocal worst_closed, n_checked
        worst_closed = max(worst_closed, abs(g1 - g2) / max(abs(g1), 1e-300))
        n_checked += 1

    # closed forms: free space, half-space, aperture plate
    for _ in range(150):
        a, b = _xyz(rng, -3, 3), _xyz(rng, -3, 3)
        if analytic.distance(a, b) >= 1e-3:
            closed(analytic.free_space_g(a, b, 2.0).value,
                   analytic.free_space_g(b, a, 2.0).value)
    for _ in range(250):
        a, b = _xyz(rng, 0.05, 3), _xyz(rng, 0.05, 3)
        if analytic.distance(a, b) >= 1e-3:
            closed(analytic.half_space_g(a, b, 2.0, 9.0).value,
                   analytic.half_space_g(b, a, 2.0, 9.0).value)
    for _ in range(300):
        a, b = _xyz(rng, 0.05, 2.5), _xyz(rng, 0.05, 2.5)
        if rng.random() < 0.5:
            b = b.mirror_z()
        if analytic.distance(a, b) >= 1e-3:
            closed(analytic.plate_hole_g(a, b, 1.0).value,
                   analytic.plate_hole_g(b, a, 1.0).value)
    # screened bulk pair energy, points in units of 1e-10 m
    bulk = screening.NonlocalBulk(screening.DrudeStatic(8e15, 9e15, 4e15, 9e5))
    for _ in range(100):
        a, b = _xyz(rng, -3, 3), _xyz(rng, -3, 3)
        if analytic.distance(a, b) >= 1e-3:
            qa = Charge(QE, Point3(1e-10 * a.x, 1e-10 * a.y, 1e-10 * a.z))
            qb = Charge(-2 * QE, Point3(1e-10 * b.x, 1e-10 * b.y, 1e-10 * b.z))
            closed(interactions.pair_energy(bulk, qa, qb).energy,
                   interactions.pair_energy(bulk, qb, qa).energy)

    # quadrature route: within the combined abs_err
    d = 1.0
    for _ in range(100):
        z, z0 = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
        rho = rng.uniform(0.1, 3.0)
        ga = cavity.cavity_g_general(z, z0, rho, d, 4.0, 1.0, PC)
        gb = cavity.cavity_g_general(z0, z, rho, d, 4.0, 1.0, PC)
        budget = ga.abs_err + gb.abs_err + 1e-14 * abs(ga.value)
        worst_quad = max(worst_quad, abs(ga.value - gb.value) / budget)
        n_checked += 1

    # Born scattering with a compact body
    alpha = born.PolarizabilityTensor(2e-40, 1e-40, 3e-40, 0.2e-40)
    body = born.DiluteBody(alpha=alpha, regions=(
        born.DensityRegion(born.Box(-1.0, 1.0, -1.0, 1.0, -2.0, -1.0), 1e3),))
    spec = QuadratureSpec(rel_tol=1e-7)
    for _ in range(100):
        a, b = _xyz(rng, 0.5, 3), _xyz(rng, 0.5, 3)
        if analytic.distance(a, b) >= 1e-3:
            closed(born.born_scattering_g1(a, b, body, spec).value,
                   born.born_scattering_g1(b, a, body, spec).value)
    return n_checked, worst_closed, worst_quad


def check_reciprocity_closed() -> CheckResult:
    n_checked, worst, _ = _reciprocity()
    return CheckResult("reciprocity_closed_forms", worst <= 1e-12 and n_checked >= 990,
                       worst, 0.0, 1e-12,
                       f"worst rel err; {n_checked} configurations in all (>= 990)")


def check_reciprocity_quadrature() -> CheckResult:
    worst = _reciprocity()[2]
    return CheckResult("reciprocity_gap_quadrature", worst <= 1.0, worst, 0.0, 1.0,
                       "worst |diff| / combined abs_err (<= 1)")


def _stencil(fn, p: Point3, h: float, axis: int) -> float:
    """Five-point central difference of fn along one axis."""
    def at(c):
        d = [0.0, 0.0, 0.0]
        d[axis] = c
        return fn(p.shifted(*d))
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def _force_error(force: np.ndarray, energy, p: Point3, h: float, axes=(0, 1, 2)) -> float:
    """|force + the stencil gradient of energy at p| / |force|, the stencil
    along `axes` only (the other components of the gradient taken as 0)."""
    grad = np.zeros(3)
    for axis in axes:
        grad[axis] = _stencil(energy, p, h, axis)
    return float(np.linalg.norm(force + grad) / np.linalg.norm(force))


def check_force_gradient() -> CheckResult:
    # an anisotropic tensor, every entry nonzero, on a box and on a half-space
    alpha = born.PolarizabilityTensor.from_matrix(
        1e-40 * np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]]))
    box = born.DiluteBody(alpha, regions=(
        born.DensityRegion(born.Box(-1.0, 1.0, -1.0, 1.0, -2.0, -1.0), 1e27),))
    half = born.DiluteBody(alpha, half_space_eta=1e27, background_eps=2.0)
    pairs = (
        (FreeSpace(2.0), Charge(QE, Point3(0.3, -0.2, 1.1)),
         Charge(-QE, Point3(-0.4, 0.1, 0.6)), 1e-5),
        (HalfSpace(2.0, 30.0), Charge(QE, Point3(0.3e-9, -0.2e-9, 1.1e-9)),
         Charge(-2 * QE, Point3(-0.4e-9, 0.1e-9, 0.6e-9)), 1e-4 * 1e-9),
        (ThreeLayerCavity(PC, 1.0, PC, 1.0), Charge(QE, Point3(0.4, 0.0, 0.1)),
         Charge(QE, Point3(0.0, 0.0, -0.1)), 1e-5),
        (PlateWithHole(1.0), Charge(QE, Point3(0.5, 0.0, 0.7)),
         Charge(QE, Point3(-0.2, 0.1, -0.6)), 1e-5),
        (PlateWithHole(0.0), Charge(QE, Point3(0.5, 0.0, -0.7)),
         Charge(QE, Point3(-0.2, 0.1, -0.4)), 1e-5),
        (screening.NonlocalBulk(screening.DrudeStatic(1.2e16, 0.0, 5e15, 1.1e6)),
         Charge(QE, Point3(1e-10, 2e-10, -1e-10)),
         Charge(QE, Point3(-1e-10, 0.0, 1e-10)), 1e-14),
    )
    # a Born body's pair force is mostly its direct Coulomb term, which the
    # free-space case checks; here it is subtracted so that the rest shows
    born_pairs = (
        (box, Charge(QE, Point3(0.4, -0.3, -0.5)), Charge(-QE, Point3(-0.6, 0.2, -0.3))),
        (half, Charge(QE, Point3(0.3, -0.2, 0.5)), Charge(-QE, Point3(-0.4, 0.1, 0.8))),
    )
    # self-forces; the aperture's self-energy is known on its axis only
    selves = (
        (HalfSpace(1.0, 9.0), Point3(0, 0, 1e-9), 1e-14, (2,)),
        (PlateWithHole(1.0), Point3(0, 0, 0.3), 1e-5, (2,)),
        (PlateWithHole(1.0), Point3(0, 0, -1.7), 1e-5, (2,)),
        (PlateWithHole(0.0), Point3(0.2, 0.1, -0.5), 1e-5, (0, 1, 2)),
        (box, Point3(0.4, -0.3, -0.5), 1e-5, (0, 1, 2)),
        (half, Point3(0.3, -0.2, 0.5), 1e-5, (0, 1, 2)),
    )
    worst = 0.0
    for geom, a, b, h in pairs:
        def u_pair(p, geom=geom, a=a, b=b):
            return interactions.pair_energy(geom, Charge(a.q, p), b).energy

        worst = max(worst, _force_error(interactions.force_on_A(geom, a, b).force, u_pair,
                                        a.position, h))
    for geom, a, b in born_pairs:
        free = FreeSpace(geom.background_eps)

        def u_scattered(p, geom=geom, free=free, a=a, b=b):
            return (interactions.pair_energy(geom, Charge(a.q, p), b).energy
                    - interactions.pair_energy(free, Charge(a.q, p), b).energy)

        force = (interactions.force_on_A(geom, a, b).force
                 - interactions.force_on_A(free, a, b).force)
        worst = max(worst, _force_error(force, u_scattered, a.position, 1e-5))
    for geom, p, h, axes in selves:
        def u_self(q, geom=geom):
            return interactions.self_energy(geom, Charge(QE, q)).energy

        worst = max(worst, _force_error(interactions.force_on_A(geom, Charge(QE, p)).force,
                                        u_self, p, h, axes))
    return CheckResult("force_vs_energy_stencil", worst <= 1e-4, float(worst), 0.0, 1e-4,
                       f"worst rel err over {len(pairs) + len(born_pairs)} pair and "
                       f"{len(selves)} self-forces, every geometry")


def check_action_reaction() -> CheckResult:
    rng = _rng(31)

    def pos():
        return Point3(*(rng.uniform(-2, 2) * 1e-10 for _ in range(3)))

    worst = 0.0
    for _ in range(20):
        a = Charge(QE * rng.uniform(0.5, 2), pos())
        b = Charge(-QE * rng.uniform(0.5, 2), pos())
        if analytic.distance(a.position, b.position) < 1e-11:
            continue
        for geom in (FreeSpace(3.0),
                     screening.NonlocalBulk(screening.DrudeStatic(8e15, 9e15, 4e15, 9e5))):
            fa = interactions.force_on_A(geom, a, b).force
            fb = interactions.force_on_A(geom, b, a).force
            worst = max(worst, float(np.linalg.norm(fa + fb) / np.linalg.norm(fa)))
    return CheckResult("force_action_reaction", worst <= 1e-10, worst, 0.0, 1e-10,
                       "|F_A + F_B| / |F_A|, uniform and screened media")


def check_bilinearity() -> CheckResult:
    geom = ThreeLayerCavity(4.0, 1.0, 8.0, 1.0)
    a = Charge(QE, Point3(0.5, 0.0, 0.2))
    b = Charge(-QE, Point3(0.0, 0.0, -0.1))
    base = interactions.pair_energy(geom, a, b).energy
    u_self = interactions.self_energy(HalfSpace(1.0, 4.0),
                                      Charge(QE, Point3(0, 0, 1e-9))).energy
    pairs = (
        (interactions.pair_energy(geom, Charge(2 * a.q, a.position), b).energy,
         2.0 * base),
        (interactions.pair_energy(geom, a, Charge(4 * b.q, b.position)).energy,
         4.0 * base),
        (interactions.pair_energy(geom, Charge(0.5 * a.q, a.position),
                                  Charge(2 * b.q, b.position)).energy, base),
        (interactions.self_energy(HalfSpace(1.0, 4.0),
                                  Charge(2 * QE, Point3(0, 0, 1e-9))).energy,
         4.0 * u_self),
    )
    worst = max(_rel(got, want) for got, want in pairs)
    return CheckResult("energy_bilinearity", worst == 0.0, worst, 0.0, 0.0,
                       "scaled charges scale U exactly")


def check_ratio_distant_interfaces() -> CheckResult:
    # every geometry's ratio_to_free tends to 1 as interfaces recede
    a = Charge(QE, Point3(0.0, 0.0, 0.35))
    b = Charge(-QE, Point3(0.4, 0.0, -0.2))
    sep = analytic.distance(a.position, b.position)
    ratios = (
        interactions.pair_energy(
            HalfSpace(1.0, 40.0), Charge(QE, a.position.shifted(dz=1e5)),
            Charge(-QE, Point3(0.4, 0.0, 1e5 + 0.2))).ratio_to_free,
        interactions.pair_energy(
            ThreeLayerCavity(PC, 1.0, PC, 1e6 * sep), a, b).ratio_to_free,
        interactions.pair_energy(PlateWithHole(1e7 * sep), a, b).ratio_to_free,
        interactions.pair_energy(
            screening.NonlocalBulk(screening.DrudeStatic(1e3, 0.0, 1e15, 1e6)),
            Charge(QE, Point3(0, 0, 0)), Charge(-QE, Point3(0, 0, 1e-10))).ratio_to_free,
    )
    worst = max(abs(r - 1.0) for r in ratios)
    return CheckResult("ratio_to_free_distant_interfaces", worst <= 1e-4, worst, 0.0,
                       1e-4, "worst |ratio - 1|: half-space, gap, aperture, screened")


SUITES: Dict[str, List[Callable[[], CheckResult]]] = {
    "limits": [
        check_plate_hole_r_to_zero,
        check_plate_hole_r_to_zero_opposite,
        check_plate_hole_r_to_inf,
        check_plate_conductor_bc,
        check_half_space_continuity,
        check_half_space_flux_jump,
        check_onaxis_limit,
    ],
    "quadrature": [
        check_hankel_laplace,
        check_hankel_closure,
        check_hankel_geometric,
        check_sine_dirichlet,
        check_screened_grid,
        check_thomas_fermi,
    ],
    "oracle": [
        check_fd_half_space,
        check_fd_convergence,
        check_fd_cavity_midpoint,
        check_fd_cavity_general,
        check_fd_gauss_flux,
        check_fd_scaling,
    ],
}
SUITES["all"] = SUITES["limits"] + SUITES["quadrature"] + [
    check_cavity_triple,
    check_cavity_asymptotic,
    check_cavity_slope,
    check_born_half_space,
    check_born_closed_form,
    check_born_vs_linearized,
    check_born_anisotropic_pair,
    check_local_field_80,
    check_reciprocity_closed,
    check_reciprocity_quadrature,
    check_force_gradient,
    check_action_reaction,
    check_bilinearity,
    check_ratio_distant_interfaces,
] + SUITES["oracle"]


def run_suite(name: str) -> List[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [c() for c in SUITES[name]]
