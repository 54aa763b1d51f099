"""Validation suites behind `greens-coulomb validate`.

Each check returns a CheckResult; suites bundle them. These checks are the
only implementation of acceptance criteria 1-7: `tests/test_acceptance.py`
runs them and asserts that they pass, so CLI validation and pytest cannot
drift apart. Degeneration tolerances (the 10% asymptotic window, the
[0.9, 1.1] band) are implementation choices recorded here, not literature
values.

The arbiters, methods that no route of the program takes, live here too
(`cavity_g_series`, `cavity_asymptotic`, `cavity_asymptotic_force`,
`screened_potential_numeric` with its `sine_integral`,
`charge_molecule_potential`, `box_octree`, `half_space_octree`). The CLI
imports this module for `validate` alone.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import analytic, born, cavity, interactions, kernels, screening
from .core import (
    DEFAULT_QUADRATURE,
    ELEMENTARY_CHARGE,
    EPSILON_0,
    PERFECT_CONDUCTOR,
    Charge,
    CoincidentPointsError,
    CoulombError,
    DomainError,
    FreeSpace,
    Geometry,
    HalfSpace,
    OutOfRegionError,
    PlateWithHole,
    Point3,
    QuadratureSpec,
    ThreeLayerCavity,
    UnsupportedGeometryError,
    ValueWithError,
    finite_eps,
    is_conductor,
)
from .quadrature import (_integrate_panels, _oscillatory_edges, euler_limit,
                         hankel_integral)

if TYPE_CHECKING:
    from .poisson_fd import FDSolution

PC = PERFECT_CONDUCTOR
QE = ELEMENTARY_CHARGE


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


def _point(rng, zlo: float, zhi: float, mirror: bool = False, scale: float = 1.0) -> Point3:
    """x and y uniform in [-2, 2], then z in [zlo, zhi], its sign flipped with
    probability 1/2 where `mirror`; all times `scale`."""
    x, y, z = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(zlo, zhi)
    if mirror and rng.random() < 0.5:
        z = -z
    return Point3(scale * x, scale * y, scale * z)


# ---------------------------------------------------------------------------
# limits suite (criterion 2: plate-with-hole pinch points)
# ---------------------------------------------------------------------------

def check_plate_hole_r_to_zero() -> CheckResult:
    pairs = [(_point(rng, 0.1, 3.0), _point(rng, 0.1, 3.0))
             for rng in (random.Random(1), random.Random(12345)) for _ in range(100)]
    pairs = [(a, b) for a, b in pairs if analytic.distance(a, b) >= 1e-3]
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
    pairs = [(_point(rng, 0.1, 3.0), _point(rng, 0.1, 3.0).mirror_z())
             for rng in (random.Random(2), random.Random(54321)) for _ in range(100)]
    worst = 0.0
    for a, b in pairs:
        R = 1e-6 * min(a.z, -b.z)
        dm = analytic.distance(a, b)
        worst = max(worst, abs(analytic.plate_hole_g(a, b, R).value) * dm)
    return CheckResult("plate_hole_R_to_0_screens", worst <= 1e-6, worst, 0.0, 1e-6,
                       "max |g| D_minus over 200 opposite-side pairs")


def check_plate_hole_r_to_inf() -> CheckResult:
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        a = _point(rng, 0.1, 3.0)
        b = _point(rng, 0.1, 3.0, mirror=True)
        dist = analytic.distance(a, b)
        if dist < 1e-3:
            continue
        R = 1e6 * max(3.0, dist)
        got = analytic.plate_hole_g(a, b, R).value
        worst = max(worst, _rel(got, 1.0 / (4.0 * math.pi * dist)))
    return CheckResult("plate_hole_R_to_inf_free", worst <= 1e-4, worst, 0.0, 1e-4,
                       "max rel err, both sides")


def check_onaxis_limit() -> CheckResult:
    R = 1.0
    target = -QE * QE / (8.0 * math.pi ** 2 * EPSILON_0 * R)
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


def sine_integral(f: Callable[[np.ndarray], np.ndarray], r: float,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE,
                  k_scale: Optional[float] = None) -> ValueWithError:
    """integral_0^inf f(k) sin(k r) dk with an abs_err estimate, on the panel
    driver of `quadrature` with panels between the zeros of sin(k r)."""
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r!r}")

    def integrand(k: np.ndarray) -> np.ndarray:
        return np.asarray(f(k), dtype=float) * np.sin(k * r)

    edges = _oscillatory_edges(lambda n: n * math.pi / r, k_scale)
    return ValueWithError(*_integrate_panels(integrand, edges, spec, "sine_integral"))


def check_sine_dirichlet() -> CheckResult:
    got = sine_integral(lambda k: 1.0 / np.maximum(k, 1e-300), 2.0).value
    return CheckResult("sine_dirichlet", _rel(got, math.pi / 2) <= 1e-10,
                       got, math.pi / 2, 1e-10)


def eps_longitudinal_static(k: float, p: screening.DrudeStatic) -> float:
    """eps(k, 0) = eps_b + omega_p^2 / (beta k)^2 for k > 0."""
    if not (k > 0.0):
        raise DomainError(f"wavenumber k must be > 0, got {k!r}")
    return p.eps_b + (p.omega_p / (p.beta * k)) ** 2


def screened_potential_numeric(r: float, qA: float, qB: float, p: screening.DrudeStatic,
                               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ValueWithError:
    """The pair energy in the bulk, in joules, by sine-transform quadrature of
    the k-space kernel; the arbiter of the closed form `NonlocalBulk._g`.

    U = qA qB / (2 pi^2 eps0) * integral_0^inf sin(k r) k
        / (r (eps_b k^2 + (omega_p/beta)^2)) dk

    The complex exponential form is reduced to this real transform by the
    even/odd split, so the oscillatory engine runs with no complex arithmetic.
    """
    if not (r > 0.0):
        raise DomainError(f"separation r must be > 0, got {r!r}")
    w = (p.omega_p / p.beta) ** 2
    eps_b = p.eps_b

    def f(k: np.ndarray) -> np.ndarray:
        return k / (r * (eps_b * k * k + w))

    # The raw transform tends to (pi/2) exp(-k_s r)/(r eps_b); give abs_tol
    # a floor at 1e-12 of the unscreened level when the caller left it at 0.
    pref = qA * qB / (2.0 * math.pi ** 2 * EPSILON_0)
    abs_kernel = spec.abs_tol / abs(pref) if (spec.abs_tol > 0.0 and pref != 0.0) \
        else 1e-12 * math.pi / (2.0 * r * eps_b)
    k_scale = max(p.k_s, 1.0 / r)
    got = sine_integral(f, r, replace(spec, abs_tol=abs_kernel), k_scale=k_scale)
    return ValueWithError(pref * got.value, abs(pref) * got.abs_err)


def check_screened_grid() -> CheckResult:
    r = 2e-10
    params = [screening.DrudeStatic(omega_p=wp, omega_p_bound=ratio * 4e15,
                                    omega_0=4e15, beta=beta)
              for wp in np.linspace(1e15, 2e16, 5)
              for ratio in np.linspace(0.0, 3.0, 5)
              for beta in np.linspace(8e5, 2e6, 5)]
    params.append(screening.DrudeStatic(omega_p=9e15, omega_p_bound=7e15,
                                        omega_0=4e15, beta=1e6))
    a, b = Charge(QE, Point3(0.0, 0.0, 0.0)), Charge(QE, Point3(0.0, 0.0, r))
    worst = max(_rel(screened_potential_numeric(r, QE, QE, p).value,
                     interactions.pair_energy(screening.NonlocalBulk(p), a, b).energy)
                for p in params)
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

# poisson_fd, and with it scipy.sparse, is imported by the functions that
# solve a grid, so that no other command loads it

_FD_H = 1.0
_FD_EXACT = -(1.0 / (4.0 * math.pi)) * (3.0 / 5.0) / (2.0 * _FD_H)


@lru_cache(maxsize=None)
def _half_space_fd(n: int) -> FDSolution:
    """HalfSpace(1, 4) with the source at height 1 on the aligned n x n grid.

    Four checks read these grids; the cache solves each one once per process.
    """
    from . import poisson_fd
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
def _cavity_fd(eps1: float, eps3: float, z0: float) -> FDSolution:
    """ThreeLayerCavity(eps1, 1, eps3, d = 1) with the source at height z0 on
    the aligned 256 x 256 grid, solved once per process."""
    from . import poisson_fd
    d = 1.0
    grid = poisson_fd.aligned_grid(256, z0, (-d / 2, d / 2), 3 * d, 8 * d)
    return poisson_fd.solve_scattering_g1(ThreeLayerCavity(eps1, 1.0, eps3, d),
                                          Point3(0, 0, z0), grid)


def _gap_g(eps1, eps3, rho: float, z: float = 0.0) -> float:
    """The program's g in a gap of width 1 and eps2 = 1 between walls of
    eps1 and eps3, at (rho, 0, z) from a source at (0, 0, z)."""
    geom = ThreeLayerCavity(eps1, 1.0, eps3, 1.0)
    return geom.g(Point3(rho, 0, z), Point3(0, 0, z), DEFAULT_QUADRATURE).value


def check_fd_cavity_midpoint() -> CheckResult:
    d = 1.0
    got = _cavity_fd(8.0, 8.0, 0.0).g_total_at(Point3(d, 0, 0))
    ref = _gap_g(8.0, 8.0, d)
    err = _rel(got, ref)
    return CheckResult("fd_cavity_midpoint", err <= 0.02, got, ref, 0.02)


def check_fd_cavity_general() -> CheckResult:
    d = 1.0
    got = _cavity_fd(4.0, 8.0, 0.2 * d).g_total_at(Point3(0.5 * d, 0, 0.2 * d))
    ref = _gap_g(4.0, 8.0, 0.5 * d, 0.2 * d)
    err = _rel(got, ref)
    return CheckResult("fd_cavity_general_z", err <= 0.02, got, ref, 0.02)


def check_fd_gauss_flux() -> CheckResult:
    flux = _half_space_fd(128).gauss_flux(24)
    return CheckResult("fd_gauss_law_flux", abs(flux - 1.0) <= 0.01, flux, 1.0, 0.01)


def check_fd_scaling() -> CheckResult:
    from . import poisson_fd
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

# criterion 3: wall/host combinations spanning r1 r3 from -1 to +1
_GAP_LAYERS = ((PC, 1.0, PC),        # r1 r3 = +1
               (PC, 1e17, 1.0),      # -1: r1 = 1 and r3 rounds to -1, at the midplane only
               (4.0, 1.0, 8.0),      # +0.47
               (19.0, 1.0, PC),      # +0.9
               (1000.0, 1.0, 1000.0),  # +0.996, past the image series' order cap
               (1.0, 1.0, 1.0),      # 0
               (1.0, 19.0, PC),      # -0.9
               (1.0, 4.0, PC),       # -0.6
               (1.0, 4.0, 1.0))      # +0.36


def cavity_g_series(cav: ThreeLayerCavity, rho: float, n_max: int = 200, z: float = 0.0,
                    z0: float = 0.0) -> ValueWithError:
    """The image series of the gap cav, from its d, eps2, r1 and r3, to a
    fixed order, between the source height z0 and the field height z.

    With q = r1 r3, a = z - z0, b = z + z0 + d and D(s) = sqrt(rho^2 + s^2)
    (Barrera, Guzman & Balaguer, Am. J. Phys. 46 (1978) 1172),

        4 pi eps2 g = sum_{|m| <= n_max} q^|m| / D(a + 2md)
                      - sum_{k=0}^{n_max} q^k (r1 / D(b + 2kd) + r3 / D(b - 2(k+1)d)),

    summed at any heights for |q| < 1 term by term, with abs_err the
    geometric bound from the first order dropped: the magnitudes of its
    terms (|m| = k = n_max + 1) over 1 - |q|. It shares no code with the
    program's image series. At the midplane z = z0 = 0 with both walls
    conducting (r1 = r3 = 1) the sum is rearranged as the alternating
    image-distance series and extrapolated by repeated averaging, which
    converges far below the plain partial sums; abs_err then adds the
    roundoff of that cancelling sum, eps * (1/rho + sum |terms|), which
    exceeds the value itself beyond about 10 d.
    """
    d, r1, r3 = cav.d, cav.r1, cav.r3
    if rho <= 0.0:
        raise DomainError(f"rho must be > 0, got {rho!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max!r}")
    for name, height in (("z", z), ("z0", z0)):
        if not -0.5 * d < height < 0.5 * d:
            raise OutOfRegionError(f"{name} = {height!r} outside the gap (-d/2, d/2)")
    q = r1 * r3
    c = r1 + r3
    pref = 1.0 / (4.0 * math.pi * cav.eps2)

    def image_dist(a: np.ndarray) -> np.ndarray:
        return np.sqrt((a * d) ** 2 + rho * rho)

    if abs(q) < 1.0:
        # k = 0..n_max + 1, the last the first order dropped; the sum over m
        # as m = k and m = -k, with m = 0 once
        k = np.arange(n_max + 2)
        shift = 2.0 * d * k
        a, b = z - z0, z + z0 + d
        terms = q ** k * np.array([1.0 / np.hypot(rho, a + shift), 1.0 / np.hypot(rho, a - shift),
                                   -r1 / np.hypot(rho, b + shift),
                                   -r3 / np.hypot(rho, b - shift - 2.0 * d)])
        terms[1, 0] = 0.0
        value = float(np.sum(terms[:, :-1]))
        dropped = float(np.sum(np.abs(terms[:, -1])))
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
    value = math.sqrt(8.0 / (rho * d)) * math.exp(-math.pi * rho / d) / (4.0 * math.pi * e2)
    return ValueWithError(value)


def cavity_asymptotic_force(geom: ThreeLayerCavity, a: Charge, b: Charge,
                            apply_local_field: bool = False) -> interactions.ForceResult:
    """Closed-form midplane force in the conductor-wall large-separation regime.

    |F| = qA qB/(4 pi eps0 eps2) * sqrt(2) (d + 2 pi rho) e^{-pi rho/d} / (rho d)^{3/2},
    directed along the in-plane separation; multiplied by the local-field
    factor of the gap medium on request.
    """
    if not (is_conductor(geom.eps1) and is_conductor(geom.eps3)):
        raise UnsupportedGeometryError("asymptotic force requires conducting walls")
    dvec = np.array([a.position.x - b.position.x, a.position.y - b.position.y, 0.0])
    rho = float(np.linalg.norm(dvec))
    if rho == 0.0:
        raise DomainError("cavity_asymptotic_force: charges on a common axis")
    d = geom.d
    factor = interactions.local_field_factor(geom.eps2) if apply_local_field else 1.0
    mag = (a.q * b.q / (interactions.FOUR_PI_EPS0 * geom.eps2)
           * math.sqrt(2.0) * (d + 2.0 * math.pi * rho)
           * math.exp(-math.pi * rho / d) / (rho * d) ** 1.5)
    return interactions.ForceResult(force=factor * mag * dvec / rho,
                                    local_field_factor_applied=factor)


def check_cavity_triple() -> CheckResult:
    # The program's g of every wall pair against the Hankel quadrature and
    # against the image series, at the midplane and at two seeded pairs of
    # heights where the series converges (|r1 r3| < 1). Each route meets a
    # method it does not use: the series route (|r1 r3| < 1 within its order
    # cap, and conducting walls below rho = d/2, with its Euler-Maclaurin
    # tail) meets Hankel and cavity_g_series, a fixed-order numpy sum; the
    # Hankel route (pairs past the cap, and r1 r3 = -1) and the mode sum meet
    # the series, summed to a fixed order or, where |r1 r3| = 1, at the
    # midplane by Euler acceleration.
    d = 1.0
    rng = random.Random(3)
    worst = 0.0
    spec = QuadratureSpec(rel_tol=1e-11)
    for rho_over_d in (0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
        rho = rho_over_d * d
        for eps1, eps2, eps3 in _GAP_LAYERS:
            geom = ThreeLayerCavity(eps1, eps2, eps3, d)
            q = abs(geom.r1 * geom.r3)
            n_max = 400
            heights = [(0.0, 0.0)]
            if q < 1.0:
                heights += [(rng.uniform(-0.45, 0.45) * d, rng.uniform(-0.45, 0.45) * d)
                            for _ in range(2)]
            if 0.0 < q < 1.0:
                n_max = max(80, int(math.log(1e-13) / math.log(q)) + 1)
            for z, z0 in heights:
                got = geom.g(Point3(rho, 0.0, z), Point3(0.0, 0.0, z0), spec)
                for ref in (cavity.cavity_g_general(geom, z, z0, rho, spec),
                            cavity_g_series(geom, rho, n_max=n_max, z=z, z0=z0)):
                    budget = max(got.abs_err + ref.abs_err, 1e-9 / rho)
                    worst = max(worst, abs(got.value - ref.value) / budget)
    return CheckResult("cavity_series_vs_quadrature", worst <= 1.0, worst, 0.0, 1.0,
                       "worst |diff| / combined budget (<= 1) of the program's g against "
                       "Hankel and the image series, at and off the midplane; the series "
                       "is the route for |r1 r3| < 1 within its order cap and between "
                       "conducting walls below rho = d/2, and shares no code with either")


def check_cavity_asymptotic() -> CheckResult:
    # in units of the gap width d = 1
    ratios = [cavity_asymptotic(rho, 1.0, 1.0).value / _gap_g(PC, PC, rho)
              for rho in (5.0, 6.0, 7.0, 8.0)]
    ok = abs(ratios[0] - 1.0) <= 0.10 and all(
        abs(r2 - 1.0) < abs(r1 - 1.0) for r1, r2 in zip(ratios, ratios[1:]))
    return CheckResult("cavity_asymptotic_window", ok, ratios[0], 1.0, 0.10,
                       "ratio at rho=5d; monotone approach beyond")


def check_cavity_slope() -> CheckResult:
    d = 1.0
    rs = np.linspace(3.0, 8.0, 11)
    vals = np.array([_gap_g(PC, PC, r) for r in rs])
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
_BORN_ALPHA = 1e-30 * EPSILON_0
_BORN_ETA = _BORN_X * EPSILON_0 / _BORN_ALPHA
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


def box_octree(r1: Point3, r2: Point3, boxes, alpha: np.ndarray, rel_tol: float,
               scale_hint: float = 0.0) -> ValueWithError:
    """int over the boxes of grad_x(1/|r1 - x|) . alpha . grad_x(1/|r2 - x|) d^3x
    by the Born octree, also at r1 = r2, where the program takes a closed form."""
    rv, rpv = np.array([r1.x, r1.y, r1.z]), np.array([r2.x, r2.y, r2.z])
    return ValueWithError(*born._adaptive_boxes(
        lambda pts, w: kernels.alpha_chain_sum(pts, w, rv, rpv, alpha),
        boxes, rel_tol, scale_hint=scale_hint))


def half_space_octree(r1: Point3, r2: Point3, alpha: np.ndarray,
                      rel_tol: float) -> ValueWithError:
    """int over z < 0 of grad_x(1/|r1 - x|) . alpha . grad_x(1/|r2 - x|) d^3x by the
    Born octree on half-cube shells; abs_err adds the truncated tail's bound."""
    boxes, tail = _half_shells((r1, r2), 0.05 * rel_tol)
    alpha_scale = float(np.max(np.abs(alpha)))
    # scale_hint: the dominant pi/h magnitude of the isotropic integral
    got = box_octree(r1, r2, boxes, alpha, rel_tol,
                     scale_hint=alpha_scale * math.pi / min(r1.z, r2.z))
    return ValueWithError(got.value, got.abs_err + alpha_scale * tail)


def charge_molecule_potential(qA: float, rA: Point3, rB: Point3,
                              alpha: born.PolarizabilityTensor) -> float:
    """Charge-molecule interaction -qA^2 (r . alpha . r) / (32 pi^2 eps0^2 r^6), joules."""
    r = np.array([rA.x - rB.x, rA.y - rB.y, rA.z - rB.z])
    r2 = float(r @ r)
    if r2 == 0.0:
        raise CoincidentPointsError("charge_molecule_potential: rA coincides with rB")
    quad = float(r @ alpha.matrix @ r)
    return -qA * qA * quad / (32.0 * math.pi ** 2 * EPSILON_0 ** 2 * r2 ** 3)


def born_g1_prefactor(eta: float, eps_bg: float) -> float:
    """g1 per unit half-space integral: -eta / (eps0 (4 pi eps_bg)^2)."""
    return -eta / (EPSILON_0 * (4.0 * math.pi * eps_bg) ** 2)


@lru_cache(maxsize=None)
def _born_charge_energy() -> float:
    p = Point3(0, 0, _BORN_H)
    integral = half_space_octree(p, p, _BORN_ALPHA * np.eye(3), _BORN_REL_TOL).value
    return -QE ** 2 * _BORN_ETA * integral / (32 * math.pi ** 2 * EPSILON_0 ** 2)


def check_born_half_space() -> CheckResult:
    p = Point3(0, 0, _BORN_H)
    measured = half_space_octree(p, p, np.eye(3), _BORN_REL_TOL).value
    target = math.pi / _BORN_H
    err = _rel(measured, target)
    return CheckResult("born_half_space_volume_identity", err <= 1e-4,
                       measured, target, 1e-4, "int d^3r / s^4 = pi/h")


def check_born_closed_form() -> CheckResult:
    u_born = _born_charge_energy()
    target = -QE ** 2 * _BORN_ETA * _BORN_ALPHA / (32 * math.pi * EPSILON_0 ** 2 * _BORN_H)
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


def check_born_box_self_closed_form() -> CheckResult:
    # the box self-term's closed form against the octree on the same box: above
    # a face centre, near an edge, near a corner and in the plane of a face
    alpha = _BORN_ALPHA * np.array([[2.0, 0.3, 0.7], [0.3, 1.0, -0.5], [0.7, -0.5, 1.5]])
    box = born.Box(-_BORN_H, _BORN_H, -_BORN_H, _BORN_H, -2.0 * _BORN_H, -_BORN_H)
    body = born.DiluteBody(alpha=born.PolarizabilityTensor.from_matrix(alpha),
                           regions=(born.DensityRegion(box, _BORN_ETA),), background_eps=2.0)
    pref = born_g1_prefactor(_BORN_ETA, 2.0)
    worst = 0.0
    for x, y, z in ((0.0, 0.0, -0.8), (1.05, 0.3, -0.95), (1.1, 1.1, -0.9), (1.3, 0.2, -1.0)):
        p = Point3(x * _BORN_H, y * _BORN_H, z * _BORN_H)
        got = born.born_scattering_g1(p, p, body)
        octree = box_octree(p, p, [box], alpha, _BORN_REL_TOL)
        worst = max(worst, abs(got.value - pref * octree.value)
                    / (got.abs_err + abs(pref) * octree.abs_err))
    return CheckResult("born_box_self_closed_form", worst <= 1.0, worst, 0.0, 1.0,
                       "worst |g1 - octree| / combined abs_err (<= 1) at 4 points")


def check_local_field_80() -> CheckResult:
    got = interactions.local_field_factor(80.0)
    return CheckResult("local_field_factor_80", abs(got - 1.4907) <= 5e-4,
                       got, 1.4907, 5e-4)


# ---------------------------------------------------------------------------
# criterion 7 and the interface conditions: one table of geometries, and each
# pair criterion written once, as a function of a row and its points
# ---------------------------------------------------------------------------

class Interface(NamedTuple):
    """The plane z = z0 where rho >= rho_min: a grounded conductor with
    charges on `sides` of it (+1 above, -1 below), or else a dielectric one."""

    z0: float
    grounded: bool
    sides: Tuple[float, ...] = (1.0, -1.0)
    rho_min: float = 0.0

    def draw(self, rng) -> Tuple[float, float, float]:
        """x and y on the interface, rho_min + 0.05 to rho_min + 5 from the z
        axis, and a side from which to approach it."""
        rho, phi = self.rho_min + rng.uniform(0.05, 5.0), rng.uniform(0.0, 2.0 * math.pi)
        return rho * math.cos(phi), rho * math.sin(phi), rng.choice(self.sides)


class Row(NamedTuple):
    """A geometry, and what the pair criteria need to know of it.

    Its charges sit at `_point(rng, *z, mirror, scale)`. It is invariant
    under translations along the axes `translations`, and `clearance(p)` is
    the distance from p to its nearest interface or body (`scale` where it
    has none). `interfaces` holds those whose condition can be checked: a
    dielectric one needs charges on both sides, which a gap's walls lack.
    A Born body is `scattered`: the criteria take its g, energies
    and forces less the direct term, which would swamp them. Its self-force
    is defined anywhere, or on the z axis alone ("axis").
    """

    name: str
    geom: Geometry
    z: Tuple[float, float]
    translations: Tuple[int, ...]
    clearance: Callable[[Point3], float]
    interfaces: Tuple[Interface, ...] = ()
    mirror: bool = False
    scale: float = 1.0
    scattered: bool = False
    self_term: str = "anywhere"

    def point(self, rng) -> Point3:
        return _point(rng, *self.z, mirror=self.mirror, scale=self.scale)

    def self_point(self, rng) -> Point3:
        p = self.point(rng)
        return Point3(0.0, 0.0, p.z) if self.self_term == "axis" else p


def _plate_distance(p: Point3) -> float:
    """Distance to the plate z = 0, rho >= 1: to its plane, or inside the rim to the rim."""
    return abs(p.z) if p.rho >= 1.0 else math.hypot(1.0 - p.rho, p.z)


@lru_cache(maxsize=None)
def table() -> Dict[str, Row]:
    """The geometries that the pair criteria run over, built on first use."""
    alpha = born.PolarizabilityTensor.from_matrix(
        1e-40 * np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]]))
    box = born.DensityRegion(born.Box(-1.0, 1.0, -1.0, 1.0, -2.0, -1.0), 1e27)
    in_plane, to_plane, to_walls = (0, 1), (lambda p: abs(p.z)), (lambda p: 0.5 - abs(p.z))
    gap = (-0.45, 0.45), in_plane, to_walls
    rows = (
        Row("free_space", FreeSpace(2.0), (-2.0, 2.0), (0, 1, 2), lambda p: 1.0),
        Row("half_space", HalfSpace(2.0, 80.0), (0.05, 3.0), in_plane, to_plane,
            (Interface(0.0, False),), mirror=True),
        Row("solid_plate", PlateWithHole(0.0), (0.05, 3.0), in_plane, to_plane,
            (Interface(0.0, True),), mirror=True),
        Row("aperture_plate", PlateWithHole(1.0), (0.05, 2.5), (), _plate_distance,
            (Interface(0.0, True, rho_min=1.0),), mirror=True, self_term="axis"),
        Row("bulk", screening.NonlocalBulk(screening.DrudeStatic(8e15, 9e15, 4e15, 9e5)),
            (-2.0, 2.0), (0, 1, 2), lambda p: 1e-10, scale=1e-10),
        Row("born_half_space", born.DiluteBody(alpha, half_space_eta=1e27, background_eps=2.0),
            (0.05, 3.0), in_plane, to_plane, scattered=True),
        Row("dielectric_gap", ThreeLayerCavity(4.0, 1.0, 8.0, 1.0), *gap),
        Row("mixed_gap", ThreeLayerCavity(4.0, 1.0, PC, 1.0), *gap,
            (Interface(0.5, True, (-1.0,)),)),
        Row("conducting_gap", ThreeLayerCavity(PC, 1.5, PC, 1.0), *gap,
            (Interface(0.5, True, (-1.0,)), Interface(-0.5, True, (1.0,)))),
        # above the box's top face z = -1, at least 0.5 from it
        Row("born_box", born.DiluteBody(alpha, (box,)), (-0.5, 2.5), (),
            lambda p: math.hypot(max(abs(p.x) - 1.0, 0.0), max(abs(p.y) - 1.0, 0.0), p.z + 1.0),
            scattered=True),
    )
    return {row.name: row for row in rows}


RECIPROCITY_TOL, FORCE_TOL, ACTION_REACTION_TOL = 1e-14, 1e-4, 1e-10
# |g| / g_free 1e-9 from a grounded conductor; the relative jumps of g and of
# eps dg/dz between 1e-12 above and below a dielectric interface
GROUNDED_TOL, CONTINUITY_TOL, FLUX_TOL = 1e-6, 1e-8, 1e-4


def _geoms(row: Row):
    """The row's geometry, and for a Born body the free space whose direct
    term its energies and forces are taken less."""
    return (row.geom, FreeSpace(row.geom.background_eps)) if row.scattered else (row.geom,)


def _energy(row: Row, p: Point3, b: Optional[Point3] = None) -> float:
    """The self-energy of a charge e at p (b None), or its pair energy with -e at b."""
    u = [(interactions.self_energy(g, Charge(QE, p)) if b is None else
          interactions.pair_energy(g, Charge(QE, p), Charge(-QE, b))).energy for g in _geoms(row)]
    return u[0] - sum(u[1:])


def _force(row: Row, p: Point3, b: Optional[Point3] = None) -> np.ndarray:
    """The force on a charge e at p: its self-force (b None), or that of -e at b."""
    qb = None if b is None else Charge(-QE, b)
    f = [interactions.force_on_A(g, Charge(QE, p), qb).force for g in _geoms(row)]
    return f[0] - sum(f[1:])


def stencil_gradient(fn: Callable[[Point3], float], p: Point3, h: float,
                     axes=(0, 1, 2)) -> np.ndarray:
    """The five-point central difference of fn at p along `axes`, 0 along the
    others; each pair of values is differenced first, so that a function even
    about p gives exactly 0."""
    grad = np.zeros(3)
    for axis in axes:
        def at(c):
            step = [0.0, 0.0, 0.0]
            step[axis] = c
            return fn(p.shifted(*step))
        grad[axis] = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12 * h)
    return grad


def reciprocity_error(row: Row, a: Point3, b: Point3) -> float:
    """|g(a, b) - g(b, a)| / |g(a, b)|, of the scattered part for a Born body."""
    g = partial(born.born_scattering_g1, body=row.geom) if row.scattered else row.geom.g
    ab, ba = g(a, b, spec=DEFAULT_QUADRATURE).value, g(b, a, spec=DEFAULT_QUADRATURE).value
    return abs(ab - ba) / max(abs(ab), 1e-300)


def force_error(row: Row, a: Point3, b: Optional[Point3] = None) -> float:
    """|F + grad U| / |F| for the pair force on a (b given) or the self-force,
    grad U the stencil of the energy at 1e-4 of the distance to the nearest
    interface, body or partner, along z alone for a self-force on the axis."""
    length = row.clearance(a) if b is None else min(row.clearance(a), analytic.distance(a, b))
    axes = (2,) if b is None and row.self_term == "axis" else (0, 1, 2)
    force = _force(row, a, b)
    grad = stencil_gradient(lambda p: _energy(row, p, b), a, 1e-4 * length, axes)
    return _over(force + grad, force)


def action_reaction_error(row: Row, a: Point3, b: Point3) -> float:
    """|F_A + F_B| along the row's translations, over |F_A|."""
    fa = _force(row, a, b)
    return _over((fa + _force(row, b, a))[list(row.translations)], fa)


def _over(miss: np.ndarray, size: np.ndarray) -> float:
    """|miss| / |size|, 0 where both vanish (a force 0 by symmetry), inf where size alone does."""
    m, s = float(np.linalg.norm(miss)), float(np.linalg.norm(size))
    return m / s if s else (math.inf if m else 0.0)


def interface_error(row: Row, iface: Interface, src: Point3, x: float, y: float,
                    side: float) -> float:
    """The condition at (x, y) on the interface, for a source at src, over its
    tolerance: g vanishes 1e-9 from a grounded conductor on `side`, and g and
    eps dg/dz are continuous across a dielectric interface, straddled at
    +-1e-12 so that g's own variation across it stays far below tolerance."""
    geom, spec = row.geom, DEFAULT_QUADRATURE
    if iface.grounded:
        p = Point3(x, y, iface.z0 + side * 1e-9)
        free = 1.0 / (4.0 * math.pi * geom.host_eps(p) * analytic.distance(p, src))
        return abs(geom.g(p, src, spec).value) / free / GROUNDED_TOL
    up, down = Point3(x, y, iface.z0 + 1e-12), Point3(x, y, iface.z0 - 1e-12)
    flux_up, flux_down = (geom.host_eps(p) * geom.grad_g(p, src, spec)[2] for p in (up, down))
    return max(_rel(geom.g(up, src, spec).value, geom.g(down, src, spec).value) / CONTINUITY_TOL,
               _rel(flux_up, flux_down) / FLUX_TOL)


def _straddling(row: Row, r: Point3) -> List[List[Point3]]:
    """The points r + h e and r - h e, e = (0.48, -0.64, 0.6), at h = 2e-3,
    1e-3 and 5e-4 of the distance to the nearest interface or body."""
    e = (0.48, -0.64, 0.6)
    return [[r.shifted(*(s * f * row.clearance(r) * c for c in e)) for s in (1.0, -1.0)]
            for f in (2e-3, 1e-3, 5e-4)]


def _extrapolated(l1, l2, l3):
    """The limits in h^2 of values at the three h of `_straddling`: from the
    smaller two h, and from all three."""
    return (4.0 * l3 - l2) / 3.0, (64.0 * l3 - 20.0 * l2 + l1) / 45.0


def coincident_limit_error(row: Row, r: Point3) -> float:
    """|g1(r) - lim [g(r, r + h e) + g(r, r - h e)]/2 - 1/(4 pi eps d)| over its
    tolerance, d the distance between the two points as float64 has them.

    The limit is extrapolated in h^2 from h at 1e-3 and 5e-4 of the distance
    to the nearest interface or body. The tolerance adds the extrapolation's
    weighted abs_err of g, that of g1, 16 eps_mach of the free term at the
    smaller h, and the spread between this and the three-level extrapolation
    that adds h at 2e-3.
    """
    geom, spec = row.geom, DEFAULT_QUADRATURE
    levels = []
    for near in _straddling(row, r):
        g = [geom.g(r, p, spec) for p in near]
        free = sum(1.0 / analytic.distance(r, p) for p in near) / (8.0 * math.pi
                                                                   * geom.host_eps(r))
        levels.append((0.5 * (g[0].value + g[1].value) - free,
                       0.5 * (g[0].abs_err + g[1].abs_err), free))
    (l1, _, _), (l2, e2, _), (l3, e3, free) = levels
    two, three = _extrapolated(l1, l2, l3)
    g1 = geom.g1(r, spec)
    tol = (4.0 * e3 + e2) / 3.0 + g1.abs_err + 16.0 * 2.0 ** -52 * free + abs(three - two)
    return abs(two - g1.value) / tol


def grad_coincident_limit_error(row: Row, r: Point3) -> float:
    """|grad_g1(r) - 2 lim [G(r, r + h e) + G(r, r - h e)]/2| over its
    tolerance, G being the gradient in r of g less the free term, or for a
    Born body the scattered gradient alone, which `born._scattering` gives:
    g less its direct term would leave a 1/h^2 term to cancel.

    The limit is extrapolated as `coincident_limit_error` extrapolates g's.
    The tolerance adds the spread between the two extrapolations, 16 eps_mach
    of the two free gradients at the smallest h times their weight 4/3 in
    the extrapolation, and 1e-12 |grad_g1|.
    """
    geom, spec = row.geom, DEFAULT_QUADRATURE
    levels = []
    for near in _straddling(row, r):
        if row.scattered:
            free = [np.zeros(3)] * 2
            grads = [np.array(born._scattering(geom, r, p, spec, gradient=True)) for p in near]
        else:
            free = [np.array(analytic.free_space_grad(r, p, geom.host_eps(r))) for p in near]
            grads = [np.array(geom.grad_g(r, p, spec)) - fp for p, fp in zip(near, free)]
        levels.append((grads[0] + grads[1], sum(np.linalg.norm(fp) for fp in free)))
    (l1, _), (l2, _), (l3, free) = levels
    two, three = _extrapolated(l1, l2, l3)
    grad_g1 = np.array(geom.grad_g1(r, spec))
    tol = (np.linalg.norm(three - two) + 16.0 * 2.0 ** -52 * 4.0 / 3.0 * free
           + 1e-12 * np.linalg.norm(grad_g1))
    return float(np.linalg.norm(two - grad_g1) / tol)


# the rows this criterion cannot check: the aperture's g1 is not yet the
# coincident limit of g (the aperture's on-axis finding: hole_onaxis_g1 drops
# -R/(4 pi^2 (z^2 + R^2)) against that limit), and the bulk's g - free,
# (exp(-k_s h) - 1)/(4 pi eps_b h), has an O(h) term that the extrapolation
# in h^2 leaves (its closed form is checked in tier-1 by one in h)
NOT_THE_LIMIT = ("aperture_plate", "bulk")
# the gradient's limit has no O(h) term (the two points' terms are odd in h
# and cancel), which leaves the aperture's on-axis finding alone
GRAD_NOT_THE_LIMIT = ("aperture_plate",)


def harmonic_error(row: Row, a: Point3, b: Point3) -> float:
    """|L f(a)| over its tolerance, L the Laplacian in a and f = g(a, b)
    - g_free(a, b), harmonic away from the source; for a Born body f is the
    scattered part, born_scattering_g1, and for the screened bulk L is the
    Laplacian less k_s^2 and f = g, a Yukawa potential.

    L f is taken by the 7-point stencil at h = 4e-2, 2e-2 and 1e-2 of
    min(clearance(a), |a - b|) and extrapolated in h^2 from the smaller two
    h and from all three. The tolerance adds the spread of the two, and the
    abs_err of each g and 16 eps_mach of each g_free, each times the
    stencil's weight over h^2, at the two smaller h as the extrapolation
    weighs them.
    """
    geom, spec = row.geom, DEFAULT_QUADRATURE
    k2 = geom.drude.k_s ** 2 if isinstance(geom, screening.NonlocalBulk) else 0.0
    pref = 1.0 / (4.0 * math.pi * (geom.background_eps if row.scattered else geom.host_eps(a)))

    def f(p):
        got = (born.born_scattering_g1(p, b, geom, spec) if row.scattered
               else geom.g(p, b, spec))
        free = pref / analytic.distance(p, b)
        return got.value - (free if not (row.scattered or k2) else 0.0), got.abs_err, free

    length = min(row.clearance(a), analytic.distance(a, b))
    center, levels = f(a), []
    for h in (4e-2 * length, 2e-2 * length, 1e-2 * length):
        around = [f(a.shifted(*(s * h * (i == j) for j in range(3))))
                  for i in range(3) for s in (1.0, -1.0)]
        weight = 6.0 / h ** 2 + k2
        lap = sum(v for v, _, _ in around) / h ** 2 - weight * center[0]
        err = (sum(e + 16.0 * 2.0 ** -52 * free for _, e, free in around) / h ** 2
               + weight * (center[1] + 16.0 * 2.0 ** -52 * center[2]))
        levels.append((lap, err))
    (l1, _), (l2, e2), (l3, e3) = levels
    two, three = _extrapolated(l1, l2, l3)
    return abs(two) / (abs(three - two) + (4.0 * e3 + e2) / 3.0)


def _pairs(row: Row, rng, n: int):
    """n seeded pairs of the row's points, less those within 1e-3 of its scale."""
    pairs = [(row.point(rng), row.point(rng)) for _ in range(n)]
    return [(a, b) for a, b in pairs if analytic.distance(a, b) >= 1e-3 * row.scale]


def check_reciprocity() -> CheckResult:
    rng = random.Random(777)
    errs = [reciprocity_error(row, a, b) for row in table().values()
            for a, b in _pairs(row, rng, 100)]
    worst = max(errs)
    return CheckResult("reciprocity", worst <= RECIPROCITY_TOL and len(errs) >= 990, worst,
                       0.0, RECIPROCITY_TOL,
                       f"worst rel err over {len(errs)} pairs (>= 990), every geometry")


def check_force_gradient() -> CheckResult:
    rng = random.Random(5)
    errs = []
    for row in table().values():
        errs += [force_error(row, a, b) for a, b in _pairs(row, rng, 2)]
        errs += [force_error(row, row.self_point(rng)) for _ in range(2)]
    worst = max(errs)
    return CheckResult("force_vs_energy_stencil", worst <= FORCE_TOL, worst, 0.0, FORCE_TOL,
                       f"worst rel err over {len(errs)} pair and self-forces, every geometry")


def check_action_reaction() -> CheckResult:
    rng = random.Random(31)
    worst = max(action_reaction_error(row, a, b) for row in table().values()
                if row.translations for a, b in _pairs(row, rng, 20))
    return CheckResult("force_action_reaction", worst <= ACTION_REACTION_TOL, worst, 0.0,
                       ACTION_REACTION_TOL, "|F_A + F_B| / |F_A| along the translations")


def check_interfaces() -> CheckResult:
    rng = random.Random(4)
    worst = max(interface_error(row, iface, row.point(rng), *iface.draw(rng))
                for row in table().values() for iface in row.interfaces for _ in range(50))
    return CheckResult("interface_conditions", worst <= 1.0, worst, 0.0, 1.0,
                       f"worst err / tol: |g|/g_free {GROUNDED_TOL:g} at a grounded conductor, "
                       f"jumps of g {CONTINUITY_TOL:g} and eps dg/dz {FLUX_TOL:g} at a dielectric")


def check_coincident_limit() -> CheckResult:
    rng = random.Random(12)
    worst = max(coincident_limit_error(row, row.self_point(rng))
                for row in table().values() if row.name not in NOT_THE_LIMIT for _ in range(5))
    return CheckResult("g1_coincident_limit", worst <= 1.0, worst, 0.0, 1.0,
                       "worst err / tol of g1 against the limit of g - free, every geometry "
                       "but aperture_plate (hole_onaxis_g1 drops a term of the limit) "
                       "and bulk (g - free has an O(h) term)")


def check_grad_coincident_limit() -> CheckResult:
    rng = random.Random(11)
    worst = max(grad_coincident_limit_error(row, row.self_point(rng))
                for row in table().values() if row.name not in GRAD_NOT_THE_LIMIT
                for _ in range(8))
    return CheckResult("grad_g1_coincident_limit", worst <= 1.0, worst, 0.0, 1.0,
                       "worst err / tol of grad_g1 against twice the limit of the gradient "
                       "of g - free, every geometry but aperture_plate (hole_onaxis_g1 "
                       "drops a term of the limit)")


def check_harmonic() -> CheckResult:
    rng = random.Random(13)
    worst = max(harmonic_error(row, a, b) for row in table().values()
                for a, b in _pairs(row, rng, 6))
    return CheckResult("g_harmonic_off_source", worst <= 1.0, worst, 0.0, 1.0,
                       "worst |Laplacian of g - g_free| / tol away from the source, every "
                       "geometry (the scattered part of a Born body, the Yukawa operator "
                       "for the screened bulk)")


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
        check_onaxis_limit,
        check_interfaces,
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
    check_born_box_self_closed_form,
    check_local_field_80,
    check_reciprocity,
    check_force_gradient,
    check_action_reaction,
    check_coincident_limit,
    check_grad_coincident_limit,
    check_harmonic,
    check_bilinearity,
    check_ratio_distant_interfaces,
] + SUITES["oracle"]


def run_suite(name: str) -> List[CheckResult]:
    if name not in SUITES:
        raise CoulombError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [c() for c in SUITES[name]]
