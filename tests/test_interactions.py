import math

import numpy as np
import pytest
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb.born import Box, DensityRegion, DiluteBody, PolarizabilityTensor
from greens_coulomb.core import (
    PERFECT_CONDUCTOR,
    Charge,
    CoincidentPointsError,
    FreeSpace,
    HalfSpace,
    OnPlateError,
    OnSurfaceError,
    OutOfRegionError,
    PlateWithHole,
    Point3,
    QuadratureSpec,
    ThreeLayerCavity,
    UnsupportedGeometryError,
)
from greens_coulomb.interactions import (
    cavity_asymptotic_force,
    force_on_A,
    local_field_factor,
    pair_energy,
    self_energy,
)
from greens_coulomb.screening import DrudeStatic, NonlocalBulk

PC = PERFECT_CONDUCTOR
SPEC = QuadratureSpec()


def q_at(z, q=QE, x=0.0, y=0.0):
    return Charge(q, Point3(x, y, z))


class TestLocalFieldFactor:
    def test_vacuum(self):
        assert local_field_factor(1.0) == 1.0

    def test_water(self):
        assert math.isclose(local_field_factor(80.0), 240.0 / 161.0, rel_tol=1e-15)
        assert abs(local_field_factor(80.0) - 1.4907) < 5e-4

    def test_large_eps_limit(self):
        assert abs(local_field_factor(1e12) - 1.5) < 1e-11


class TestSelfEnergy:
    def test_free_space_zero(self):
        assert self_energy(FreeSpace(), q_at(1.0)).energy == 0.0

    def test_conducting_wall(self):
        h = 2e-9
        got = self_energy(HalfSpace(1.0, PC), q_at(h))
        assert math.isclose(got.energy, -QE ** 2 / (16 * math.pi * epsilon_0 * h),
                            rel_tol=1e-12)

    def test_dielectric_wall_sign_and_value(self):
        h = 1e-9
        e1, e2 = 2.0, 8.0
        got = self_energy(HalfSpace(e1, e2), q_at(h)).energy
        exact = -QE ** 2 * (e2 - e1) / (16 * math.pi * epsilon_0 * e1 * (e2 + e1) * h)
        assert math.isclose(got, exact, rel_tol=1e-12)

    def test_lower_side_mirror(self):
        h = 1e-9
        up = self_energy(HalfSpace(2.0, 8.0), q_at(h)).energy
        down = self_energy(HalfSpace(8.0, 2.0), q_at(-h)).energy
        assert math.isclose(up, down, rel_tol=1e-12)

    def test_aperture_center_value(self):
        R = 3e-9
        exact = -QE ** 2 / (8 * math.pi ** 2 * epsilon_0 * R)
        at_zero = self_energy(PlateWithHole(R), q_at(0.0)).energy
        assert math.isclose(at_zero, exact, rel_tol=1e-12)
        near_zero = self_energy(PlateWithHole(R), q_at(1e-6 * R)).energy
        assert abs(near_zero - exact) / abs(exact) < 1e-8

    def test_cavity_midplane_force_free_point(self):
        # symmetric walls: dU/dz = 0 at the midplane
        d = 1.0
        geom = ThreeLayerCavity(8.0, 1.0, 8.0, d)
        dz = 1e-4
        up = self_energy(geom, q_at(dz)).energy
        dn = self_energy(geom, q_at(-dz)).energy
        mid = self_energy(geom, q_at(0.0)).energy
        assert abs(up - dn) < 1e-8 * abs(mid)

    def test_nonlocal_bulk_unsupported(self):
        bulk = NonlocalBulk(DrudeStatic(1e16, 0.0, 1e15, 1e6))
        with pytest.raises(UnsupportedGeometryError):
            self_energy(bulk, q_at(1e-9))

    def test_off_axis_aperture_unsupported(self):
        with pytest.raises(UnsupportedGeometryError):
            self_energy(PlateWithHole(1e-9), q_at(1e-9, x=1e-9))

    def test_on_surface_rejected(self):
        with pytest.raises(OnSurfaceError):
            self_energy(HalfSpace(1.0, 4.0), q_at(0.0))

    def test_quadratic_charge_scaling_exact(self):
        geom = HalfSpace(1.0, 4.0)
        u1 = self_energy(geom, q_at(1e-9, q=QE)).energy
        u2 = self_energy(geom, q_at(1e-9, q=2 * QE)).energy
        assert u2 == 4.0 * u1


class TestPairEnergy:
    def test_free_space_coulomb(self):
        r = 1.0
        got = pair_energy(FreeSpace(), q_at(0.0), q_at(r, q=-QE))
        assert math.isclose(got.energy, -QE ** 2 / (4 * math.pi * epsilon_0 * r),
                            rel_tol=1e-12)
        assert math.isclose(got.ratio_to_free, 1.0, rel_tol=1e-12)

    def test_conductor_blocks_opposite_sides(self):
        got = pair_energy(HalfSpace(1.0, PC), q_at(1.0), q_at(-1.0))
        assert got.energy == 0.0
        assert got.ratio_to_free is None  # B sits inside the conductor

    def test_transmission_between_dielectrics(self):
        e1, e2 = 3.0, 5.0
        a, b = q_at(1.0), q_at(-1.0)
        got = pair_energy(HalfSpace(e1, e2), a, b)
        exact = QE ** 2 / (2 * math.pi * epsilon_0 * (e1 + e2) * 2.0)
        assert math.isclose(got.energy, exact, rel_tol=1e-12)
        assert got.ratio_to_free is None  # different media

    def test_cavity_large_separation_ratio(self):
        d = 1.0
        geom = ThreeLayerCavity(PC, 1.0, PC, d)
        rho = 5.0
        got = pair_energy(geom, q_at(0.0, x=rho), q_at(0.0))
        asym = math.sqrt(8.0 / (rho * d)) * rho * math.exp(-math.pi * rho / d)
        assert abs(got.ratio_to_free - asym) / asym < 0.05

    def test_plate_r0_same_side_image(self):
        a, b = q_at(0.6), q_at(1.4)
        got = pair_energy(PlateWithHole(0.0), a, b).energy
        exact = QE ** 2 / (4 * math.pi * epsilon_0) * (1.0 / 0.8 - 1.0 / 2.0)
        assert math.isclose(got, exact, rel_tol=1e-12)

    def test_plate_r0_opposite_sides_zero(self):
        got = pair_energy(PlateWithHole(0.0), q_at(0.6), q_at(-0.7))
        assert got.energy == 0.0
        # the plate screens completely, yet both charges sit in vacuum
        assert got.ratio_to_free == 0.0

    def test_plate_finite_hole_leaks(self):
        got = pair_energy(PlateWithHole(1.0), q_at(0.6), q_at(-0.7))
        assert got.energy > 0.0
        assert 0.0 < got.ratio_to_free < 1.0

    def test_bilinearity_exact_in_powers_of_two(self):
        geom = ThreeLayerCavity(4.0, 1.0, 8.0, 1.0)
        a, b = q_at(0.2, x=0.5), q_at(-0.1)
        base = pair_energy(geom, a, b).energy
        doubled = pair_energy(geom, Charge(2 * a.q, a.position), b).energy
        halved = pair_energy(geom, a, Charge(0.5 * b.q, b.position)).energy
        assert doubled == 2.0 * base
        assert halved == 0.5 * base

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            pair_energy(FreeSpace(), q_at(1.0), q_at(1.0))

    def test_outside_gap_rejected(self):
        geom = ThreeLayerCavity(4.0, 1.0, 8.0, 1.0)
        with pytest.raises(OutOfRegionError):
            pair_energy(geom, q_at(0.7), q_at(0.0))

    def test_screened_bulk_ratio(self):
        p = DrudeStatic(1.2e16, 0.0, 5e15, 1.1e6)
        bulk = NonlocalBulk(p)
        r = 2e-10
        got = pair_energy(bulk, q_at(0.0), q_at(r))
        assert math.isclose(got.ratio_to_free, math.exp(-p.k_s * r), rel_tol=1e-12)


class TestForces:
    def test_free_space_coulomb_law(self):
        r = 1.0
        f = force_on_A(FreeSpace(), q_at(r), q_at(0.0))
        mag = QE ** 2 / (4 * math.pi * epsilon_0 * r ** 2)
        assert np.allclose(f.force, [0, 0, mag], rtol=1e-12)

    def test_half_space_corrected_force(self):
        h = 1e-9
        e1, e2 = 2.0, 8.0
        f = force_on_A(HalfSpace(e1, e2), q_at(h), apply_local_field=True)
        exact = -(QE ** 2 / (16 * math.pi * epsilon_0 * e1)) \
            * ((e2 - e1) / (e2 + e1)) * (3 * e1 / (2 * e1 + 1)) / h ** 2
        assert math.isclose(f.force[2], exact, rel_tol=1e-12)
        assert math.isclose(f.local_field_factor_applied, 3 * e1 / (2 * e1 + 1),
                            rel_tol=1e-15)

    def test_energies_uncorrected_forces_corrected(self):
        h = 1e-9
        geom = HalfSpace(4.0, 80.0)
        u_plain = self_energy(geom, q_at(h)).energy
        f_plain = force_on_A(geom, q_at(h), apply_local_field=False)
        f_corr = force_on_A(geom, q_at(h), apply_local_field=True)
        factor = local_field_factor(4.0)
        assert f_plain.local_field_factor_applied == 1.0
        assert math.isclose(f_corr.force[2], factor * f_plain.force[2],
                            rel_tol=1e-15)
        # the energy itself carries no factor
        assert math.isclose(u_plain, -QE ** 2 * (76.0 / 84.0)
                            / (16 * math.pi * epsilon_0 * 4.0 * h), rel_tol=1e-12)

    def test_fd_matches_closed_form_half_space(self):
        a = Charge(QE, Point3(0.3e-9, -0.2e-9, 1.1e-9))
        b = Charge(-2 * QE, Point3(-0.4e-9, 0.1e-9, 0.6e-9))
        geom = HalfSpace(2.0, 30.0)
        closed = force_on_A(geom, a, b).force

        def u_at(p):
            return pair_energy(geom, Charge(a.q, p), b).energy

        h = 1e-4 * 0.6e-9
        grad = np.zeros(3)
        for ax, (dx, dy, dz) in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            def at(c):
                return u_at(a.position.shifted(dx * c, dy * c, dz * c))
            grad[ax] = (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(2 * -h)) / (12 * h)
        assert np.allclose(-grad, closed, rtol=1e-6)

    def test_fd_force_cavity_consistency(self):
        geom = ThreeLayerCavity(PC, 1.0, PC, 1.0)
        a = Charge(QE, Point3(0.4, 0.0, 0.1))
        b = Charge(QE, Point3(0.0, 0.0, -0.1))
        f = force_on_A(geom, a, b).force

        def u_at(p):
            return pair_energy(geom, Charge(a.q, p), b).energy

        h = 1e-5 * 0.4
        grad = np.zeros(3)
        for ax, (dx, dy, dz) in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            def at(c):
                return u_at(a.position.shifted(dx * c, dy * c, dz * c))
            grad[ax] = (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(2 * -h)) / (12 * h)
        assert np.linalg.norm(f + grad) / np.linalg.norm(f) < 1e-4

    def test_action_reaction_translation_invariant(self):
        a = Charge(QE, Point3(1e-10, 2e-10, -3e-10))
        b = Charge(-QE, Point3(-2e-10, 1e-10, 2e-10))
        for geom in (FreeSpace(2.0),
                     NonlocalBulk(DrudeStatic(8e15, 9e15, 4e15, 9e5))):
            fa = force_on_A(geom, a, b).force
            fb = force_on_A(geom, b, a).force
            assert np.linalg.norm(fa + fb) <= 1e-10 * np.linalg.norm(fa)

    def test_cavity_asymptotic_force_matches_fd(self):
        d = 1.0
        geom = ThreeLayerCavity(PC, 1.0, PC, d)
        a, b = q_at(0.0, x=5.0), q_at(0.0)
        closed = cavity_asymptotic_force(geom, a, b).force
        fd = force_on_A(geom, a, b).force
        assert np.linalg.norm(closed - fd) / np.linalg.norm(fd) < 0.02

    def test_self_force_free_space_zero(self):
        f = force_on_A(FreeSpace(), q_at(1.0))
        assert np.all(f.force == 0.0)

    def test_on_surface_rejected(self):
        with pytest.raises(OnSurfaceError):
            force_on_A(HalfSpace(1.0, 4.0), q_at(0.0))

    @pytest.mark.parametrize("eps1", [1.0, PC])
    @pytest.mark.parametrize("za", [1e-9, -1e-9])
    def test_half_space_b_on_interface_rejected(self, eps1, za):
        # the pair force follows the pair energy's side rule: B on z = 0 is on the surface
        geom = HalfSpace(eps1, 4.0)
        a, b = q_at(za), q_at(0.0, x=1e-9, q=-QE)
        with pytest.raises(OnSurfaceError):
            pair_energy(geom, a, b)
        with pytest.raises(OnSurfaceError):
            force_on_A(geom, a, b)

    def test_half_space_charge_in_conductor(self):
        # no self-energy or self-force inside the conductor; a pair with a
        # charge there is fully screened
        geom = HalfSpace(PC, 4.0)
        inside, outside = q_at(1e-9), q_at(-2e-9, x=1e-9, q=-QE)
        with pytest.raises(OutOfRegionError):
            self_energy(geom, inside)
        with pytest.raises(OutOfRegionError):
            force_on_A(geom, inside)
        for a, b in ((inside, outside), (outside, inside)):
            assert pair_energy(geom, a, b).energy == 0.0
            assert np.all(force_on_A(geom, a, b).force == 0.0)

    def test_aperture_self_force_attractive_on_axis(self):
        f = force_on_A(PlateWithHole(1e-9), q_at(2e-9))
        assert f.force[2] < 0.0 and f.force[0] == 0.0 == f.force[1]

    def test_dilute_body_force_toward_body(self):
        alpha = PolarizabilityTensor.isotropic(1e-30 * epsilon_0)
        body = DiluteBody(alpha=alpha, regions=(
            DensityRegion(Box(-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9), 1e27),))
        f = force_on_A(body, q_at(1e-9), spec=QuadratureSpec(rel_tol=1e-7))
        assert f.force[2] < 0.0


WALLS = {"cc": (PC, PC), "dd": (4.0, 8.0), "dc": (4.0, PC)}


def _stencil_grad(energy, p, h, axes=(0, 1, 2)):
    """Five-point central difference of energy(Point3) at p."""
    grad = np.zeros(3)
    for ax in axes:
        def at(c, ax=ax):
            step = [0.0, 0.0, 0.0]
            step[ax] = c
            return energy(p.shifted(*step))
        grad[ax] = (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)
    return grad


class TestGapForces:
    """The gradient routes of the gap (mode sum, digamma, Hankel) against a
    stencil of the program's own energies, at criterion 7's tolerance 1e-4."""

    @pytest.mark.parametrize("walls", WALLS)
    @pytest.mark.parametrize("x,y,za,zb", [(0.1, 0.0, 0.3, -0.1), (0.3, 0.3, 0.1, -0.1),
                                           (0.5, 0.0, -0.3, 0.1), (1.5, -0.4, 0.1, 0.3),
                                           (4.5, 0.0, -0.1, -0.3), (0.0, 0.0, 0.2, -0.3),
                                           (2.0, 0.0, 0.0, 0.0)])
    def test_pair_force_matches_energy_stencil(self, walls, x, y, za, zb):
        geom = ThreeLayerCavity(WALLS[walls][0], 1.5, WALLS[walls][1], 1.0)
        a, b = q_at(za, x=x, y=y), q_at(zb, q=-QE)
        force = force_on_A(geom, a, b).force
        h = 1e-4 * min(0.5 - abs(za), math.dist((x, y, za), (0.0, 0.0, zb)))
        grad = _stencil_grad(lambda p: pair_energy(geom, Charge(a.q, p), b).energy,
                             a.position, h)
        assert np.linalg.norm(force + grad) <= 1e-4 * np.linalg.norm(force)

    @pytest.mark.parametrize("walls", WALLS)
    @pytest.mark.parametrize("z", [-0.45, -0.3, 0.15, 0.35, 0.49])
    def test_self_force_matches_energy_stencil(self, walls, z):
        geom = ThreeLayerCavity(WALLS[walls][0], 1.5, WALLS[walls][1], 1.0)
        fz = force_on_A(geom, q_at(z)).force
        grad = _stencil_grad(lambda p: self_energy(geom, Charge(QE, p)).energy,
                             q_at(z).position, 1e-4 * (0.5 - abs(z)), axes=(2,))
        assert fz[0] == 0.0 == fz[1]
        assert abs(fz[2] + grad[2]) <= 1e-4 * abs(fz[2])

    @pytest.mark.parametrize("walls", WALLS)
    def test_pair_on_common_axis_has_no_radial_force(self, walls):
        geom = ThreeLayerCavity(WALLS[walls][0], 1.0, WALLS[walls][1], 1.0)
        f = force_on_A(geom, q_at(0.3), q_at(-0.2)).force
        assert f[0] == 0.0 == f[1] and f[2] != 0.0

    @pytest.mark.parametrize("eps_wall", [PC, 8.0])
    def test_no_self_force_at_midplane_of_symmetric_walls(self, eps_wall):
        geom = ThreeLayerCavity(eps_wall, 1.0, eps_wall, 1.0)
        assert np.all(force_on_A(geom, q_at(0.0)).force == 0.0)

    @pytest.mark.parametrize("rho", [8.0, 10.0, 12.0])
    def test_conducting_far_field_matches_asymptotic(self, rho):
        # the stencil failed here: its step sat below the quadrature's floor
        geom = ThreeLayerCavity(PC, 1.0, PC, 1.0)
        a, b = q_at(0.0, x=rho), q_at(0.0, q=-QE)
        got = force_on_A(geom, a, b).force
        asym = cavity_asymptotic_force(geom, a, b).force
        # the asymptotic form is off by about 1/(8x) of K1 at x = pi rho/d; allow twice that
        assert np.linalg.norm(got - asym) <= 2.0 / (8 * math.pi * rho) * np.linalg.norm(asym)
        assert got[0] < 0.0  # opposite charges attract: A at +x is pulled toward B

    def test_gap_force_outside_gap_rejected(self):
        geom = ThreeLayerCavity(4.0, 1.0, PC, 1.0)
        with pytest.raises(OutOfRegionError):
            force_on_A(geom, q_at(0.2), q_at(0.7))
        with pytest.raises(OutOfRegionError):
            force_on_A(geom, q_at(-0.6))


class TestPlateForces:
    """The aperture's gradient routes against a stencil of its own energies,
    at criterion 7's tolerance 1e-4."""

    @pytest.mark.parametrize("ra,rb", [((0.4, -0.2, 0.8), (-0.3, 0.6, 1.7)),
                                       ((0.5, 0.0, 0.7), (-0.2, 0.1, -0.6)),
                                       ((-1.2, 0.5, -0.3), (0.2, 0.1, -0.9)),
                                       ((0.3, 0.2, -0.4), (0.9, -1.1, 0.5)),
                                       ((0.2, 0.1, 0.0), (0.1, -0.3, 0.6)),
                                       ((2.5, 0.0, 0.05), (0.0, 0.0, 1.0))])
    def test_pair_force_matches_energy_stencil(self, ra, rb):
        geom = PlateWithHole(1.0)
        a, b = Charge(QE, Point3(*ra)), Charge(-QE, Point3(*rb))
        force = force_on_A(geom, a, b).force
        h = 1e-4 * min(geom.surface_distance(a.position), math.dist(ra, rb))
        grad = _stencil_grad(lambda p: pair_energy(geom, Charge(a.q, p), b).energy,
                             a.position, h)
        assert np.linalg.norm(force + grad) <= 1e-4 * np.linalg.norm(force)

    @pytest.mark.parametrize("z", [0.3, -0.3, 1e-3, -2.5, 40.0])
    def test_on_axis_self_force_matches_energy_stencil(self, z):
        geom = PlateWithHole(1.0)
        f = force_on_A(geom, q_at(z)).force
        grad = _stencil_grad(lambda p: self_energy(geom, Charge(QE, p)).energy,
                             q_at(z).position, 1e-4 * abs(z), axes=(2,))
        assert f[0] == 0.0 == f[1] and f[2] * z < 0.0  # pulled toward the plate
        assert abs(f[2] + grad[2]) <= 1e-4 * abs(f[2])

    def test_no_self_force_at_aperture_center(self):
        assert np.all(force_on_A(PlateWithHole(1.0), q_at(0.0)).force == 0.0)

    def test_off_axis_self_force_unsupported(self):
        with pytest.raises(UnsupportedGeometryError):
            force_on_A(PlateWithHole(1.0), q_at(0.3, x=0.2))

    @pytest.mark.parametrize("za,zb", [(0.6, 1.4), (-0.6, -1.4), (0.6, -0.7), (-0.6, 0.7)])
    def test_solid_plate_pair_force_is_the_image_force(self, za, zb):
        a, b = q_at(za, x=0.3), q_at(zb, y=-0.2, q=-QE)
        force = force_on_A(PlateWithHole(0.0), a, b).force
        if za * zb < 0.0:
            assert np.all(force == 0.0)  # the plate screens completely
            return
        to_b = a.position.vec() - b.position.vec()
        to_image = a.position.vec() - b.position.mirror_z().vec()
        want = -QE * QE / (4 * math.pi * epsilon_0) * (
            to_b / np.linalg.norm(to_b) ** 3 - to_image / np.linalg.norm(to_image) ** 3)
        assert np.allclose(force, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("z", [0.7, -0.7])
    def test_solid_plate_self_force(self, z):
        f = force_on_A(PlateWithHole(0.0), q_at(z, x=0.4)).force
        want = -math.copysign(QE ** 2 / (16 * math.pi * epsilon_0 * z * z), z)
        assert f[0] == 0.0 == f[1]
        assert math.isclose(f[2], want, rel_tol=1e-14)

    def test_pair_on_plate_rejected(self):
        for R in (0.0, 1.0):
            with pytest.raises(OnPlateError):
                force_on_A(PlateWithHole(R), q_at(0.5), q_at(0.0, x=2.0))


class TestBornForces:
    def test_half_space_self_force_closed_form(self):
        # -d/dh of U1 = q^2/(2 eps0) g1: g1's full derivative in h is
        # -pi [(axx + ayy)/(4 h^2) + azz/(2 h^2)] times -eta/(eps0 (4 pi eps_bg)^2)
        h, eta, eps_bg = 0.3, 1e27, 2.5
        alpha = PolarizabilityTensor.from_matrix(
            1e-40 * np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]]))
        body = DiluteBody(alpha, half_space_eta=eta, background_eps=eps_bg)
        a = alpha.matrix
        dg1 = (math.pi * ((a[0, 0] + a[1, 1]) / (4 * h * h) + a[2, 2] / (2 * h * h))
               * eta / (epsilon_0 * (4 * math.pi * eps_bg) ** 2))
        f = force_on_A(body, q_at(h, x=0.7)).force
        assert f[0] == 0.0 == f[1]
        assert math.isclose(f[2], -QE ** 2 / (2 * epsilon_0) * dg1, rel_tol=1e-14)
