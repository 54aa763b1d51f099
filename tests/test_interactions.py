import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb import validate
from greens_coulomb.born import Box, DensityRegion, DiluteBody, PolarizabilityTensor
from greens_coulomb.core import (
    PERFECT_CONDUCTOR,
    Charge,
    CoincidentPointsError,
    DomainError,
    FreeSpace,
    Geometry,
    HalfSpace,
    OnPlateError,
    OnSurfaceError,
    OutOfRegionError,
    PlateWithHole,
    Point3,
    PointInsideBodyError,
    QuadratureSpec,
    ThreeLayerCavity,
    UnsupportedGeometryError,
    ValueWithError,
    distance,
)
from greens_coulomb.interactions import (
    InteractionResult,
    force_on_A,
    local_field_factor,
    pair_energy,
    self_energy,
)
from greens_coulomb.screening import DrudeStatic, NonlocalBulk
from greens_coulomb.validate import cavity_asymptotic_force

PC = PERFECT_CONDUCTOR
SPEC = QuadratureSpec()


def q_at(z, q=QE, x=0.0, y=0.0):
    return Charge(q, Point3(x, y, z))


GEOMETRIES = (FreeSpace, HalfSpace, ThreeLayerCavity, PlateWithHole, NonlocalBulk, DiluteBody)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_geometry_gives_only_its_greens_function():
    # energies and forces are formed in interactions alone
    for cls in set(GEOMETRIES) | set(_subclasses(Geometry)):
        for name in ("_g", "_g1", "_grad_g", "_grad_g1", "host_eps"):
            assert callable(getattr(cls, name, None)), f"{cls.__name__} lacks {name}"
        # the rules every pair shares live in Geometry's public methods alone
        for name in ("g", "g1", "grad_g", "grad_g1"):
            assert name not in vars(cls), f"{cls.__name__} overrides {name}"
        # host_eps is the one admission rule; there is no second surface test
        for name in ("self_energy", "pair_energy", "closed_force", "surface_distance"):
            assert not hasattr(cls, name), f"{cls.__name__} defines {name}"


_BODY_ALPHA = PolarizabilityTensor.isotropic(1e-30 * epsilon_0)
_SLAB = DensityRegion(Box(-1.0, 1.0, -1.0, 1.0, -2.0, -1.0), 1e27)

ROWS = validate.table()


def test_every_geometry_has_a_row_that_admits_its_points():
    # so that no geometry skips the pair criteria of validate
    assert set(_subclasses(Geometry)) <= {type(row.geom) for row in ROWS.values()}
    rng = random.Random(1)
    for row in ROWS.values():
        for _ in range(500):
            for p in (row.point(rng), row.self_point(rng)):
                assert row.geom.host_eps(p) is not None and row.clearance(p) > 0.0


@pytest.mark.parametrize("name", ROWS)
def test_every_geometry_applies_the_shared_pair_rules(name):
    # a pair too far apart for float64 has g = 0 and no gradient, and
    # coincident points are an error, with no warning on the way
    geom, z = ROWS[name].geom, ROWS[name].point(random.Random(0)).z
    far, near = Point3(1e308, 0.0, z), Point3(-1e308, 0.0, z)
    p = Point3(0.3, 0.2, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((far, near), (near, far)):
            got = geom.g(a, b, SPEC)
            assert (got.value, got.abs_err) == (0.0, 0.0)
            with pytest.raises(DomainError):
                geom.grad_g(a, b, SPEC)
        with pytest.raises(CoincidentPointsError):
            geom.g(p, p, SPEC)
        with pytest.raises(CoincidentPointsError):
            geom.grad_g(p, p, SPEC)


# validate's pair criteria, on points that hypothesis draws from each row's
# region; derandomized, so that tier-1 draws the same points on every run
RNG = st.randoms(use_true_random=False)


def _drawn(n):
    return settings(max_examples=n, deadline=None, derandomize=True)


def _pair(row, rng):
    a, b = row.point(rng), row.point(rng)
    assume(distance(a, b) >= 1e-3 * row.scale)
    return a, b


@pytest.mark.parametrize("name", ROWS)
@given(rng=RNG)
@_drawn(20)
def test_reciprocity(name, rng):
    row = ROWS[name]
    assert validate.reciprocity_error(row, *_pair(row, rng)) <= validate.RECIPROCITY_TOL


@pytest.mark.parametrize("name", ROWS)
@given(rng=RNG)
@_drawn(5)
def test_force_is_minus_the_energy_gradient(name, rng):
    row = ROWS[name]
    assert validate.force_error(row, *_pair(row, rng)) <= validate.FORCE_TOL
    assert validate.force_error(row, row.self_point(rng)) <= validate.FORCE_TOL


@pytest.mark.parametrize("name", [name for name, row in ROWS.items() if row.translations])
@given(rng=RNG)
@_drawn(10)
def test_action_reaction_along_translations(name, rng):
    row = ROWS[name]
    assert validate.action_reaction_error(row, *_pair(row, rng)) <= validate.ACTION_REACTION_TOL


@pytest.mark.parametrize("name,i", [(name, i) for name, row in ROWS.items()
                                    for i in range(len(row.interfaces))])
@given(rng=RNG)
@_drawn(20)
def test_interface_conditions(name, i, rng):
    row = ROWS[name]
    iface = row.interfaces[i]
    assert validate.interface_error(row, iface, row.point(rng), *iface.draw(rng)) <= 1.0


NOT_THE_LIMIT = {
    "aperture_plate": pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the aperture's on-axis finding: hole_onaxis_g1 drops "
               "-R/(4 pi^2 (z^2 + R^2)) against the limit"),
    "bulk": pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="(exp(-k_s h) - 1)/h has an O(h) term, which the extrapolation in h^2 "
               "leaves; test_nonlocal_bulk_is_debye_huckel extrapolates in h"),
}


# the gradient's limit has no O(h) term, which leaves the aperture alone
GRAD_NOT_THE_LIMIT = {"aperture_plate": NOT_THE_LIMIT["aperture_plate"]}


def test_the_limit_skips_the_xfailed_rows_alone():
    assert set(validate.NOT_THE_LIMIT) == set(NOT_THE_LIMIT)
    assert set(validate.GRAD_NOT_THE_LIMIT) == set(GRAD_NOT_THE_LIMIT)


@pytest.mark.parametrize("name", [pytest.param(name, marks=NOT_THE_LIMIT.get(name, ()))
                                  for name in ROWS])
@given(rng=RNG)
@_drawn(5)
def test_g1_is_the_coincident_limit_of_g(name, rng):
    # validate's check_coincident_limit runs it on every row but the two xfailed
    row = ROWS[name]
    assert validate.coincident_limit_error(row, row.self_point(rng)) <= 1.0


@pytest.mark.parametrize("name", [pytest.param(name, marks=GRAD_NOT_THE_LIMIT.get(name, ()))
                                  for name in ROWS])
@given(rng=RNG)
@_drawn(5)
def test_grad_g1_is_twice_the_coincident_limit_of_grad_g(name, rng):
    # validate's check_grad_coincident_limit runs it on every row but the aperture
    row = ROWS[name]
    assert validate.grad_coincident_limit_error(row, row.self_point(rng)) <= 1.0


# (geometry, a point where no charge may sit, a point where one may, the
# geometry's error)
FORBIDDEN = {
    "half_space_interface": (HalfSpace(1.0, 4.0), (0.3, 0.1, 0.0), (0.5, 0.0, 0.7),
                             OnSurfaceError),
    "grounded_plane": (HalfSpace(PC, 4.0), (0.3, 0.1, 0.0), (0.5, 0.0, -0.7), OnSurfaceError),
    "gap_wall": (ThreeLayerCavity(4.0, 1.0, 8.0, 1.0), (0.1, 0.2, 0.5), (0.5, 0.0, 0.1),
                 OutOfRegionError),
    "gap_outside": (ThreeLayerCavity(4.0, 1.0, 8.0, 1.0), (0.1, 0.2, -0.7), (0.5, 0.0, 0.1),
                    OutOfRegionError),
    "conducting_gap_wall": (ThreeLayerCavity(PC, 1.5, PC, 1.0), (0.1, 0.2, -0.5),
                            (0.5, 0.0, 0.1), OutOfRegionError),
    "solid_plate": (PlateWithHole(0.0), (0.3, 0.1, 0.0), (0.5, 0.0, 0.7), OnPlateError),
    "aperture_plate": (PlateWithHole(1.0), (2.0, 0.0, 0.0), (0.0, 0.0, 0.7), OnPlateError),
    "aperture_rim": (PlateWithHole(1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.7), OnPlateError),
    "born_box_inside": (DiluteBody(_BODY_ALPHA, (_SLAB,)), (0.2, 0.1, -1.5), (0.5, 0.0, 2.0),
                        PointInsideBodyError),
    "born_box_face": (DiluteBody(_BODY_ALPHA, (_SLAB,)), (0.2, 0.1, -1.0), (0.5, 0.0, 2.0),
                      PointInsideBodyError),
    "born_box_corner": (DiluteBody(_BODY_ALPHA, (_SLAB,)), (1.0, 1.0, -2.0), (0.5, 0.0, 2.0),
                        PointInsideBodyError),
    "born_half_space_plane": (DiluteBody(_BODY_ALPHA, half_space_eta=1e27), (0.2, 0.1, 0.0),
                              (0.5, 0.0, 0.7), PointInsideBodyError),
    "born_half_space_below": (DiluteBody(_BODY_ALPHA, half_space_eta=1e27), (0.2, 0.1, -0.5),
                              (0.5, 0.0, 0.7), PointInsideBodyError),
    "born_empty_half_space_plane": (DiluteBody(_BODY_ALPHA, half_space_eta=0.0),
                                    (0.2, 0.1, 0.0), (0.5, 0.0, 0.7), PointInsideBodyError),
}

ROUTES = {
    "self_energy": lambda geom, bad, good: self_energy(geom, bad),
    "pair_as_A": lambda geom, bad, good: pair_energy(geom, bad, good),
    "pair_as_B": lambda geom, bad, good: pair_energy(geom, good, bad),
    "force_as_A": lambda geom, bad, good: force_on_A(geom, bad, good),
    "force_as_B": lambda geom, bad, good: force_on_A(geom, good, bad),
    "self_force": lambda geom, bad, good: force_on_A(geom, bad),
}


@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", FORBIDDEN)
def test_a_forbidden_point_raises_the_geometrys_error_on_every_route(case, route, far):
    # host_eps is the one admission rule: the same class for every observable
    # and either charge, also for a partner too far away for float64
    geom, bad, good, error = FORBIDDEN[case]
    if far:
        good = (1.5e308, 1.5e308, good[2])
    with pytest.raises(error) as info:
        ROUTES[route](geom, Charge(QE, Point3(*bad)), Charge(-QE, Point3(*good)))
    assert info.type is error


def test_on_plate_is_on_surface():
    assert issubclass(OnPlateError, OnSurfaceError)


class TestLocalFieldFactor:
    def test_vacuum(self):
        assert local_field_factor(1.0) == 1.0

    def test_water(self):
        assert math.isclose(local_field_factor(80.0), 240.0 / 161.0, rel_tol=1e-15)
        assert abs(local_field_factor(80.0) - 1.4907) < 5e-4

    def test_large_eps_limit(self):
        assert abs(local_field_factor(1e12) - 1.5) < 1e-11


# The bulk's g1 against the limit of g(r, r + h e) - 1/(4 pi eps_b h),
# extrapolated linearly in h from h and h/2 at k_s h = 1e-4: the extrapolation
# leaves (k_s h)^2 / 12 of g1 and the cancellation in g - free about
# 1e-16 / (k_s h), both below this relative tolerance
BULK_LIMIT_TOL = 1e-8


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

    def test_nonlocal_bulk_is_debye_huckel(self):
        p = DrudeStatic(1e16, 0.0, 1e15, 1e6)
        bulk = NonlocalBulk(p)
        a = q_at(1e-9, x=0.3e-9, y=-0.2e-9)
        exact = -QE ** 2 * p.k_s / (8 * math.pi * epsilon_0 * p.eps_b)
        assert math.isclose(self_energy(bulk, a).energy, exact, rel_tol=1e-14)
        assert force_on_A(bulk, a).force.tolist() == [0.0, 0.0, 0.0]
        r, e = a.position, (0.48, -0.64, 0.6)

        def less_free(h):
            near = r.shifted(*(h * c for c in e))
            return (bulk.g(r, near, SPEC).value
                    - 1.0 / (4 * math.pi * p.eps_b * distance(r, near)))

        h = 1e-4 / p.k_s
        g1 = bulk.g1(r, SPEC).value
        assert abs(2.0 * less_free(0.5 * h) - less_free(h) - g1) <= BULK_LIMIT_TOL * abs(g1)

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

    def test_same_side_image_where_the_heights_multiply_to_zero(self):
        # 2^-700 * 2^-699 underflows to 0; the pair is still on one side
        geom = HalfSpace(1.0, 4.0)
        s = 2.0 ** -700
        tiny = pair_energy(geom, q_at(s), q_at(2 * s, x=s)).energy
        unit = pair_energy(geom, q_at(1.0), q_at(2.0, x=1.0)).energy
        assert math.isclose(tiny * s, unit, rel_tol=1e-15)

    def test_ratio_defined_where_one_medium_hosts_both(self):
        # equal permittivities on both sides are one uniform medium
        got = pair_energy(HalfSpace(3.0, 3.0), q_at(0.4, x=0.2), q_at(-0.9))
        assert math.isclose(got.ratio_to_free, 1.0, rel_tol=1e-15)
        assert pair_energy(HalfSpace(3.0, 5.0), q_at(0.4), q_at(-0.9)).ratio_to_free is None
        assert pair_energy(HalfSpace(3.0, PC), q_at(0.4), q_at(-0.9)).ratio_to_free is None

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
        grad = validate.stencil_gradient(lambda p: pair_energy(geom, Charge(a.q, p), b).energy,
                             a.position, h)
        assert np.linalg.norm(force + grad) <= 1e-4 * np.linalg.norm(force)

    @pytest.mark.parametrize("walls", WALLS)
    @pytest.mark.parametrize("z", [-0.45, -0.3, 0.15, 0.35, 0.49])
    def test_self_force_matches_energy_stencil(self, walls, z):
        geom = ThreeLayerCavity(WALLS[walls][0], 1.5, WALLS[walls][1], 1.0)
        fz = force_on_A(geom, q_at(z)).force
        grad = validate.stencil_gradient(lambda p: self_energy(geom, Charge(QE, p)).energy,
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
        h = 1e-4 * min(ROWS["aperture_plate"].clearance(Point3(*ra)), math.dist(ra, rb))
        grad = validate.stencil_gradient(lambda p: pair_energy(geom, Charge(a.q, p), b).energy,
                             a.position, h)
        assert np.linalg.norm(force + grad) <= 1e-4 * np.linalg.norm(force)

    @pytest.mark.parametrize("z", [0.3, -0.3, 1e-3, -2.5, 40.0])
    def test_on_axis_self_force_matches_energy_stencil(self, z):
        geom = PlateWithHole(1.0)
        f = force_on_A(geom, q_at(z)).force
        grad = validate.stencil_gradient(lambda p: self_energy(geom, Charge(QE, p)).energy,
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
        pa, pb = a.position, b.position
        to_b = np.array([pa.x - pb.x, pa.y - pb.y, pa.z - pb.z])
        to_image = np.array([pa.x - pb.x, pa.y - pb.y, pa.z + pb.z])
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

    @pytest.mark.parametrize("z", [0.7, -0.7])
    def test_subnormal_offset_overflows_its_own_component_only(self, z):
        # the pair differs in x alone: dg/dx overflows, dg/dy is 0 and dg/dz is
        # its limit, where inf * 0 made them NaN
        geom = PlateWithHole(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gx, gy, gz = geom.grad_g(Point3(0.0, 0.0, z), Point3(1e-300, 0.0, z), SPEC)
            limit = geom.grad_g(Point3(0.0, 0.0, z), Point3(1e-9, 0.0, z), SPEC)[2]
            with pytest.raises(DomainError, match="in its x component$"):
                force_on_A(geom, q_at(z), q_at(z, x=1e-300))
        assert (gx, gy) == (math.inf, 0.0)
        assert math.isclose(gz, limit, rel_tol=1e-14) and gz * z > 0.0


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

    @pytest.mark.parametrize("regions,half_space_eta,p", [
        ((_SLAB,), None, (1e308, 0.0, 0.0)),
        ((_SLAB,), None, (-1.5e308, 1e308, 0.0)),  # the distance itself overflows
        ((), 1e27, (0.0, 0.0, 1e308)),
        ((_SLAB,), 1e27, (0.0, 1.0, 9e307)),
    ])
    def test_far_self_term_follows_the_pair_rule(self, regions, half_space_eta, p):
        # the way to the body and back overflows float64: the self-energy is 0,
        # as for a pair too far apart, and the self-force is the same DomainError;
        # the box's octree used to warn and blame the body (exit 3)
        body = DiluteBody(_BODY_ALPHA, regions, half_space_eta)
        a = q_at(p[2], x=p[0], y=p[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert body.g1(a.position, SPEC) == ValueWithError(0.0)
            assert self_energy(body, a) == InteractionResult(0.0, None, 0.0)
            with pytest.raises(DomainError,
                               match="^DiluteBody: the points are too far apart for float64$"):
                force_on_A(body, a)
