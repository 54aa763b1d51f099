import decimal
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from greens_coulomb.analytic import free_space_g, plate_hole_g, plate_hole_grad
from greens_coulomb.core import (
    DEFAULT_QUADRATURE as SPEC,
    PERFECT_CONDUCTOR,
    CoincidentPointsError,
    DomainError,
    HalfSpace,
    OnPlateError,
    PlateWithHole,
    Point3,
    distance,
)
from greens_coulomb.kernels import hole_onaxis_g1

ORIGIN = Point3(0.0, 0.0, 0.0)
Z1 = Point3(0.0, 0.0, 1.0)


class TestFreeSpace:
    def test_unit_distance(self):
        assert math.isclose(free_space_g(Z1, ORIGIN).value, 1.0 / (4 * math.pi),
                            rel_tol=1e-12)
        assert free_space_g(Z1, ORIGIN).abs_err == 0.0

    def test_eps_scaling(self):
        assert math.isclose(free_space_g(Z1, ORIGIN, eps=4.0).value,
                            1.989436788648692e-2, rel_tol=1e-9)

    def test_doubling_distance_halves(self):
        g1 = free_space_g(Point3(0, 0, 2), ORIGIN).value
        g2 = free_space_g(Point3(0, 0, 4), ORIGIN).value
        assert math.isclose(g1, 2 * g2, rel_tol=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            free_space_g(Z1, Z1)


class TestHalfSpace:
    def test_no_interface_reduces_to_free(self):
        src = Point3(0.2, 0.0, 0.5)
        p = Point3(0.0, 0.3, 1.5)
        got = HalfSpace(3.0, 3.0).g(p, src, SPEC).value
        assert math.isclose(got, free_space_g(p, src, 3.0).value, rel_tol=1e-12)

    def test_conductor_scattering_value(self):
        # image -q at the mirror point, evaluated at the source position
        got = HalfSpace(1.0, PERFECT_CONDUCTOR).g1(Z1, SPEC).value
        assert math.isclose(got, -1.0 / (8.0 * math.pi), rel_tol=1e-12)

    def test_conductor_screens_transmission(self):
        got = HalfSpace(1.0, PERFECT_CONDUCTOR).g(Point3(0, 0, -0.5), Z1, SPEC).value
        assert got == 0.0

    def test_transmitted_value(self):
        p = Point3(0.0, 0.0, -1.0)
        got = HalfSpace(2.0, 6.0).g(p, Z1, SPEC).value
        assert math.isclose(got, (2.0 / 8.0) / (4 * math.pi * 2.0), rel_tol=1e-12)

    def test_source_below_is_the_mirrored_pair(self):
        a, b = Point3(0.3, -0.1, -0.4), Point3(-0.2, 0.5, -1.1)
        for p in (a, Point3(0.3, -0.1, 0.4)):
            got = HalfSpace(2.0, 6.0).g(p, b, SPEC).value
            want = HalfSpace(6.0, 2.0).g(p.mirror_z(), b.mirror_z(), SPEC).value
            assert got == want


def _mp_half_space(eps_side, eps_other, r, rs):
    """g and grad_g of a same-side half-space pair in 50-digit arithmetic,
    as the direct term plus the image, eps_other None for a conductor."""
    with mp.workdps(50):
        e = mp.mpf(eps_side)
        refl = -1 if eps_other is None else (e - eps_other) / (e + eps_other)
        x, y, z = (mp.mpf(r.x) - rs.x, mp.mpf(r.y) - rs.y, mp.mpf(r.z))
        d = mp.sqrt(x * x + y * y + (z - rs.z) ** 2)
        dm = mp.sqrt(x * x + y * y + (z + rs.z) ** 2)
        c = 1 / (4 * mp.pi * e)
        g = c * (1 / d + refl / dm)
        grad = (-c * x * (1 / d ** 3 + refl / dm ** 3), -c * y * (1 / d ** 3 + refl / dm ** 3),
                -c * ((z - rs.z) / d ** 3 + refl * (z + rs.z) / dm ** 3))
        return g, grad, mp.sqrt(sum(gc * gc for gc in grad))


EPS = 2.0 ** -52
# geometry, the side of the pair (the sign of z), its permittivity and that
# of the far side (None for a conductor)
CANCELLING = {
    "grounded_plane_below": (HalfSpace(1.0, PERFECT_CONDUCTOR), 1.0, 1.0, None),
    "grounded_plane_above": (HalfSpace(PERFECT_CONDUCTOR, 2.0), -1.0, 2.0, None),
    "eps_1e6_below": (HalfSpace(2.0, 1e6), 1.0, 2.0, 1e6),
    "eps_1e6_above": (HalfSpace(1e6, 1.0), -1.0, 1.0, 1e6),
    "solid_plate_pair_above": (PlateWithHole(0.0), 1.0, 1.0, None),
    "solid_plate_pair_below": (PlateWithHole(0.0), -1.0, 1.0, None),
}


class TestHalfSpaceSameSide:
    """Pairs 1e-9 m from the interface and far apart in the plane, where the
    image cancels the direct term to within 4 z z'/d^3 of it."""

    @pytest.mark.parametrize("name", sorted(CANCELLING))
    def test_matches_50_digits(self, name):
        geom, side, eps_side, eps_other = CANCELLING[name]
        for offset in (1e-4, 3e-3, 0.05, 0.7, 2.0):
            r = Point3(0.3 * offset, -0.2, side * 1e-9)
            rs = Point3(-0.7 * offset, -0.2 + 0.4 * offset, side * 2e-9)
            g, grad, norm = _mp_half_space(eps_side, eps_other, r, rs)
            got = geom.g(r, rs, SPEC).value
            assert abs(got - g) <= 4 * EPS * abs(g), (offset, got, g)
            got_grad = geom.grad_g(r, rs, SPEC)
            for got_c, want_c in zip(got_grad, grad):
                assert abs(got_c - want_c) <= 4 * EPS * norm, (offset, got_grad, grad)


def _decimal_hole_g(r, rp, R):
    """(g, lam_minus, lam_plus) of the aperture function for z >= 0, with s, A,
    F and D in 50-digit decimal arithmetic and only the well-conditioned
    arctangents in float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x, y, z, xp, yp, zp, RR = map(decimal.Decimal, (r.x, r.y, r.z, rp.x, rp.y, rp.z, R))
        s = x * x + y * y + z * z - RR * RR
        sp = xp * xp + yp * yp + zp * zp - RR * RR
        AAp = ((s * s + 4 * RR * RR * z * z) * (sp * sp + 4 * RR * RR * zp * zp)).sqrt()
        cross = 4 * RR * RR * z * zp
        two_r2 = 2 * RR * RR
        Fp = float((max(s * sp - cross + AAp, 0) / two_r2).sqrt())
        Fm = float((max(s * sp + cross + AAp, 0) / two_r2).sqrt())
        perp2 = (x - xp) ** 2 + (y - yp) ** 2
        Dm = float((perp2 + (z - zp) ** 2).sqrt())
        Dp = float((perp2 + (z + zp) ** 2).sqrt())
        if zp >= 0:
            lm, lp = 1.0, (1.0 if zp * s + z * sp > 0 else -1.0)
        else:
            lm, lp = (1.0 if zp * s - z * sp > 0 else -1.0), -1.0

    def bracket(lam, F, D):
        if lam > 0:
            return (1.0 + 2.0 / math.pi * math.atan2(F, D)) / D
        return 2.0 / math.pi * math.atan2(D, F) / D

    return (bracket(lm, Fm, Dm) - bracket(lp, Fp, Dp)) / (8 * math.pi), lm, lp


def _flip_point(zp, offset):
    """Field point at height 0.5 beside the surface where lam_plus (zp > 0) or
    lam_minus (zp < 0) flips, for the source (0.3, 0, zp) and R = 1."""
    sp = 0.09 + zp * zp - 1.0
    s = 0.5 * abs(sp / zp)  # zp s + 0.5 sp = 0, or zp s - 0.5 sp = 0
    return Point3(math.sqrt(s + 0.75) + offset, 0.0, 0.5)


class TestPlateHoleAux:
    """The auxiliaries F, D and lambda of the aperture function, seen through
    g (against a 50-digit evaluation of F and D) and its gradient."""

    def test_onaxis_distances(self):
        # on the axis D_minus, D_plus = |z -+ z'|
        a, b = Point3(0, 0, 2.0), Point3(0, 0, 0.5)
        want = _decimal_hole_g(a, b, 1.0)[0]
        assert math.isclose(plate_hole_g(a, b, 1.0).value, want, rel_tol=1e-14)

    def test_signs_outside_hole_sphere(self):
        # both points with rho^2 + z^2 > R^2, same side
        a, b = Point3(2.0, 0.5, 1.0), Point3(-1.0, 1.0, 2.0)
        want, lm, lp = _decimal_hole_g(a, b, 1.0)
        assert lm == 1.0 == lp
        assert math.isclose(plate_hole_g(a, b, 1.0).value, want, rel_tol=1e-14)

    def test_signs_opposite_sides_small_hole(self):
        a, b = Point3(0.3, 0.0, 1.0), Point3(0.0, 0.2, -1.5)
        want, lm, lp = _decimal_hole_g(a, b, 1e-7)
        assert lm == -1.0 == lp
        assert abs(plate_hole_g(a, b, 1e-7).value - want) <= 1e-14 / distance(a, b)

    def test_f_values_nonnegative(self):
        # both radicands of F stay >= 0 here, the minus one by cancellation
        a, b = Point3(0.9, 0.1, 0.2), Point3(1.1, -0.2, -0.4)
        want = _decimal_hole_g(a, b, 1.0)[0]
        assert math.isclose(plate_hole_g(a, b, 1.0).value, want, rel_tol=1e-14)

    @pytest.mark.parametrize("zp", [0.4, -0.4])
    @pytest.mark.parametrize("offset", [-1e-8, -1e-11, 0.0, 1e-11, 1e-8, 1e-4])
    def test_matches_decimal_across_lambda_flip(self, zp, offset):
        # the flip surface is where q + A Ap, the radicand of F, cancels
        a, b = _flip_point(zp, offset), Point3(0.3, 0.0, zp)
        want = _decimal_hole_g(a, b, 1.0)[0]
        assert math.isclose(plate_hole_g(a, b, 1.0).value, want, rel_tol=2e-15)

    @pytest.mark.parametrize("sep", [1e-4, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("direction", [(0.6, -0.8, 0.0), (0.48, -0.64, 0.6)])
    def test_matches_decimal_for_near_pairs(self, sep, direction):
        # in plane and oblique, same side: D comes from coordinate differences,
        # where a law of cosines loses its digits and reaches 0 near 1e-9
        b = Point3(0.6, 0.3, 0.4)
        a = b.shifted(*(sep * c for c in direction))
        want = _decimal_hole_g(a, b, 1.0)[0]
        assert math.isclose(plate_hole_g(a, b, 1.0).value, want, rel_tol=2e-15)

    @pytest.mark.parametrize("zp", [0.4, -0.4])
    def test_gradient_continuous_across_lambda_flip(self, zp):
        b = Point3(0.3, 0.0, zp)
        below, above = (plate_hole_grad(_flip_point(zp, off), b, 1.0) for off in (-1e-12, 1e-12))
        assert math.dist(below, above) <= 1e-10 * math.hypot(*above)
        # and it is the gradient of g there: a central difference straddles the flip
        p, h = _flip_point(zp, 0.0), 1e-5
        for axis, got in enumerate(above):
            step = [0.0, 0.0, 0.0]
            step[axis] = h
            up = plate_hole_g(p.shifted(*step), b, 1.0).value
            dn = plate_hole_g(p.shifted(*(-c for c in step)), b, 1.0).value
            assert abs((up - dn) / (2 * h) - got) <= 1e-8 * math.hypot(*above)

    def test_on_plate_rejected(self):
        for fn in (plate_hole_g, plate_hole_grad):
            with pytest.raises(OnPlateError):
                fn(Point3(2.0, 0, 0.0), Point3(0, 0, 1.0), 1.0)
            with pytest.raises(OnPlateError):
                fn(Point3(0, 0, 1.0), Point3(0.0, -1.0, 0.0), 1.0)

    def test_r_zero_rejected(self):
        for fn in (plate_hole_g, plate_hole_grad):
            with pytest.raises(DomainError):
                fn(Point3(0, 0, 1.0), Point3(0, 0, 2.0), 0.0)


class TestPlateHoleG:
    def test_conductor_limit_small_hole(self):
        a = Point3(0.4, -0.2, 0.8)
        b = Point3(-0.3, 0.6, 1.7)
        got = plate_hole_g(a, b, 1e-6 * 0.8).value
        image = (1.0 / distance(a, b) - 1.0 / distance(a, b.mirror_z())) / (4 * math.pi)
        assert abs(got - image) / abs(image) < 1e-4

    def test_free_space_limit_large_hole(self):
        a = Point3(0.4, -0.2, 0.8)
        for b in (Point3(-0.3, 0.6, 1.7), Point3(0.1, 0.3, -1.2)):
            got = plate_hole_g(a, b, 1e6 * 3.0).value
            free = 1.0 / (4 * math.pi * distance(a, b))
            assert abs(got - free) / free < 1e-4

    def test_opposite_sides_screened_at_small_hole(self):
        a = Point3(0.2, 0.1, 0.6)
        b = Point3(-0.1, 0.4, -0.9)
        got = plate_hole_g(a, b, 1e-7).value
        assert abs(got) * distance(a, b) < 1e-6

    def test_laplacian_vanishes_off_source(self):
        # 7-point stencil on a generic off-axis configuration
        src = Point3(0.7, -0.4, 0.9)
        x, y, z = 1.2, 0.5, -0.8
        h = 1e-3

        def g(xx, yy, zz):
            return plate_hole_g(Point3(xx, yy, zz), src, 1.0).value

        lap = (g(x + h, y, z) + g(x - h, y, z) + g(x, y + h, z) + g(x, y - h, z)
               + g(x, y, z + h) + g(x, y, z - h) - 6 * g(x, y, z)) / h ** 2
        assert abs(lap) * h ** 2 / abs(g(x, y, z)) < 1e-9

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            plate_hole_g(Z1, Z1, 1.0)

    @pytest.mark.parametrize("k", [-500, 500])
    def test_scaling_by_power_of_two_is_exact(self, k):
        # g ~ 1/length and its gradient ~ 1/length^2, bit for bit
        s = 2.0 ** k
        for a, b, R in ((Point3(0.3, -0.2, 0.3), Point3(-0.1, 0.1, 0.2), 1.0),
                        (Point3(0.4, -0.2, 0.8), Point3(-0.3, 0.6, -1.7), 0.37),
                        (Point3(2.5, 0.0, 0.05), Point3(0.0, 0.0, 1.0), 1.0)):
            sa, sb = Point3(s * a.x, s * a.y, s * a.z), Point3(s * b.x, s * b.y, s * b.z)
            assert plate_hole_g(sa, sb, s * R).value == plate_hole_g(a, b, R).value / s
            assert plate_hole_grad(sa, sb, s * R) == tuple(
                c / s / s for c in plate_hole_grad(a, b, R))

    @pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e150])
    def test_same_value_at_any_scale(self, scale):
        # R * R and the squares of the coordinates leave float64 at these scales
        a, b = Point3(0.3, -0.2, 0.3), Point3(-0.1, 0.1, 0.2)
        sa, sb = (Point3(scale * p.x, scale * p.y, scale * p.z) for p in (a, b))
        ratio = plate_hole_g(sa, sb, scale).value * scale / plate_hole_g(a, b, 1.0).value
        assert abs(ratio - 1.0) < 1e-14

    @pytest.mark.parametrize("R", [1e160, 1e300])
    def test_free_space_far_inside_a_huge_aperture(self, R):
        # the plate's correction, O(|r|/R), is below an ulp: g and its
        # gradient are those of free space, where R * R once overflowed
        a, b = Point3(0.3, -0.2, 0.3), Point3(-0.1, 0.1, 0.2)
        dist = distance(a, b)
        assert plate_hole_g(a, b, R).value == free_space_g(a, b).value
        grad = plate_hole_grad(a, b, R)
        for c, (u, v) in zip(grad, ((a.x, b.x), (a.y, b.y), (a.z, b.z))):
            assert math.isclose(c, -(u - v) / (4 * math.pi * dist ** 3), rel_tol=1e-14)


class TestOnAxisSelfTerm:
    """The on-axis self-term that PlateWithHole.self_energy takes, kernels.hole_onaxis_g1."""

    def test_center_limit(self):
        R = 2.0
        got = hole_onaxis_g1(1e-6 * R, R)
        assert abs(got - (-1.0 / (4 * math.pi ** 2 * R))) * 4 * math.pi ** 2 * R < 1e-9

    @pytest.mark.parametrize("x", [1e-11, 1e-8, 1e-5])
    def test_no_cancellation_near_center(self, x):
        # g1 = -arctan(x)/(4 pi^2 x R) with x = |z|/R, and arctan(x)/x = 1 - x^2/3 + ...
        # to roundoff here; the two-term form lost up to 7 digits
        got = hole_onaxis_g1(x * 2.0, 2.0)
        assert math.isclose(got, -(1.0 - x * x / 3.0) / (8 * math.pi ** 2), rel_tol=4e-16)

    def test_solid_plate_limit(self):
        z = 0.7
        got = hole_onaxis_g1(z, 1e-9)
        assert abs(got - (-1.0 / (8 * math.pi * z))) / (1 / (8 * math.pi * z)) < 1e-8

    def test_even_in_z(self):
        assert hole_onaxis_g1(0.3, 1.2) == hole_onaxis_g1(-0.3, 1.2)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_always_attractive(self, z, R):
        assert hole_onaxis_g1(z, R) < 0.0
