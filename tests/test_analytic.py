import decimal
import math

import pytest
from hypothesis import given, settings, strategies as st

from greens_coulomb.analytic import (
    free_space_g,
    half_space_g,
    half_space_scattering_g1,
    plate_hole_g,
    plate_hole_grad,
    plate_hole_onaxis_self_g1,
)
from greens_coulomb.core import (
    PERFECT_CONDUCTOR,
    CoincidentPointsError,
    DomainError,
    OnPlateError,
    OutOfRegionError,
    Point3,
    distance,
)

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
        got = half_space_g(p, src, 3.0, 3.0).value
        assert math.isclose(got, free_space_g(p, src, 3.0).value, rel_tol=1e-12)

    def test_conductor_scattering_value(self):
        # image -q at the mirror point, evaluated at the source position
        got = half_space_scattering_g1(Z1, Z1, 1.0, PERFECT_CONDUCTOR).value
        assert math.isclose(got, -1.0 / (8.0 * math.pi), rel_tol=1e-12)

    def test_conductor_screens_transmission(self):
        got = half_space_g(Point3(0, 0, -0.5), Z1, 1.0, PERFECT_CONDUCTOR).value
        assert got == 0.0

    def test_transmitted_value(self):
        p = Point3(0.0, 0.0, -1.0)
        got = half_space_g(p, Z1, 2.0, 6.0).value
        assert math.isclose(got, (2.0 / 8.0) / (4 * math.pi * 2.0), rel_tol=1e-12)

    def test_source_below_rejected(self):
        with pytest.raises(OutOfRegionError):
            half_space_g(Z1, Point3(0, 0, -1.0), 1.0, 2.0)

    def test_continuity_across_interface(self):
        src = Point3(0.1, -0.4, 0.8)
        for eps1, eps2 in ((1.0, 4.0), (3.0, 1.0), (2.0, 80.0)):
            up = half_space_g(Point3(0.7, 0.2, 1e-12), src, eps1, eps2).value
            dn = half_space_g(Point3(0.7, 0.2, -1e-12), src, eps1, eps2).value
            assert abs(up - dn) / abs(up) < 1e-8

    def test_displacement_jump_condition(self):
        src = Point3(0.0, 0.0, 0.9)
        eps1, eps2 = 2.0, 7.0
        h = 1e-5
        for rho in (0.3, 1.1):
            g0 = half_space_g(Point3(rho, 0, 0.0), src, eps1, eps2).value
            up = [half_space_g(Point3(rho, 0, z), src, eps1, eps2).value
                  for z in (h, 2 * h)]
            dn = [half_space_g(Point3(rho, 0, -z), src, eps1, eps2).value
                  for z in (h, 2 * h)]
            d_up = (4 * up[0] - up[1] - 3 * g0) / (2 * h)
            d_dn = -(4 * dn[0] - dn[1] - 3 * g0) / (2 * h)
            assert abs(eps1 * d_up - eps2 * d_dn) / abs(eps2 * d_dn) < 1e-4


finite_pts = st.builds(
    Point3,
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.05, 2.5),
)


class TestHalfSpaceReciprocity:
    @given(finite_pts, finite_pts)
    @settings(max_examples=60)
    def test_reciprocity(self, a, b):
        if distance(a, b) < 1e-6:
            return
        g_ab = half_space_g(a, b, 2.0, 9.0).value
        g_ba = half_space_g(b, a, 2.0, 9.0).value
        assert abs(g_ab - g_ba) <= 1e-12 * abs(g_ab)


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

    def test_vanishes_on_conductor(self):
        src = Point3(0.5, 0.2, 1.1)
        for rho in (1.3, 2.6, 7.0):
            p = Point3(rho, -0.4, 1e-10)
            free = 1.0 / (4 * math.pi * distance(p, src))
            assert abs(plate_hole_g(p, src, 1.0).value) / free < 1e-6

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

    @given(st.floats(-1.8, 1.8), st.floats(-1.8, 1.8), st.floats(0.05, 2.0),
           st.floats(-1.8, 1.8), st.floats(-1.8, 1.8), st.floats(0.05, 2.0),
           st.booleans())
    @settings(max_examples=80)
    def test_reciprocity(self, xa, ya, za, xb, yb, zb, flip):
        a = Point3(xa, ya, za)
        b = Point3(xb, yb, -zb if flip else zb)
        if distance(a, b) < 1e-6:
            return
        g_ab = plate_hole_g(a, b, 1.0).value
        g_ba = plate_hole_g(b, a, 1.0).value
        assert abs(g_ab - g_ba) <= 1e-12 * max(abs(g_ab), 1e-300)


class TestOnAxisSelfTerm:
    def test_center_limit(self):
        R = 2.0
        got = plate_hole_onaxis_self_g1(1e-6 * R, R).value
        assert abs(got - (-1.0 / (4 * math.pi ** 2 * R))) * 4 * math.pi ** 2 * R < 1e-9

    @pytest.mark.parametrize("x", [1e-11, 1e-8, 1e-5])
    def test_no_cancellation_near_center(self, x):
        # g1 = -arctan(x)/(4 pi^2 x R) with x = |z|/R, and arctan(x)/x = 1 - x^2/3 + ...
        # to roundoff here; the two-term form lost up to 7 digits
        got = plate_hole_onaxis_self_g1(x * 2.0, 2.0).value
        assert math.isclose(got, -(1.0 - x * x / 3.0) / (8 * math.pi ** 2), rel_tol=4e-16)

    def test_solid_plate_limit(self):
        z = 0.7
        got = plate_hole_onaxis_self_g1(z, 1e-9).value
        assert abs(got - (-1.0 / (8 * math.pi * z))) / (1 / (8 * math.pi * z)) < 1e-8

    def test_even_in_z(self):
        assert plate_hole_onaxis_self_g1(0.3, 1.2).value == \
            plate_hole_onaxis_self_g1(-0.3, 1.2).value

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_always_attractive(self, z, R):
        assert plate_hole_onaxis_self_g1(z, R).value < 0.0

    def test_z_zero_rejected(self):
        with pytest.raises(DomainError):
            plate_hole_onaxis_self_g1(0.0, 1.0)
