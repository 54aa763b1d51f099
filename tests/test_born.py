import math
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb import born, kernels, validate
from greens_coulomb.born import (
    Box,
    DensityRegion,
    DiluteBody,
    PolarizabilityTensor,
    born_scattering_g1,
    charge_body_energy,
)
from greens_coulomb.core import (
    Charge,
    CoincidentPointsError,
    DomainError,
    FreeSpace,
    Point3,
    PointInsideBodyError,
    QuadratureSpec,
    distance,
)
from greens_coulomb.validate import charge_molecule_potential

ALPHA_VOL = 1e-30             # polarizability volume alpha/eps0, m^3
ALPHA = ALPHA_VOL * epsilon_0
ISO = PolarizabilityTensor.isotropic(ALPHA)
SPEC = QuadratureSpec(rel_tol=1e-6)


class TestPolarizabilityTensor:
    def test_symmetry_enforced(self):
        with pytest.raises(DomainError):
            PolarizabilityTensor.from_matrix([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]])

    def test_psd_enforced(self):
        with pytest.raises(DomainError):
            PolarizabilityTensor(1.0, 1.0, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            PolarizabilityTensor(ALPHA, bad, ALPHA)
        with pytest.raises(DomainError):
            PolarizabilityTensor.from_matrix([[ALPHA, 0, 0], [0, ALPHA, 0], [0, 0, bad]])

    def test_matrix_roundtrip(self):
        m = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 3.0]])
        t = PolarizabilityTensor.from_matrix(m)
        assert np.allclose(t.matrix, m)


class TestBox:
    def test_coordinates_beyond_the_largest_admitted_are_a_domain_error(self):
        # at 1e300 m g1 read -0.0 with abs_err 0, where scaling the same
        # body down from 1e40 m gives -2.133e-303
        with pytest.raises(DomainError, match="overflow the Born integrand"):
            Box(1e300, 1.5e300, -2.5e299, 2.5e299, -2.5e299, 2.5e299)
        edge = born.MAX_BOX_COORD
        assert Box(-edge, edge, -edge, edge, -edge, edge).volume > 0.0
        with pytest.raises(DomainError):
            Box(-edge, 2.0 * edge, -1.0, 1.0, -1.0, 1.0)


class TestChargeMoleculePotential:
    def test_isotropic_value(self):
        r = 2e-9
        got = charge_molecule_potential(QE, Point3(0, 0, r), Point3(0, 0, 0), ISO)
        exact = -QE ** 2 * ALPHA / (32 * math.pi ** 2 * epsilon_0 ** 2 * r ** 4)
        assert math.isclose(got, exact, rel_tol=1e-12)

    def test_anisotropic_projection(self):
        t = PolarizabilityTensor(ALPHA, 0.0, 0.0)
        r = 1e-9
        along_x = charge_molecule_potential(QE, Point3(r, 0, 0), Point3(0, 0, 0), t)
        along_y = charge_molecule_potential(QE, Point3(0, r, 0), Point3(0, 0, 0), t)
        exact = -QE ** 2 * ALPHA / (32 * math.pi ** 2 * epsilon_0 ** 2 * r ** 4)
        assert math.isclose(along_x, exact, rel_tol=1e-12)
        assert along_y == 0.0

    def test_even_under_inversion(self):
        a, b = Point3(1e-9, 2e-9, -0.5e-9), Point3(-0.2e-9, 0.4e-9, 1e-9)
        t = PolarizabilityTensor(ALPHA, 0.5 * ALPHA, 2 * ALPHA, 0.1 * ALPHA)
        direct = charge_molecule_potential(QE, a, b, t)
        flipped = charge_molecule_potential(
            QE, Point3(-a.x, -a.y, -a.z), Point3(-b.x, -b.y, -b.z), t)
        assert math.isclose(direct, flipped, rel_tol=1e-12)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=100)
    def test_nonpositive_for_psd(self, x, y, z):
        if x * x + y * y + z * z < 1e-6:
            return
        t = PolarizabilityTensor(2 * ALPHA, ALPHA, 0.5 * ALPHA)
        assert charge_molecule_potential(
            QE, Point3(x * 1e-9, y * 1e-9, z * 1e-9), Point3(0, 0, 0), t) <= 0.0

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            charge_molecule_potential(QE, Point3(0, 0, 0), Point3(0, 0, 0), ISO)


class TestBornScattering:
    def test_empty_body_zero(self):
        body = DiluteBody(alpha=ISO, regions=(
            DensityRegion(Box(-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9), 0.0),))
        g = born_scattering_g1(Point3(0, 0, 1e-9), Point3(0, 0, 2e-9), body, SPEC)
        assert g.value == 0.0

    def test_point_like_body_single_node(self):
        eta = 1e27
        c = np.array([1e-9, 0.0, -0.5e-9])
        half = 1e-12
        box = Box(c[0] - half, c[0] + half, c[1] - half, c[1] + half,
                  c[2] - half, c[2] + half)
        body = DiluteBody(alpha=ISO, regions=(DensityRegion(box, eta),))
        r1, r2 = Point3(0, 0, 1e-9), Point3(0, 0, 2e-9)
        got = born_scattering_g1(r1, r2, body, SPEC).value
        s1 = np.array([0, 0, 1e-9]) - c
        s2 = np.array([0, 0, 2e-9]) - c
        grad_dot = float(s1 @ s2) / (np.linalg.norm(s1) ** 3
                                     * np.linalg.norm(s2) ** 3) / (4 * math.pi) ** 2
        expected = -(eta * box.volume / epsilon_0) * ALPHA * grad_dot
        assert abs(got - expected) / abs(expected) < 1e-6

    def test_half_space_volume_identity(self):
        # int_{z<0} d^3x / |x - h zhat|^4 = pi/h, recovered from the g1 route
        h = 1e-9
        eta = 1e27
        body = DiluteBody(alpha=ISO, half_space_eta=eta)
        g1 = born_scattering_g1(Point3(0, 0, h), Point3(0, 0, h), body, SPEC)
        integral = g1.value * (-(4 * math.pi) ** 2 * epsilon_0) / (eta * ALPHA)
        assert abs(integral - math.pi / h) / (math.pi / h) < 1e-4

    def test_point_inside_body_rejected(self):
        body = DiluteBody(alpha=ISO, half_space_eta=1e27)
        with pytest.raises(PointInsideBodyError):
            born_scattering_g1(Point3(0, 0, -1e-9), Point3(0, 0, 1e-9), body, SPEC)


class TestChargeBodyEnergy:
    def test_single_cell_matches_molecule_potential(self):
        eta = 1e27
        c = np.array([0.5e-9, -0.3e-9, -1e-9])
        half = 1e-12
        box = Box(c[0] - half, c[0] + half, c[1] - half, c[1] + half,
                  c[2] - half, c[2] + half)
        body = DiluteBody(alpha=ISO, regions=(DensityRegion(box, eta),))
        q = Charge(QE, Point3(0, 0, 1e-9))
        got = charge_body_energy(q, body, SPEC).value
        per_molecule = charge_molecule_potential(
            QE, q.position, Point3(*c), ISO)
        assert abs(got - eta * box.volume * per_molecule) / abs(got) < 1e-6

    def test_half_space_closed_form(self):
        h = 1e-9
        eta = 1e27
        body = DiluteBody(alpha=ISO, half_space_eta=eta)
        got = charge_body_energy(Charge(QE, Point3(0, 0, h)), body, SPEC).value
        exact = -QE ** 2 * eta * ALPHA / (32 * math.pi * epsilon_0 ** 2 * h)
        assert abs(got - exact) / abs(exact) < 1e-4

    def test_two_routes_agree(self):
        eta = 5e26
        body = DiluteBody(
            alpha=PolarizabilityTensor(2 * ALPHA, ALPHA, 0.5 * ALPHA),
            regions=(DensityRegion(Box(-2e-9, 1e-9, -1e-9, 2e-9, -3e-9, -1e-9),
                                   eta),))
        q = Charge(QE, Point3(0.3e-9, -0.2e-9, 1.2e-9))
        u_direct = charge_body_energy(q, body, SPEC).value
        g1 = born_scattering_g1(q.position, q.position, body, SPEC).value
        u_from_g1 = QE ** 2 / (2 * epsilon_0) * g1
        assert abs(u_direct - u_from_g1) / abs(u_direct) < 1e-4

    def test_background_screening_consistent(self):
        eta = 5e26
        body = DiluteBody(alpha=ISO, background_eps=3.0,
                          regions=(DensityRegion(
                              Box(-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9), eta),))
        q = Charge(QE, Point3(0, 0, 1e-9))
        u_direct = charge_body_energy(q, body, SPEC).value
        u_from_g1 = QE ** 2 / (2 * epsilon_0) * born_scattering_g1(
            q.position, q.position, body, SPEC).value
        assert abs(u_direct - u_from_g1) / abs(u_direct) < 1e-4


# every entry nonzero: the xz and yz terms must drop out of the half-space
ANISO = PolarizabilityTensor.from_matrix(
    ALPHA * np.array([[2.0, 0.3, 0.7], [0.3, 1.0, -0.5], [0.7, -0.5, 1.5]]))
NM = 1e-9
HALF_ETA = 1e27
OCTREE_TOL = 1e-6
HALF_PAIRS = {
    "self": ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
    "pair": ((0.0, 0.0, 1.0), (0.5, -0.2, 1.4)),
    "pair_wide": ((0.3, 0.1, 0.5), (-1.2, 0.8, 0.2)),
}
PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def _nm(p):
    return Point3(*(c * NM for c in p))


def _half_space_exact(r1, r2, a):
    """The closed form at 50 digits from the same float inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = [Decimal(v) for v in (r2.x - r1.x, r2.y - r1.y)]
        Z = Decimal(r1.z) + Decimal(r2.z)
        R = (d[0] * d[0] + d[1] * d[1] + Z * Z).sqrt()
        A = [[Decimal(float(v)) for v in row] for row in a]
        par = A[0][0] * d[0] * d[0] + 2 * A[0][1] * d[0] * d[1] + A[1][1] * d[1] * d[1]
        return float(PI_50 * ((A[0][0] + A[1][1]) / (Z + R) - par / (R * (Z + R) ** 2)
                              + A[2][2] / R))


class TestHalfSpaceClosedForm:
    """The closed-form half-space against the Born octree on half-cube shells."""

    @pytest.mark.parametrize("eps_bg", [1.0, 2.5])
    @pytest.mark.parametrize("tensor", ["iso", "aniso"])
    @pytest.mark.parametrize("pair", sorted(HALF_PAIRS))
    def test_g1_matches_octree(self, pair, tensor, eps_bg):
        alpha = {"iso": ISO, "aniso": ANISO}[tensor]
        body = DiluteBody(alpha=alpha, half_space_eta=HALF_ETA, background_eps=eps_bg)
        a, b = (_nm(p) for p in HALF_PAIRS[pair])
        got = born_scattering_g1(a, b, body)
        ref = validate.half_space_octree(a, b, alpha.matrix, OCTREE_TOL)
        pref = validate.born_g1_prefactor(HALF_ETA, eps_bg)
        assert abs(got.value - pref * ref.value) <= got.abs_err + abs(pref) * ref.abs_err
        assert 0.0 < got.abs_err <= 1e-14 * abs(got.value)

    @pytest.mark.parametrize("eps_bg", [1.0, 2.5])
    @pytest.mark.parametrize("tensor", ["iso", "aniso"])
    def test_charge_body_energy_matches_octree(self, tensor, eps_bg):
        alpha = {"iso": ISO, "aniso": ANISO}[tensor]
        body = DiluteBody(alpha=alpha, half_space_eta=HALF_ETA, background_eps=eps_bg)
        p = _nm((0.2, -0.1, 0.8))
        got = charge_body_energy(Charge(QE, p), body)
        ref = validate.half_space_octree(p, p, alpha.matrix, OCTREE_TOL)
        pref = -QE ** 2 * HALF_ETA / (32 * math.pi ** 2 * epsilon_0 ** 2 * eps_bg ** 2)
        assert abs(got.value - pref * ref.value) <= got.abs_err + abs(pref) * ref.abs_err
        assert 0.0 < got.abs_err <= 1e-14 * abs(got.value)

    def test_isotropic_pair_is_image_distance(self):
        # int grad(1/|r1 - x|) . grad(1/|r2 - x|) over z < 0 = 2 pi / |r2 - r1*|
        body = DiluteBody(alpha=ISO, half_space_eta=HALF_ETA, background_eps=2.5)
        a, b = _nm((0.3, 0.1, 0.5)), _nm((-1.2, 0.8, 0.2))
        got = born_scattering_g1(a, b, body).value
        exact = -(HALF_ETA * ALPHA / epsilon_0) / (8 * math.pi * 2.5 ** 2
                                                   * distance(a, b.mirror_z()))
        assert math.isclose(got, exact, rel_tol=1e-14)

    def test_abs_err_bounds_roundoff(self):
        # includes near-cancelling terms: alpha along x, offset along x, Z << R
        rng = np.random.default_rng(11)
        tensors = [ANISO.matrix / ALPHA, np.diag([1.0, 0.0, 0.0]), np.eye(3)]
        for i in range(300):
            a = tensors[i % 3]
            z1, z2 = 10.0 ** rng.uniform(-8, 1, 2)
            r1 = Point3(0.0, 0.0, z1)
            r2 = Point3(*(10.0 ** rng.uniform(-3, 2) * rng.choice([-1, 1], 2)), z2)
            val, err = born._half_space_integral(r1, r2, a)
            assert 0.0 < err
            assert abs(val - _half_space_exact(r1, r2, a)) <= err

    def test_boxes_and_half_space_add(self):
        region = DensityRegion(Box(-1 * NM, 1 * NM, -1 * NM, 1 * NM, 0.0, 0.5 * NM), 2e27)
        a, b = _nm((0.1, 0.2, 1.0)), _nm((1.5, -0.3, 0.8))

        def body(regions, half):
            return DiluteBody(alpha=ANISO, regions=regions, half_space_eta=half,
                              background_eps=1.5)
        both, boxes, half = (born_scattering_g1(a, b, body(*k), SPEC) for k in (
            ((region,), HALF_ETA), ((region,), None), ((), HALF_ETA)))
        assert abs(both.value - (boxes.value + half.value)) <= 1e-15 * abs(both.value)
        assert both.abs_err == pytest.approx(boxes.abs_err + half.abs_err, rel=1e-12, abs=0.0)
        ref = validate.half_space_octree(a, b, ANISO.matrix, OCTREE_TOL)
        pref = validate.born_g1_prefactor(HALF_ETA, 1.5)
        assert (abs(both.value - boxes.value - pref * ref.value)
                <= both.abs_err + boxes.abs_err + abs(pref) * ref.abs_err)
        q = Charge(QE, a)
        u_both = charge_body_energy(q, body((region,), HALF_ETA), SPEC)
        u_parts = [charge_body_energy(q, body(*k), SPEC).value
                   for k in (((region,), None), ((), HALF_ETA))]
        assert abs(u_both.value - sum(u_parts)) <= 1e-15 * abs(u_both.value)
        assert abs(u_both.value - QE ** 2 / (2 * epsilon_0) * born_scattering_g1(
            a, a, body((region,), HALF_ETA), SPEC).value) / abs(u_both.value) < 1e-4

    @pytest.mark.parametrize("other", ["half_space", "box"])
    def test_gradients_add(self, other):
        # the self-gradient and the pair gradient less the direct term, of a
        # box and the half-space or of two boxes, each part weighted by its eta
        region = DensityRegion(Box(-1 * NM, 1 * NM, -1 * NM, 1 * NM, 0.0, 0.5 * NM), 2e27)
        second = DensityRegion(Box(1.5 * NM, 2.5 * NM, -1 * NM, 1 * NM, -1 * NM, 0.3 * NM), 3e27)
        a, b = _nm((0.1, 0.2, 1.0)), _nm((1.5, -0.3, 0.8))

        def body(regions, half=None):
            return DiluteBody(alpha=ANISO, regions=regions, half_space_eta=half,
                              background_eps=1.5)
        # the whole body, then its parts
        bodies = ([body((region,), HALF_ETA), body((region,)), body((), HALF_ETA)]
                  if other == "half_space" else
                  [body((region, second)), body((region,)), body((second,))])
        free = FreeSpace(1.5)

        def scattered(body, p):
            return body.g(p, b, SPEC).value - free.g(p, b, SPEC).value

        for grad, energy in (
                (lambda body: body.grad_g1(a, SPEC), lambda body, p: body.g1(p, SPEC).value),
                (lambda body: np.array(body.grad_g(a, b, SPEC)) - free.grad_g(a, b, SPEC),
                 scattered)):
            whole, *each = [np.array(grad(body)) for body in bodies]
            size = sum(np.linalg.norm(g) for g in each)
            assert np.linalg.norm(whole - sum(each)) <= 1e-15 * size
            for body, g in zip(bodies, [whole] + each):
                stencil = validate.stencil_gradient(lambda p: energy(body, p), a, 0.5e-4 * NM)
                assert np.linalg.norm(g - stencil) <= validate.FORCE_TOL * np.linalg.norm(g)

    def test_field_point_on_the_plane_rejected(self):
        body = DiluteBody(alpha=ANISO, half_space_eta=HALF_ETA)
        with pytest.raises(PointInsideBodyError):
            born_scattering_g1(Point3(0, 0, 0.0), Point3(0, 0, 1e-9), body)
        with pytest.raises(PointInsideBodyError):
            charge_body_energy(Charge(QE, Point3(1e-9, 0, 0.0)), body)


def _box_integral_50(box, r, a, dps=100):
    """int over the box of s.alpha.s / s^6, s = x - r, by the face sums of
    1/s^4 = -div(s/s^4) and s_i s_j / s^6 = [d_i d_j (1/s^2) + 2 delta_ij / s^4] / 8
    in their textbook form, which divides by t^2; at `dps` digits the
    cancellation leaves well over 50."""
    with mp.workdps(max(dps, mp.mp.dps)):
        lo = [mp.mpf(b) - mp.mpf(c) for b, c in zip((box.x0, box.y0, box.z0), r)]
        hi = [mp.mpf(b) - mp.mpf(c) for b, c in zip((box.x1, box.y1, box.z1), r)]
        A = [[mp.mpf(float(v)) for v in row] for row in a]
        trace = A[0][0] + A[1][1] + A[2][2]

        def arc(l0, l1, b):  # int dl / (l^2 + b^2)
            return 1 / l0 - 1 / l1 if b == 0 else (mp.atan(l1 / b) - mp.atan(l0 / b)) / b

        total = mp.mpf(0)
        for m in range(3):
            u, v = (m + 1) % 3, (m + 2) % 3
            for sign, t in ((-1, lo[m]), (1, hi[m])):
                # t int dA / s^4 over the face: sum over edges of d atan(l/a)/(2 t a);
                # 0 at t = 0, where the foot is off the face
                tk = mp.mpf(0)
                if t != 0:
                    for w, l0, l1 in ((u, lo[v], hi[v]), (v, lo[u], hi[u])):
                        for d in (-lo[w], hi[w]):
                            tk += d * arc(l0, l1, mp.sqrt(d * d + t * t)) / (2 * t)
                ku, kv = (sum(-side * arc(lo[o], hi[o], mp.sqrt(e * e + t * t)) / 2
                              for side, e in ((-1, lo[w]), (1, hi[w])))
                          for w, o in ((u, v), (v, u)))
                total -= sign * ((A[m][m] + trace) * tk + A[m][u] * ku + A[m][v] * kv) / 4
        return total


def _box_grad_50(box, r, a):
    """Central differences of _box_integral_50 at 160 digits, step 1e-30
    (below 1e-16 of the distance to the box for every point tested)."""
    with mp.workdps(160):
        def along(m):
            return lambda x: _box_integral_50(box, [x if i == m else r[i] for i in range(3)], a)
        return [mp.diff(along(m), mp.mpf(r[m]), h=mp.mpf("1e-30")) for m in range(3)]


UNIT_BOX = Box(-1.0, 1.0, -1.0, 1.0, -2.0, -1.0)
FULL = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]])
# field points against UNIT_BOX, whose top face is z = -1
BOX_POINTS = {
    "0.2_above_face_centre": (0.0, 0.0, -0.8),
    "1e-9_above_face": (0.1, 0.2, -1.0 + 1e-9),
    "in_face_plane_beside": (1.3, 0.2, -1.0),
    "on_edge_line_beyond": (1.0, 3.0, -1.0),
    "near_edge": (1.0 + 1e-7, 0.3, -1.0 + 2e-7),
    "near_corner": (1.0 + 1e-7, 1.0 + 2e-7, -1.0 + 3e-8),
    "below": (0.3, 0.2, -2.5),
    "ten_sizes_away": (10.0, 10.0, 10.0),
}


class TestBoxSelfClosedForm:
    """The closed-form box self-term against 50-digit references and the octree."""

    @pytest.mark.parametrize("tensor", ["iso", "full"])
    @pytest.mark.parametrize("name", sorted(BOX_POINTS))
    def test_value_within_abs_err(self, name, tensor):
        a = {"iso": np.eye(3), "full": FULL}[tensor]
        r = BOX_POINTS[name]
        val, err = born._box_self_integral(UNIT_BOX, Point3(*r), a)
        exact = _box_integral_50(UNIT_BOX, r, a)
        assert abs(mp.mpf(val) - exact) <= err <= 1e-10 * abs(val)

    @pytest.mark.parametrize("name", sorted(BOX_POINTS))
    def test_gradient_within_bound(self, name):
        r = BOX_POINTS[name]
        grad, err = born._box_self_grad(UNIT_BOX, Point3(*r), FULL)
        exact = _box_grad_50(UNIT_BOX, r, FULL)
        assert max(abs(mp.mpf(g) - x) for g, x in zip(grad, exact)) <= err
        assert err <= 1e-10 * math.hypot(*grad)

    def test_random_points_within_abs_err(self):
        # a box off the origin, points from 1e-12 to 5 box sizes off each face,
        # edge and corner region, and on the planes of the faces; the gradient
        # at every fourth
        rng = np.random.default_rng(2)
        box = Box(3.0, 3.5, -1.0, 0.25, 0.5, 1.25)
        lo, hi = np.array([3.0, -1.0, 0.5]), np.array([3.5, 0.25, 1.25])
        a = FULL @ FULL
        for i in range(60):
            r = rng.uniform(lo - 1.0, hi + 1.0)
            for axis in rng.permutation(3)[:rng.integers(1, 4)]:
                side = rng.choice([lo[axis], hi[axis]])
                off = 0.0 if i % 7 == 0 else 10.0 ** rng.uniform(-12, 0.7)
                r[axis] = side + (off if side == hi[axis] else -off)
            p = Point3(*r)
            if box.contains(p):
                continue
            val, err = born._box_self_integral(box, p, a)
            assert abs(mp.mpf(val) - _box_integral_50(box, r, a)) <= err
            if i % 4 == 0:
                grad, err = born._box_self_grad(box, p, a)
                exact = _box_grad_50(box, r, a)
                assert max(abs(mp.mpf(g) - x) for g, x in zip(grad, exact)) <= err

    def test_far_points_hand_over_to_the_octree(self):
        # the face terms cancel: at 100 box sizes the bound exceeds the
        # default rel_tol, and born_scattering_g1 is the octree's sum
        body = DiluteBody(alpha=PolarizabilityTensor.from_matrix(ALPHA * FULL),
                          regions=(DensityRegion(UNIT_BOX, 1e27),), background_eps=2.5)
        near, far = Point3(10.0, 10.0, 10.0), Point3(100.0, 50.0, 60.0)
        pref = validate.born_g1_prefactor(1e27, 2.5)
        for p, closed in ((near, True), (far, False)):
            val, err = born._box_self_integral(UNIT_BOX, p, body.alpha.matrix)
            assert (err <= 1e-10 * abs(val)) == closed
            got = born_scattering_g1(p, p, body)
            octree = validate.box_octree(p, p, [UNIT_BOX], body.alpha.matrix, 1e-10)
            exact = _box_integral_50(UNIT_BOX, (p.x, p.y, p.z), ALPHA * FULL)
            assert abs(mp.mpf(got.value) - pref * exact) <= got.abs_err
            if not closed:
                assert got.value == pytest.approx(pref * octree.value, rel=1e-14, abs=0.0)
                assert got.abs_err == pytest.approx(abs(pref) * octree.abs_err, rel=1e-14,
                                                    abs=0.0)

    def test_lengths_beyond_float64_hand_over_to_the_octree(self):
        # 1e-200 above a face the gradient's 1/t^2 underflows to a division by
        # zero, and 1e-320 above it the value's 1/t overflows to inf; a box of
        # 1e-300 seen from 1e10 overflows once divided by its side
        alpha = np.eye(3)
        slab = Box(-1.0, 1.0, -1.0, 1.0, -1.0, 0.0)
        assert born._closed_form(born._box_self_grad, slab, Point3(0, 0, 1e-200), alpha) is None
        assert born._closed_form(born._box_self_integral, slab, Point3(0, 0, 1e-320),
                                 alpha) is None
        speck = Box(0.0, 1e-300, 0.0, 1e-300, 0.0, 1e-300)
        assert born._closed_form(born._box_self_integral, speck, Point3(1e10, 0, 0),
                                 alpha) is None
        body = DiluteBody(alpha=ISO, regions=(DensityRegion(speck, 1e27),))
        got = born_scattering_g1(Point3(1e10, 0, 0), Point3(1e10, 0, 0), body)
        assert got.value == 0.0 and got.abs_err == 0.0

    def test_anisotropic_background_eps_matches_octree(self):
        body = DiluteBody(alpha=PolarizabilityTensor.from_matrix(ALPHA * FULL),
                          regions=(DensityRegion(UNIT_BOX, 1e27),), background_eps=2.5)
        pref = validate.born_g1_prefactor(1e27, 2.5)
        for r in ((0.0, 0.0, -0.8), (1.2, 0.3, -1.3), (1.1, 1.2, -0.9)):
            p = Point3(*r)
            got = born_scattering_g1(p, p, body)
            octree = validate.box_octree(p, p, [UNIT_BOX], body.alpha.matrix, 1e-8)
            assert abs(got.value - pref * octree.value) <= (got.abs_err
                                                            + abs(pref) * octree.abs_err)
            exact = _box_integral_50(UNIT_BOX, r, ALPHA * FULL)
            assert abs(mp.mpf(got.value) - pref * exact) <= got.abs_err
            u = charge_body_energy(Charge(QE, p), body)
            assert u.value == pytest.approx(QE ** 2 / (2 * epsilon_0) * got.value,
                                            rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r", [(0.0, 0.0, -0.8), (1.2, 0.3, -1.3), (1.1, 1.2, -0.9)])
    def test_self_force_matches_octree_and_difference(self, r):
        body = DiluteBody(alpha=PolarizabilityTensor.from_matrix(ALPHA * FULL),
                          regions=(DensityRegion(UNIT_BOX, 1e27),), background_eps=2.5)
        p = Point3(*r)
        grad = np.array(body.grad_g1(p, SPEC))
        grad_r1, _ = born._box_octree(kernels.alpha_chain_grad_sum, UNIT_BOX, p, p,
                                      body.alpha.matrix, 1e-8, power=2)
        octree = 2.0 * validate.born_g1_prefactor(1e27, 2.5) * np.array(grad_r1)
        assert np.linalg.norm(grad - octree) <= 1e-6 * np.linalg.norm(grad)
        h = 1e-6
        for m in range(3):
            step = np.eye(3)[m] * h
            diff = (born_scattering_g1(Point3(*(np.array(r) + step)),
                                       Point3(*(np.array(r) + step)), body).value
                    - born_scattering_g1(Point3(*(np.array(r) - step)),
                                         Point3(*(np.array(r) - step)), body).value) / (2 * h)
            assert abs(grad[m] - diff) <= 1e-8 * np.linalg.norm(grad)

    @pytest.mark.parametrize("z", [30.0, 100.0, 1000.0])
    def test_far_self_force_takes_the_octree(self, z, monkeypatch):
        # the closed form's bound over |grad| is 1.4e-10, 1.5e-8 and 1.4e-4 at
        # these heights, past the default rel_tol: the self-gradient is twice
        # the octree's gradient in the first point
        body = validate.table()["born_box"].geom
        spec, p = QuadratureSpec(), Point3(0.3, -0.2, z)
        used = []
        octree = born._box_octree
        monkeypatch.setattr(born, "_box_octree",
                            lambda kernel, *args, **kw: used.append(kernel) or octree(
                                kernel, *args, **kw))
        grad = np.array(body.grad_g1(p, spec))
        monkeypatch.undo()
        assert used == [kernels.alpha_chain_grad_sum]
        stencil = validate.stencil_gradient(lambda c: body.g1(c, spec).value, p, 1e-4 * z)
        assert np.linalg.norm(grad - stencil) <= validate.FORCE_TOL * np.linalg.norm(grad)
