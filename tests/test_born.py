import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb import born, validate
from greens_coulomb.born import (
    Box,
    DensityRegion,
    DiluteBody,
    PolarizabilityTensor,
    born_scattering_g1,
    charge_body_energy,
    charge_molecule_potential,
)
from greens_coulomb.core import (
    Charge,
    CoincidentPointsError,
    DomainError,
    Point3,
    PointInsideBodyError,
    QuadratureSpec,
    distance,
)

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

    def test_reciprocity(self):
        rng = np.random.default_rng(5)
        body = DiluteBody(alpha=ANISO, half_space_eta=HALF_ETA, background_eps=2.5)
        for _ in range(100):
            a, b = (Point3(*rng.uniform(-2.0, 2.0, 2) * NM, rng.uniform(0.05, 3.0) * NM)
                    for _ in range(2))
            ab, ba = born_scattering_g1(a, b, body).value, born_scattering_g1(b, a, body).value
            assert abs(ab - ba) <= 1e-14 * abs(ab)

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
        assert both.abs_err == pytest.approx(boxes.abs_err + half.abs_err, rel=1e-12)
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

    def test_field_point_on_the_plane_rejected(self):
        body = DiluteBody(alpha=ANISO, half_space_eta=HALF_ETA)
        with pytest.raises(PointInsideBodyError):
            born_scattering_g1(Point3(0, 0, 0.0), Point3(0, 0, 1e-9), body)
        with pytest.raises(PointInsideBodyError):
            charge_body_energy(Charge(QE, Point3(1e-9, 0, 0.0)), body)
