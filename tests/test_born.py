import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import elementary_charge as QE, epsilon_0

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
