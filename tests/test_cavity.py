import math

import numpy as np
import pytest
from scipy.special import digamma, k0

from greens_coulomb.cavity import (
    CavityCoeffs,
    cavity_asymptotic,
    cavity_g_general,
    cavity_g_midpoint,
    cavity_g_series,
    cavity_scattering_g1,
    conducting_gap_g,
    conducting_gap_g1,
    reflection_coeffs,
)
from greens_coulomb.core import (
    PERFECT_CONDUCTOR,
    Charge,
    CoincidentPointsError,
    ConvergenceError,
    DomainError,
    OutOfRegionError,
    Point3,
    QuadratureSpec,
    ThreeLayerCavity,
)
from greens_coulomb.interactions import pair_energy

PC = PERFECT_CONDUCTOR
D = 1.0


class TestReflectionCoeffs:
    def test_no_contrast(self):
        co = reflection_coeffs(1.0, 1.0, 1.0)
        assert co.r1 == 0.0 and co.r3 == 0.0

    def test_conductor_limit(self):
        co = reflection_coeffs(PC, 1.0, PC)
        assert co.r1 == 1.0 and co.r3 == 1.0

    def test_direct_substitution(self):
        assert reflection_coeffs(3.0, 1.0, 1.0).r1 == 0.5

    def test_range_validation(self):
        with pytest.raises(DomainError):
            CavityCoeffs(1.5, 0.0)


class TestSeries:
    def test_zero_reflections_is_free(self):
        for n_max in (1, 10, 400):
            g = cavity_g_series(0.7, D, CavityCoeffs(0.0, 0.0), 2.0, n_max)
            assert math.isclose(g.value, 1.0 / (4 * math.pi * 2.0 * 0.7),
                                rel_tol=1e-14)
            assert g.abs_err == 0.0

    def test_single_interface_collapse(self):
        # r1 = 1, r3 = 0: one image at axial distance d
        rho = 0.8
        g = cavity_g_series(rho, D, CavityCoeffs(1.0, 0.0), 1.0, 5)
        exact = (1.0 / rho - 1.0 / math.hypot(rho, D)) / (4 * math.pi)
        assert math.isclose(g.value, exact, rel_tol=1e-14)

    def test_conductor_truncation_insensitive(self):
        co = reflection_coeffs(PC, 1.0, PC)
        g50 = cavity_g_series(D, D, co, 1.0, 50)
        g100 = cavity_g_series(D, D, co, 1.0, 100)
        assert abs(g50.value - g100.value) < 1e-10 / D

    @pytest.mark.parametrize("rho_over_d", [0.5, 10.0, 12.0, 20.0])
    @pytest.mark.parametrize("n_max", [50, 200, 400])
    def test_conductor_abs_err_covers_modal_series(self, rho_over_d, n_max):
        # midplane between grounded walls: g = sum over odd n of K0(n pi rho/d) / (pi d)
        rho = rho_over_d * D
        n = np.arange(1, 400, 2)
        modal = float(np.sum(k0(n * math.pi * rho / D))) / (math.pi * D)
        g = cavity_g_series(rho, D, reflection_coeffs(PC, 1.0, PC), 1.0, n_max)
        assert abs(g.value - modal) <= g.abs_err

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            cavity_g_series(0.0, D, CavityCoeffs(0.5, 0.5), 1.0, 10)
        with pytest.raises(DomainError):
            cavity_g_series(1.0, D, CavityCoeffs(0.5, 0.5), 1.0, 0)


class TestQuadratureRoute:
    def test_free_limit(self):
        g = cavity_g_midpoint(2.0, D, 1.0, 1.0, 1.0)
        assert abs(g.value - 1.0 / (8 * math.pi)) < 1e-11

    def test_matches_series_conductor(self):
        co = reflection_coeffs(PC, 1.0, PC)
        gq = cavity_g_midpoint(D, D, PC, 1.0, PC)
        gs = cavity_g_series(D, D, co, 1.0, 50)
        assert abs(gq.value - gs.value) <= max(gq.abs_err + gs.abs_err, 1e-9 / D)

    def test_matches_series_grid(self):
        for rho_over_d in (0.1, 1.0, 4.0, 10.0):
            for eps1, eps3 in ((4.0, 8.0), (19.0, PC), (1.0, 80.0)):
                co = reflection_coeffs(eps1, 1.0, eps3)
                q = abs(co.r1 * co.r3)
                n_max = max(80, int(math.log(1e-13) / math.log(q)) + 1) if 0 < q < 1 else 200
                gq = cavity_g_midpoint(rho_over_d * D, D, eps1, 1.0, eps3)
                gs = cavity_g_series(rho_over_d * D, D, co, 1.0, n_max)
                budget = max(gq.abs_err + gs.abs_err, 1e-9 / (rho_over_d * D))
                assert abs(gq.value - gs.value) <= budget

    def test_asymptotic_window_at_5d(self):
        gq = cavity_g_midpoint(5 * D, D, PC, 1.0, PC)
        ga = cavity_asymptotic(5 * D, D, 1.0)
        assert 0.9 <= ga.value / gq.value <= 1.1

    def test_invalid_rho(self):
        with pytest.raises(DomainError):
            cavity_g_midpoint(0.0, D, PC, 1.0, PC)


class TestGeneralHeights:
    def test_specializes_to_midpoint(self):
        g1 = cavity_g_general(0.0, 0.0, 1.3, D, 3.0, 1.5, 7.0)
        g2 = cavity_g_midpoint(1.3, D, 3.0, 1.5, 7.0)
        assert abs(g1.value - g2.value) <= g1.abs_err + g2.abs_err

    def test_uniform_media_is_free(self):
        for z, z0 in ((0.2, -0.3), (0.41, 0.4)):
            g = cavity_g_general(z, z0, 0.9, D, 2.0, 2.0, 2.0)
            exact = 1.0 / (4 * math.pi * 2.0 * math.hypot(0.9, z - z0))
            assert abs(g.value - exact) / exact < 1e-10

    def test_reciprocity(self):
        a = cavity_g_general(0.31, -0.22, 0.9, D, 4.0, 1.0, PC)
        b = cavity_g_general(-0.22, 0.31, 0.9, D, 4.0, 1.0, PC)
        assert abs(a.value - b.value) <= 1e-8 * abs(a.value) + a.abs_err + b.abs_err

    def test_mirror_symmetry_swaps_walls(self):
        a = cavity_g_general(0.31, -0.22, 0.9, D, 4.0, 1.0, PC)
        c = cavity_g_general(-0.31, 0.22, 0.9, D, PC, 1.0, 4.0)
        assert abs(a.value - c.value) <= 1e-10 * abs(a.value) + a.abs_err + c.abs_err

    @pytest.mark.parametrize("eps1,eps3", [(PC, PC), (4.0, PC), (4.0, 8.0)])
    def test_unreachable_tolerance_stops_early(self, eps1, eps3):
        # at 12d the panel errors alone pass a 1e-15 relative target by the
        # 8th panel; running on to the 400-panel budget took 12-54 s
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError, match="panel error .* alone exceeds") as info:
            cavity_g_general(0.1, -0.2, 12.0, D, eps1, 1.0, eps3, spec)
        assert "after 8 panels" in str(info.value)

    def test_out_of_gap_rejected(self):
        with pytest.raises(OutOfRegionError):
            cavity_g_general(0.6 * D, 0.0, 1.0, D, 4.0, 1.0, 4.0)
        with pytest.raises(CoincidentPointsError):
            cavity_g_general(0.2, 0.2, 0.0, D, 4.0, 1.0, 4.0)


class TestScatteringPart:
    def test_zero_without_walls(self):
        g = cavity_scattering_g1(0.1, D, 1.0, 1.0, 1.0)
        assert g.value == 0.0

    def test_midplane_symmetric_walls_derivative_vanishes(self):
        vals = [cavity_scattering_g1(z, D, 8.0, 1.0, 8.0).value
                for z in (-0.01, 0.01)]
        assert abs(vals[1] - vals[0]) / abs(vals[0]) < 1e-6

    def test_approaches_half_space_near_one_wall(self):
        # source close to the lower wall: the upper wall barely matters
        z0 = -0.45 * D
        got = cavity_scattering_g1(z0, D, 6.0, 1.0, 1.0).value
        gap = z0 + 0.5 * D
        image = (6.0 - 1.0) / (6.0 + 1.0)
        half_space = -image / (8 * math.pi * gap)
        assert abs(got - half_space) / abs(half_space) < 0.02

    @pytest.mark.parametrize("z0_over_d", [0.45, 0.3, 0.0, -0.4, 0.49])
    def test_conductor_walls_digamma_closed_form_within_abs_err(self, z0_over_d):
        # g1 = (gamma + (psi(x) + psi(1 - x))/2) / (4 pi eps2 d), x = z0/d + 1/2
        eps2 = 2.0
        x = z0_over_d + 0.5
        exact = ((np.euler_gamma + 0.5 * (digamma(x) + digamma(1.0 - x)))
                 / (4 * math.pi * eps2 * D))
        got = cavity_scattering_g1(z0_over_d * D, D, PC, eps2, PC)
        assert abs(got.value - exact) <= got.abs_err


HEIGHTS = [(0.1, -0.2), (0.0, 0.0), (0.45, 0.4), (-0.49, 0.3), (0.3, 0.3)]


class TestConductingGapClosedForms:
    """The program's mode sum and digamma self-energy against the quadrature,
    where both are accurate, so that no check compares a formula with itself."""

    @pytest.mark.parametrize("rho_over_d", [0.5, 0.8, 1.5, 3.0, 4.5, 6.0])
    @pytest.mark.parametrize("z,z0", HEIGHTS)
    def test_modes_match_quadrature(self, rho_over_d, z, z0):
        got = conducting_gap_g(z * D, z0 * D, rho_over_d * D, D, 2.0)
        ref = cavity_g_general(z * D, z0 * D, rho_over_d * D, D, PC, 2.0, PC)
        assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err
        assert got.abs_err <= 1e-12 * abs(got.value)

    @pytest.mark.parametrize("z0_over_d", [-0.49, -0.3, 0.0, 0.2, 0.45])
    def test_digamma_matches_quadrature(self, z0_over_d):
        got = conducting_gap_g1(z0_over_d * D, D, 3.0)
        ref = cavity_scattering_g1(z0_over_d * D, D, PC, 3.0, PC)
        assert abs(got.value - ref.value) <= ref.abs_err
        assert math.isclose(conducting_gap_g1(0.0, D, 1.0).value,
                            -math.log(2.0) / (2 * math.pi * D), rel_tol=1e-14)

    def test_ratio_to_free_positive_and_asymptotic(self):
        geom = ThreeLayerCavity(PC, 1.0, PC, D)
        b = Charge(1.0, Point3(0.0, 0.0, 0.0))
        for rho in np.geomspace(0.01, 40.0, 60):
            ratio = pair_energy(geom, Charge(1.0, Point3(rho, 0.0, 0.0)), b).ratio_to_free
            assert ratio > 0.0
            if rho >= 12.0:  # the asymptotic form drops the 1/(8 pi rho/d) of K0
                asym = cavity_asymptotic(rho, D, 1.0).value * 4 * math.pi * rho
                assert abs(ratio / asym - 1.0) < 1.0 / (8 * math.pi * rho / D)

    def test_mode_sum_rejects_bad_input(self):
        with pytest.raises(DomainError):
            conducting_gap_g(0.0, 0.1, 0.0, D, 1.0)
        with pytest.raises(OutOfRegionError):
            conducting_gap_g(0.5 * D, 0.1, 1.0, D, 1.0)
        with pytest.raises(OutOfRegionError):
            conducting_gap_g1(-0.5 * D, D, 1.0)


class TestAsymptotic:
    def test_direct_value_at_8d(self):
        g = cavity_asymptotic(8 * D, D, 1.0)
        assert math.isclose(g.value * 4 * math.pi, math.exp(-8 * math.pi) / D,
                            rel_tol=1e-12)

    def test_functional_form_under_doubling(self):
        g1 = cavity_asymptotic(4 * D, D, 1.0).value
        g2 = cavity_asymptotic(8 * D, D, 1.0).value
        assert math.isclose(g2 / g1, math.exp(-4 * math.pi) / math.sqrt(2.0),
                            rel_tol=1e-12)

    def test_warns_out_of_regime(self):
        with pytest.warns(UserWarning):
            cavity_asymptotic(2.0 * D, D, 1.0)

    def test_exponential_suppression_slope(self):
        rs = np.linspace(3.0, 8.0, 11)
        vals = np.array([cavity_g_midpoint(r, D, PC, 1.0, PC).value for r in rs])
        slope = float(np.polyfit(rs, np.log(vals * np.sqrt(rs)), 1)[0])
        assert abs(slope + math.pi / D) / (math.pi / D) < 0.02
