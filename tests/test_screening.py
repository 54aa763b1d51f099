import json
import math

import numpy as np
import pytest
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb.cli import main
from greens_coulomb.core import (
    DEFAULT_QUADRATURE,
    Charge,
    CoincidentPointsError,
    DomainError,
    Point3,
)
from greens_coulomb.interactions import pair_energy
from greens_coulomb.screening import DrudeStatic, NonlocalBulk
from greens_coulomb.validate import eps_longitudinal_static, screened_potential_numeric

TF = DrudeStatic(omega_p=1.2e16, omega_p_bound=0.0, omega_0=5e15, beta=1.1e6)
FULL = DrudeStatic(omega_p=8e15, omega_p_bound=9e15, omega_0=4e15, beta=9e5)


def screened(r, qA, qB, p):
    """The closed form: the pair energy of charges r apart in NonlocalBulk(p)."""
    return pair_energy(NonlocalBulk(p), Charge(qA, Point3(0.0, 0.0, 0.0)),
                       Charge(qB, Point3(0.0, 0.0, r))).energy


class TestDrudeStatic:
    def test_derived_constants(self):
        assert FULL.eps_b == 1.0 + (9e15 / 4e15) ** 2
        assert math.isclose(FULL.k_s, 8e15 / (9e5 * math.sqrt(FULL.eps_b)),
                            rel_tol=1e-15)

    def test_thomas_fermi_reduction_exact(self):
        # with no bound response, k_s = omega_p / beta with no roundoff
        assert TF.eps_b == 1.0
        assert TF.k_s == TF.omega_p / TF.beta

    def test_validation(self):
        with pytest.raises(DomainError):
            DrudeStatic(omega_p=-1.0, omega_p_bound=0, omega_0=1.0, beta=1.0)
        with pytest.raises(DomainError):
            DrudeStatic(omega_p=1.0, omega_p_bound=0, omega_0=0.0, beta=1.0)
        with pytest.raises(DomainError):
            DrudeStatic(omega_p=1.0, omega_p_bound=0, omega_0=1.0, beta=0.0)

    @pytest.mark.parametrize("key", ["gamma_free", "gamma_bound"])
    def test_damping_is_rejected(self, key, tmp_path, capsys):
        # damping drops out at zero frequency: a scene that gives it exits 2
        # on an unknown key, and DrudeStatic takes no such parameter
        drude = {"omega_p": 8e15, "omega_p_bound": 9e15, "omega_0": 4e15, "beta": 9e5}
        charges = [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, z]} for z in (0.0, 2e-10)]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"geometry": {"type": "nonlocal_bulk",
                                                  "drude": {**drude, key: 1e13}},
                                     "charges": charges}))
        assert main(["pair-energy", "--scene", str(scene)]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        with pytest.raises(TypeError):
            DrudeStatic(**drude, **{key: 1e13})


class TestPermittivity:
    def test_no_free_carriers_constant(self):
        p = DrudeStatic(omega_p=0.0, omega_p_bound=9e15, omega_0=4e15, beta=9e5)
        for k in (1.0, 1e5, 1e12):
            assert eps_longitudinal_static(k, p) == p.eps_b

    def test_large_k_limit(self):
        assert math.isclose(eps_longitudinal_static(1e25, FULL), FULL.eps_b,
                            rel_tol=1e-9)

    def test_unit_plasma_point(self):
        p = DrudeStatic(omega_p=7e15, omega_p_bound=0.0, omega_0=1e15, beta=1e6)
        assert math.isclose(eps_longitudinal_static(p.omega_p / p.beta, p), 2.0,
                            rel_tol=1e-14)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            eps_longitudinal_static(0.0, FULL)
        with pytest.raises(DomainError):
            eps_longitudinal_static(-1.0, FULL)


class TestScreenedPotential:
    def test_unscreened_when_no_free_carriers(self):
        p = DrudeStatic(omega_p=0.0, omega_p_bound=9e15, omega_0=4e15, beta=9e5)
        r = 1e-9
        assert math.isclose(screened(r, QE, QE, p),
                            QE * QE / (4 * math.pi * epsilon_0 * p.eps_b * r), rel_tol=1e-15)
        # at a distance of inf, k_s r = 0 * inf must not make g NaN
        far = NonlocalBulk(p).g(Point3(1e308, 0.0, 0.0), Point3(-1e308, 0.0, 0.0),
                                DEFAULT_QUADRATURE)
        assert far.value == 0.0

    def test_yukawa_form_invariant(self):
        # U(r) * r * exp(k_s r) is constant
        vals = [screened(r, QE, QE, FULL) * r * math.exp(FULL.k_s * r)
                for r in (5e-11, 2e-10, 9e-10)]
        assert max(vals) - min(vals) <= 1e-10 * abs(vals[0])

    def test_attractive_for_opposite_signs(self):
        assert screened(1e-10, QE, -QE, FULL) < 0.0

    def test_monotone_decay(self):
        rs = np.linspace(5e-11, 2e-9, 40)
        us = [screened(r, QE, QE, FULL) for r in rs]
        assert all(u > 0 for u in us)
        assert all(a > b for a, b in zip(us, us[1:]))

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(CoincidentPointsError):
            screened(0.0, QE, QE, FULL)


class TestNumericRoute:
    def test_free_coulomb_when_unit_eps(self):
        p = DrudeStatic(omega_p=0.0, omega_p_bound=0.0, omega_0=1e15, beta=1e6)
        r = 3e-10
        got = screened_potential_numeric(r, QE, -QE, p)
        exact = -QE * QE / (4 * math.pi * epsilon_0 * r)
        assert abs(got.value - exact) / abs(exact) < 1e-10

    def test_matches_closed_form(self):
        for p in (TF, FULL):
            for r in (5e-11, 2e-10, 1e-9):
                closed = screened(r, QE, QE, p)
                num = screened_potential_numeric(r, QE, QE, p)
                assert abs(num.value - closed) / abs(closed) < 1e-8

    def test_parameter_grid(self):
        # small grid here; the acceptance suite runs the full 125-point grid
        for wp in (1e15, 8e15, 2e16):
            for ratio in (0.0, 1.5):
                for beta in (8e5, 1.6e6):
                    p = DrudeStatic(omega_p=wp, omega_p_bound=ratio * 4e15,
                                    omega_0=4e15, beta=beta)
                    r = 2e-10
                    closed = screened(r, QE, QE, p)
                    num = screened_potential_numeric(r, QE, QE, p)
                    assert abs(num.value - closed) / abs(closed) < 1e-8

    def test_log_slope_recovers_ks(self):
        p = TF
        rs = np.linspace(1.0 / p.k_s, 4.0 / p.k_s, 8)
        ratio = [screened_potential_numeric(r, QE, QE, p).value
                 * (4 * math.pi * epsilon_0 * p.eps_b * r) / QE ** 2 for r in rs]
        slope = float(np.polyfit(rs, np.log(ratio), 1)[0])
        assert abs(slope + p.k_s) / p.k_s < 0.01
