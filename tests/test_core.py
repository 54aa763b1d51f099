import math

import pytest
import scipy.constants
from hypothesis import given, strategies as st

from greens_coulomb import core
from greens_coulomb.core import (
    PERFECT_CONDUCTOR,
    Charge,
    DomainError,
    FreeSpace,
    HalfSpace,
    PlateWithHole,
    Point3,
    QuadratureSpec,
    ThreeLayerCavity,
    ValueWithError,
    distance,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.builds(Point3, coords, coords, coords)


def test_constants_are_scipys():
    # written out in core so that importing the package loads no scipy
    assert core.EPSILON_0 == scipy.constants.epsilon_0
    assert core.ELEMENTARY_CHARGE == scipy.constants.elementary_charge


def test_distance_axis_unit():
    assert distance(Point3(0, 0, 0), Point3(0, 0, 1)) == 1.0


def test_distance_122_triple():
    assert distance(Point3(1, 2, 2), Point3(0, 0, 0)) == 3.0


@given(points, points)
def test_distance_symmetric(a, b):
    assert distance(a, b) == distance(b, a)


@given(points, points, points)
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9 * (
        distance(a, c) + 1.0)


@given(points)
def test_distance_nonnegative_and_zero_iff_equal(a):
    assert distance(a, a) == 0.0
    assert distance(a, Point3(a.x + 1.0, a.y, a.z)) > 0.0


def test_mirror_definition():
    assert Point3(1, 2, 3).mirror_z() == Point3(1, 2, -3)
    assert Point3(0, 0, 0).mirror_z() == Point3(0, 0, 0)


@given(points)
def test_mirror_involution(p):
    assert p.mirror_z().mirror_z() == p


def test_cylindrical_helpers():
    assert Point3(3.0, 4.0, -2.0).rho == 5.0


def test_point_rejects_nan():
    with pytest.raises(DomainError):
        Point3(float("nan"), 0, 0)
    with pytest.raises(DomainError):
        Point3(0, float("inf"), 0)


def test_charge_any_sign():
    Charge(-3.2e-19, Point3(0, 0, 0))
    with pytest.raises(DomainError):
        Charge(float("nan"), Point3(0, 0, 0))


class TestGeometryValidation:
    def test_eps_below_one_rejected(self):
        with pytest.raises(DomainError):
            FreeSpace(eps=0.5)
        with pytest.raises(DomainError):
            HalfSpace(0.2, 1.0)
        with pytest.raises(DomainError):
            ThreeLayerCavity(1.0, 0.9, 1.0, 1.0)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(DomainError):
            ThreeLayerCavity(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            ThreeLayerCavity(1.0, 1.0, 1.0, -2.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            PlateWithHole(R=-1e-9)

    def test_conductor_is_enum_state(self):
        hs = HalfSpace(1.0, PERFECT_CONDUCTOR)
        assert hs.eps2 is PERFECT_CONDUCTOR
        assert not isinstance(hs.eps2, float)

    def test_solid_plate_allowed(self):
        assert PlateWithHole(R=0.0).R == 0.0

    def test_two_conductors_rejected(self):
        with pytest.raises(DomainError):
            HalfSpace(PERFECT_CONDUCTOR, PERFECT_CONDUCTOR)


def test_value_with_error_invariants():
    assert ValueWithError(1.0).abs_err == 0.0
    with pytest.raises(DomainError):
        ValueWithError(1.0, -1e-3)
    with pytest.raises(DomainError):
        ValueWithError(float("inf"))


def test_quadrature_spec_invariants():
    spec = QuadratureSpec()
    assert spec.rel_tol > 0 and spec.abs_tol == 0.0
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=-1.0)
    for bad in ({"rel_tol": math.inf}, {"abs_tol": math.inf}):
        with pytest.raises(DomainError):
            QuadratureSpec(**bad)
    # the panels and the octree cells accept 1e-15 of their value as converged
    assert QuadratureSpec(rel_tol=1e-15).rel_tol == 1e-15
    for tiny in (9.9e-16, 1e-300, 5e-324):
        with pytest.raises(DomainError, match="1e-15"):
            QuadratureSpec(rel_tol=tiny)
