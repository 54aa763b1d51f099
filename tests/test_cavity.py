import json
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import digamma, k0

from greens_coulomb import cavity
from greens_coulomb.cavity import (
    IMAGE_ORDER_MAX,
    CavityCoeffs,
    cavity_g_general,
    cavity_g_images_many,
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
    CoulombError,
    DomainError,
    OutOfRegionError,
    Point3,
    QuadratureSpec,
    ThreeLayerCavity,
)
from greens_coulomb.cli import main
from greens_coulomb.interactions import pair_energy
from greens_coulomb.validate import cavity_asymptotic, cavity_g_series

PC = PERFECT_CONDUCTOR
D = 1.0


def cav(eps1, eps2, eps3, d=D):
    return ThreeLayerCavity(eps1, eps2, eps3, d)


def images(z, z0, rho, eps1, eps2, eps3, spec=QuadratureSpec()):
    """cavity_g_images_many at the one point (z, z0, rho), in a gap of width D."""
    return next(cavity_g_images_many(cav(eps1, eps2, eps3), [(z, z0, rho)], spec))


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

    @pytest.mark.parametrize("walls", [(1.0, PC, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 0.5),
                                       (-2.0, 2.0, 1.0)])
    def test_rejects_what_is_no_gap(self, walls):
        with pytest.raises(DomainError):
            reflection_coeffs(*walls)


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
        with pytest.raises(DomainError):  # summed off the midplane only where |r1 r3| < 1
            cavity_g_series(1.0, D, reflection_coeffs(PC, 1.0, PC), 1.0, 10, z=0.1)
        with pytest.raises(OutOfRegionError):
            cavity_g_series(1.0, D, CavityCoeffs(0.5, 0.5), 1.0, 10, z0=0.5)


class TestQuadratureRoute:
    def test_free_limit(self):
        g = cavity_g_general(cav(1.0, 1.0, 1.0), 0.0, 0.0, 2.0)
        assert abs(g.value - 1.0 / (8 * math.pi)) < 1e-11

    def test_matches_series_conductor(self):
        co = reflection_coeffs(PC, 1.0, PC)
        gq = cavity_g_general(cav(PC, 1.0, PC), 0.0, 0.0, D)
        gs = cavity_g_series(D, D, co, 1.0, 50)
        assert abs(gq.value - gs.value) <= max(gq.abs_err + gs.abs_err, 1e-9 / D)

    def test_matches_series_grid(self):
        for rho_over_d in (0.1, 1.0, 4.0, 10.0):
            for eps1, eps3 in ((4.0, 8.0), (19.0, PC), (1.0, 80.0)):
                co = reflection_coeffs(eps1, 1.0, eps3)
                q = abs(co.r1 * co.r3)
                n_max = max(80, int(math.log(1e-13) / math.log(q)) + 1) if 0 < q < 1 else 200
                gq = cavity_g_general(cav(eps1, 1.0, eps3), 0.0, 0.0, rho_over_d * D)
                gs = cavity_g_series(rho_over_d * D, D, co, 1.0, n_max)
                budget = max(gq.abs_err + gs.abs_err, 1e-9 / (rho_over_d * D))
                assert abs(gq.value - gs.value) <= budget

    def test_asymptotic_window_at_5d(self):
        gq = cavity_g_general(cav(PC, 1.0, PC), 0.0, 0.0, 5 * D)
        ga = cavity_asymptotic(5 * D, D, 1.0)
        assert 0.9 <= ga.value / gq.value <= 1.1

    def test_invalid_rho(self):
        with pytest.raises(DomainError):
            cavity_g_general(cav(PC, 1.0, PC), 0.0, 0.0, -1.0)
        with pytest.raises(CoincidentPointsError):
            cavity_g_general(cav(PC, 1.0, PC), 0.0, 0.0, 0.0)


class TestGeneralHeights:
    def test_uniform_media_is_free(self):
        for z, z0 in ((0.2, -0.3), (0.41, 0.4)):
            g = cavity_g_general(cav(2.0, 2.0, 2.0), z, z0, 0.9)
            exact = 1.0 / (4 * math.pi * 2.0 * math.hypot(0.9, z - z0))
            assert abs(g.value - exact) / exact < 1e-10

    def test_mirror_symmetry_swaps_walls(self):
        a = cavity_g_general(cav(4.0, 1.0, PC), 0.31, -0.22, 0.9)
        c = cavity_g_general(cav(PC, 1.0, 4.0), -0.31, 0.22, 0.9)
        assert abs(a.value - c.value) <= 1e-10 * abs(a.value) + a.abs_err + c.abs_err

    @pytest.mark.parametrize("eps1,eps3", [(PC, PC), (4.0, PC), (4.0, 8.0)])
    def test_unreachable_tolerance_stops_early(self, eps1, eps3):
        # at 12d the panel errors alone pass a 1e-15 relative target by the
        # 8th panel; running on to the 400-panel budget took 12-54 s
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError, match="panel error .* alone exceeds") as info:
            cavity_g_general(cav(eps1, 1.0, eps3), 0.1, -0.2, 12.0, spec)
        assert "after 8 panels" in str(info.value)

    @pytest.mark.parametrize("rho", [0.01, 0.1, 0.45])
    def test_roundoff_past_the_target_raises(self, rho):
        # the rule sums' roundoff alone exceeds a 1e-15 target here; left out
        # of the stop test, it came back in an abs_err of 2.6e-15 to 7.1e-15 |g|
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError, match="roundoff .* alone exceeds") as info:
            cavity_g_general(cav(PC, 1.0, PC), 0.1, -0.2, rho, spec)
        assert "after 8 panels" in str(info.value)

    @pytest.mark.parametrize("eps1,eps3", [(4.0, 8.0), (4.0, PC), (PC, PC)])
    def test_close_pair_at_two_heights_keeps_its_surface_term(self, eps1, eps3):
        # 2e-4 d apart, 1.2e-4 d of it vertical: the layered kernel's free
        # term hid the reflected part below its 1e-12 abs floor here
        z0, dz, rho = 0.1 * D, 1.2e-4 * D, 1.6e-4 * D
        got = cavity_g_general(cav(eps1, 1.0, eps3), z0 + dz, z0, rho)
        if eps1 is PC:
            ref = conducting_gap_g(cav(PC, 1.0, PC), z0 + dz, z0, rho)
        else:
            ref = cavity_g_series(rho, D, reflection_coeffs(eps1, 1.0, eps3), 1.0, 400,
                                  z=z0 + dz, z0=z0)
        assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err

    def test_out_of_gap_rejected(self):
        with pytest.raises(OutOfRegionError):
            cavity_g_general(cav(4.0, 1.0, 4.0), 0.6 * D, 0.0, 1.0)
        with pytest.raises(CoincidentPointsError):
            cavity_g_general(cav(4.0, 1.0, 4.0), 0.2, 0.2, 0.0)


class TestImageRoute:
    """The image series that ThreeLayerCavity sums wherever a wall is a
    dielectric, against the Hankel quadrature, which shares no code with
    it, within their combined abs_err."""

    # r1 r3 = 0.47 and 0.6, a negative one (eps2 = 4 between 1.5 and a
    # conductor: -0.45), and 0.98, within the order cap at these points
    LAYERS = [(4.0, 1.0, 8.0), (4.0, 1.0, PC), (1.5, 4.0, PC), (200.0, 1.0, 200.0)]
    HEIGHTS = [(0.1, -0.2), (0.45, 0.4), (-0.49, 0.3), (0.0, 0.0)]

    @staticmethod
    def target(got, r):
        # rel_tol 1e-10, or the 1e-12 floor of the free-space value
        return max(1e-10 * abs(got.value), 1e-12 / (4 * math.pi * max(r, 0.05 * D)))

    @pytest.mark.parametrize("eps1,eps2,eps3", LAYERS)
    @pytest.mark.parametrize("rho_over_d", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_matches_hankel(self, eps1, eps2, eps3, rho_over_d):
        rho = rho_over_d * D
        for z, z0 in self.HEIGHTS:
            got = images(z * D, z0 * D, rho, eps1, eps2, eps3)
            ref = cavity_g_general(cav(eps1, eps2, eps3), z * D, z0 * D, rho)
            assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err
            assert got.abs_err <= self.target(got, math.hypot(rho, (z - z0) * D))

    @pytest.mark.parametrize("eps1,eps3", [(4.0, 8.0), (4.0, PC)])
    def test_close_pair_at_two_heights(self, eps1, eps3):
        z0, dz, rho = 0.1 * D, 1.2e-4 * D, 1.6e-4 * D
        got = images(z0 + dz, z0, rho, eps1, 1.0, eps3)
        ref = cavity_g_general(cav(eps1, 1.0, eps3), z0 + dz, z0, rho)
        assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err

    @pytest.mark.parametrize("eps1,eps2,eps3", LAYERS)
    def test_coincident_points_give_g1(self, eps1, eps2, eps3):
        for z0 in (-0.49, -0.3, 0.0, 0.2, 0.45):
            got = images(z0 * D, z0 * D, 0.0, eps1, eps2, eps3)
            ref = cavity_scattering_g1(cav(eps1, eps2, eps3), z0 * D)
            assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err
            assert got.abs_err <= self.target(got, 0.0)

    def test_order_cap(self, monkeypatch):
        # at rho = d the series of r1 r3 = 0.9943 fits the cap and that of
        # 0.9947 does not, which returns the Hankel route's value instead
        pair = (0.1 * D, -0.2 * D, D, D)
        general = cavity.cavity_g_general
        for eps, below in ((700.0, True), (730.0, False)):
            calls = []
            monkeypatch.setattr(cavity, "cavity_g_general",
                                lambda *args: calls.append(args) or general(*args))
            geom = ThreeLayerCavity(eps, 1.0, eps, D)
            got = geom.g(Point3(D, 0.0, 0.1 * D), Point3(0.0, 0.0, -0.2 * D),
                         QuadratureSpec())
            monkeypatch.undo()
            hankel = cavity_g_general(cav(eps, 1.0, eps), *pair[:3])
            assert len(calls) == (0 if below else 1)
            assert got == images(0.1 * D, -0.2 * D, D, eps, 1.0, eps)
            if below:
                assert abs(got.value - hankel.value) <= got.abs_err + hankel.abs_err
            else:
                assert got == hankel

    def test_geometry_takes_the_series_where_a_wall_is_a_dielectric(self):
        spec = QuadratureSpec()
        for eps1, eps2, eps3 in self.LAYERS[:3]:
            geom = ThreeLayerCavity(eps1, eps2, eps3, D)
            got = geom.g(Point3(0.3, 0.4, 0.1), Point3(0.0, 0.0, -0.2), spec)
            assert got == images(0.1, -0.2, 0.5, eps1, eps2, eps3, spec)
            assert geom.g1(Point3(0.3, 0.4, 0.1), spec) == images(
                0.1, 0.1, 0.0, eps1, eps2, eps3, spec)

    def test_orders_stay_below_the_cap(self, monkeypatch):
        # no array grows like 1/(1 - |r1 r3|): at r1 r3 = 1 - 4e-6 the series
        # sums at most the cap's orders and returns the Hankel route's value
        sizes = []
        orders = cavity._image_orders

        def counted(p, n):
            sizes.append(n)
            return orders(p, n)
        monkeypatch.setattr(cavity, "_image_orders", counted)
        for rho in (0.01, 1.0, 20.0):
            assert images(0.1, -0.2, rho, 1e6, 1.0, 1e6) == cavity_g_general(
                cav(1e6, 1.0, 1e6), 0.1, -0.2, rho)
        assert sizes == [IMAGE_ORDER_MAX + 1] * 3

    def test_overflow_is_a_domain_error(self):
        # g1 of a charge 5e-316 m below the upper wall of a 1e-300 m gap
        # exceeds float64, and no numpy warning escapes
        z = 0.5 * 1e-300 * (1.0 - 1e-15)
        with pytest.raises(DomainError, match="overflows float64"):
            next(cavity_g_images_many(cav(4.0, 1.0, 8.0, 1e-300), [(z, z, 0.0)]))

    def test_overflow_past_the_cap_is_a_domain_error(self):
        # walls of 1e13 about a 1e-300 m gap: every term is finite, but the
        # tail bound at the cap, divided by 1 - r1 r3 = 4e-13, is not
        with pytest.raises(DomainError, match="overflows float64"):
            next(cavity_g_images_many(cav(1e13, 1.0, 1e13, 1e-300),
                                      [(0.1e-300, -0.2e-300, 0.3e-300)]))

    def test_roundoff_past_the_target_raises(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError, match="image series .* bound .* exceeds"):
            images(0.1, -0.2, 2.0, 4.0, 1.0, 8.0, spec)


# Walls of the batched series: r1 r3 < 0, one conducting wall, and r1 r3 just
# under (700) and just past (730) the order cap at rho = d
BATCH_WALLS = [(1.0, 4.0, 16.0), (PC, 1.0, 4.0), (700.0, 1.0, 700.0), (730.0, 1.0, 730.0)]
# the default spec, and now and then one whose target the roundoff exceeds
BATCH_SPECS = [QuadratureSpec()] * 3 + [QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)]
_inside = st.floats(-0.49 * D, 0.49 * D)
_near_wall = st.builds(lambda side, gap: side * (0.5 * D - gap),
                       st.sampled_from([-1.0, 1.0]), st.floats(1e-12 * D, 1e-6 * D))


@st.composite
def _height(draw):
    """A height in the gap, often within 1e-6 d of a wall, now and then outside it."""
    if draw(st.integers(0, 19)) == 0:
        return 0.5 * D
    return draw(st.one_of(_inside, _near_wall))


@st.composite
def image_points(draw):
    """(z, z0, rho) of a pair, or (z, z, 0) of a g1 point."""
    z = draw(_height())
    if draw(st.booleans()):
        return z, z, 0.0
    rho = draw(st.one_of(st.just(0.0), st.floats(1e-3 * D, 30.0 * D)))
    z0 = draw(_height())
    assume(rho > 0.0 or z0 != z)
    return z, z0, rho


def _outcomes(values):
    """The repr of each value of an iteration, up to the class of the
    CoulombError that ends it."""
    out = []
    try:
        for got in values:
            out.append((repr(got.value), repr(got.abs_err)))
    except CoulombError as exc:
        out.append(type(exc))
    return out


class TestImageBatch:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(walls=st.sampled_from(BATCH_WALLS), spec=st.sampled_from(BATCH_SPECS),
           points=st.lists(image_points(), min_size=1, max_size=12))
    def test_batch_equals_one_call_per_point(self, walls, spec, points):
        eps1, eps2, eps3 = walls
        batch = _outcomes(cavity_g_images_many(cav(eps1, eps2, eps3), points, spec))
        alone = _outcomes(value for point in points
                          for value in cavity_g_images_many(cav(eps1, eps2, eps3), [point], spec))
        assert batch == alone

    def test_blocks_stay_under_the_bound(self, tmp_path, monkeypatch):
        # a 200-point sweep past the order cap, 4,098 orders per point, is
        # summed in blocks that each hold at most _IMAGE_BLOCK values
        blocks = []
        orders = cavity._image_orders

        def counted(pairs, n):
            blocks.append((len(pairs), (n + 1) * len(pairs)))
            return orders(pairs, n)
        monkeypatch.setattr(cavity, "_image_orders", counted)
        scene = tmp_path / "cap.json"
        scene.write_text(json.dumps({
            "geometry": {"type": "cavity", "eps1": 1000.0, "eps2": 1.0, "eps3": 1000.0,
                         "d": D},
            "charges": [{"q": 1.0, "unit": "e", "position": [0.3, 0.0, 0.1]},
                        {"q": -1.0, "unit": "e", "position": [0.0, 0.0, -0.2]}]}))
        assert main(["sweep", "--scene", str(scene), "--param", "charges.0.position.0",
                     "--min", "0.01", "--max", "20", "--num", "200", "--log",
                     "--out", str(tmp_path / "cap.csv")]) == 0
        assert sum(points for points, _ in blocks) == 200
        assert max(size for _, size in blocks) <= cavity._IMAGE_BLOCK
        assert max(size for _, size in blocks) > IMAGE_ORDER_MAX


def _image_series(z, z0, rho, r1=1.0, r3=1.0):
    """4 pi eps2 g (d = D) between walls of reflection coefficients r1 and r3,
    conducting by default, or g1 at coincident points: the series that
    cavity_g_images_many sums, order by order, by a 40-digit mpmath.nsum."""
    with mp.workdps(40):
        z, z0, rho, d, r1, r3 = (mp.mpf(v) for v in (z, z0, rho, D, r1, r3))
        upper, lower = max(z, z0), min(z, z0)
        a, b1, b3 = upper - lower, d + upper + lower, d - upper - lower

        def dist(s):
            return mp.sqrt(rho ** 2 + s ** 2)

        def order(j):
            x = 2 * j * d
            return (r1 * r3) ** j * (1 / dist(x + a) + 1 / dist(x - a)
                                     - r1 / dist(x + b1) - r3 / dist(x + b3))
        free = 1 / dist(a) if rho or a else 0
        return free - r1 / dist(b1) - r3 / dist(b3) + mp.nsum(order, [1, mp.inf])


def _gap_pairs(seed, n, rho_min, rho_max, interior=True):
    """n seeded gap pairs (z, z0, rho) with z != z0: a third at rho = 0, the
    rest with log-uniform rho from rho_min to rho_max; each height within
    1e-12..1e-9 d of a wall, or, where `interior`, as often anywhere up to
    0.49 d from the midplane."""
    rng = random.Random(seed)

    def height():
        side = rng.choice((-1.0, 0.0, 1.0) if interior else (-1.0, 1.0))
        if side == 0.0:
            return rng.uniform(-0.49, 0.49) * D
        return side * (0.5 - 10.0 ** rng.uniform(-12.0, -9.0)) * D

    pairs = []
    while len(pairs) < n:
        z, z0 = height(), height()
        rho = 0.0 if len(pairs) % 3 == 0 else 10.0 ** rng.uniform(
            math.log10(rho_min), math.log10(rho_max))
        if z != z0:
            pairs.append((z, z0, rho))
    return pairs


def _check_against_the_series(points, walls, spec=QuadratureSpec()):
    """cavity_g_images_many at `points` and at each point's mirror pair (both
    orders) against _image_series: within abs_err, and abs_err within the
    target max(floor, rel_tol |g|)."""
    coeffs = reflection_coeffs(*walls)
    both = points + [(z0, z, rho) for z, z0, rho in points]
    got = list(cavity_g_images_many(cav(*walls), both, spec))
    refs = [_image_series(*p, coeffs.r1, coeffs.r3) / (4 * mp.pi * walls[1]) for p in points]
    for (z, z0, rho), g, ref in zip(both, got, refs + refs):
        length = max(math.hypot(rho, z - z0), 0.05 * D)
        target = max(1e-12 / (4 * math.pi * walls[1] * length), spec.rel_tol * abs(g.value))
        assert abs(mp.mpf(g.value) - ref) <= g.abs_err <= target, (z, z0, rho)


class TestNearAWall:
    """Pairs within 1e-12..1e-9 d of a wall and closer than 1.5e-4 d, where
    order 0 takes the free term with the nearer wall's image as two terms
    of one sign."""

    # 1e-11 d below a conducting wall: summed apart, 1/r and that wall's
    # image cancelled past the default rel_tol (a ConvergenceError)
    FOUND = (0.4999999999926224 * D, 0.4999999995857874 * D, 1.07e-6 * D)

    @pytest.mark.parametrize("walls", [(4.0, 1.0, PC), (PC, 1.0, PC), (1.0, 4.0, 16.0)])
    def test_matches_a_40_digit_sum(self, walls):
        z, z0, rho = self.FOUND
        pairs = [self.FOUND, (-z, -z0, rho)] + _gap_pairs(
            1618, 12, 1e-9 * D, 1.5e-4 * D, interior=False)
        _check_against_the_series(pairs, walls)

    def test_geometry_sums_the_found_pair(self):
        z, z0, rho = self.FOUND
        for eps1, eps3, sign in ((4.0, PC, 1.0), (PC, PC, -1.0)):
            got = ThreeLayerCavity(eps1, 1.0, eps3, D).g(
                Point3(rho, 0.0, sign * z), Point3(0.0, 0.0, sign * z0), QuadratureSpec())
            assert got.abs_err <= 1e-12 / (4 * math.pi * 0.05 * D)


class TestConductingImages:
    """The conducting gap's image series with its Euler-Maclaurin tail,
    which the geometry takes below rho = d/2."""

    SPEC = QuadratureSpec()

    def test_matches_a_40_digit_sum(self):
        _check_against_the_series(_gap_pairs(2718, 24, 1e-6 * D, 0.4999 * D), (PC, 1.0, PC))

    def test_continuous_with_the_mode_sum_at_half_d(self):
        # just below d/2 the geometry sums images, from d/2 on modes
        geom = ThreeLayerCavity(PC, 1.0, PC, D)
        below = math.nextafter(0.5 * D, 0.0)
        for z, z0 in HEIGHTS + [(0.5 - 1e-10, -0.3), (-0.5 + 1e-10, -0.5 + 1e-10)]:
            pairs = [(Point3(rho, 0.0, z * D), Point3(0.0, 0.0, z0 * D))
                     for rho in (below, 0.5 * D)]
            series, modes = geom.g_many(pairs, self.SPEC)
            assert series == images(z * D, z0 * D, below, PC, 1.0, PC)
            assert modes == conducting_gap_g(cav(PC, 1.0, PC), z * D, z0 * D, 0.5 * D)
            assert abs(series.value - modes.value) <= series.abs_err + modes.abs_err

    def test_geometry_takes_no_hankel_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Hankel route taken")
        monkeypatch.setattr(cavity, "cavity_g_general", refuse)
        geom = ThreeLayerCavity(PC, 1.0, PC, D)
        pairs = [(Point3(rho, 0.0, 0.1), Point3(0.0, 0.0, -0.2))
                 for rho in np.geomspace(1e-6, 20.0, 40)]
        assert len(list(geom.g_many(pairs, self.SPEC))) == 40

    def test_other_unit_products_keep_the_hankel_route(self):
        # a gap of eps2 = 1e17 gives a wall of eps 1 the coefficient -1: with
        # a conducting wall r1 r3 = -1, where the series converges; between
        # two such walls r1 r3 = 1, where g diverges (TestSlabBetweenLowWalls)
        points = [(0.1, -0.2, 0.3), (0.1, 0.1, 0.0)]
        assert list(cavity_g_images_many(cav(PC, 1e17, 1.0), points)) == [
            cavity_g_general(cav(PC, 1e17, 1.0), 0.1, -0.2, 0.3),
            cavity_scattering_g1(cav(PC, 1e17, 1.0), 0.1)]
        with pytest.raises(DomainError, match="r = -1"):
            next(cavity_g_images_many(cav(1.0, 1e17, 1.0), points))

    def test_roundoff_past_the_target_raises(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError,
                           match="image series .* its bound .*Euler-Maclaurin tail .* exceeds"):
            images(0.4, -0.4, 0.3, PC, 1.0, PC, spec)


def _slab_series(z, z0, rho, r1, r3):
    """4 pi eps2 g, or g1 at coincident points, by the image series at 30
    digits, for walls whose q = r1 r3 lies near 1 or near -1 (both walls
    reflecting with r near -1, or near 1, or one of each), whose order j
    falls off as c q^j/j, c = (2 - r1 - r3)/(2d): orders 0..49 by
    mpmath.fsum, and the rest by mpmath.sumem. For q > 0 that is orders 50
    on less c q^j/j, a part that sums to c (-ln(1 - q) - sum_{j<50} q^j/j);
    for q < 0, whose orders alternate in sign, the pairs of orders
    (2k, 2k + 1) from k = 25 on, whose sum varies smoothly with k."""
    with mp.workdps(30):
        z, z0, rho, d, r1, r3 = (mp.mpf(v) for v in (z, z0, rho, D, r1, r3))
        upper, lower = max(z, z0), min(z, z0)
        a, b1, b3 = upper - lower, d + upper + lower, d - upper - lower
        q, c = r1 * r3, (2 - r1 - r3) / (2 * d)

        def dist(s):
            return mp.sqrt(rho ** 2 + s ** 2)

        def bare(j):  # order j over q^j
            x = 2 * j * d
            images = -r1 / dist(x + b1) - r3 / dist(x + b3)
            return images + (1 / dist(x + a) + 1 / dist(x - a) if j else 0)

        head = mp.fsum(q ** j * bare(j) for j in range(50)) + (1 / dist(a) if rho or a else 0)
        if q < 0:
            return head + mp.sumem(lambda k: (q * q) ** k * (bare(2 * k) + q * bare(2 * k + 1)),
                                   [25, mp.inf])
        tail = mp.sumem(lambda j: q ** j * (bare(j) - c / j), [50, mp.inf])
        return head + tail + c * (-mp.log(1 - q) - mp.fsum(q ** j / j for j in range(1, 50)))


class TestSlabBetweenLowWalls:
    """A gap of high eps2 between walls of eps 1, which both reflect with r
    near -1: g grows as (2/d) ln(1/(1 - r1 r3))/(4 pi eps2), past the image
    series' order cap from eps2 about 1e3 on. The Hankel route's panels
    started from the kernel's decay scale, left its peak at k = 0
    unresolved and returned 19.77/(4 pi eps2) with a small abs_err from
    eps2 = 1e14 on; where r rounds to -1, g and g1 diverge."""

    PAIR = (Point3(0.3, 0.0, 0.1), Point3(0.0, 0.0, -0.2))
    SPEC = QuadratureSpec()

    @pytest.mark.parametrize("eps2", [1e3, 1e6, 1e11, 1e12, 1e13, 1e14, 1e15])
    def test_matches_the_image_series(self, eps2):
        geom = ThreeLayerCavity(1.0, eps2, 1.0, D)
        co = reflection_coeffs(1.0, eps2, 1.0)
        for got, point in ((geom.g(*self.PAIR, self.SPEC), (0.1, -0.2, 0.3)),
                           (geom.g1(self.PAIR[0], self.SPEC), (0.1, 0.1, 0.0))):
            ref = _slab_series(*point, co.r1, co.r3) / (4 * math.pi * eps2)
            assert abs(mp.mpf(got.value) - ref) <= got.abs_err <= 1e-2 * abs(got.value), point

    def test_meets_rel_tol_near_a_wall(self):
        # g1 5.3e-9 d above the lower wall of a gap of 1.75e11 between walls
        # of 5 and 1: the image series stopped at 17% of |g1| while the
        # absolute floor, 1e-12/(4 pi L), left eps2 out
        z = -0.5 * D + 5.3e-9 * D
        co = reflection_coeffs(5.0, 1.75e11, 1.0)
        got = ThreeLayerCavity(5.0, 1.75e11, 1.0, D).g1(Point3(0.0, 0.0, z), self.SPEC)
        ref = _slab_series(z, z, 0.0, co.r1, co.r3) / (4 * math.pi * 1.75e11)
        assert abs(mp.mpf(got.value) - ref) <= got.abs_err <= 1e-10 * abs(got.value)

    @pytest.mark.parametrize("eps2", [1e16, 1e17])
    def test_walls_of_r_minus_one_are_a_domain_error(self, eps2):
        assert reflection_coeffs(1.0, eps2, 1.0).r1 == -1.0
        geom = ThreeLayerCavity(1.0, eps2, 1.0, D)
        with pytest.raises(DomainError, match="eps1 = 1.0 and eps3 = 1.0, reflect with r = -1"):
            geom.g(*self.PAIR, self.SPEC)
        with pytest.raises(DomainError, match="r = -1"):
            geom.g1(self.PAIR[0], self.SPEC)
        # the gradients converge
        grad = np.array(geom.grad_g(*self.PAIR, self.SPEC)) * (4 * math.pi * eps2)
        assert np.allclose(grad, (-4.6108, 0.0, -4.0843), rtol=0.0, atol=1e-4)


class TestPastTheOrderCap:
    """g where the image series needs more orders than IMAGE_ORDER_MAX, by
    the Hankel route, against _slab_series."""

    @pytest.mark.parametrize("eps", [1e3, 1e6])
    @pytest.mark.parametrize("rho", [0.01, 1.0, 20.0])
    def test_walls_of_high_eps(self, eps, rho):
        # between walls of 1e6 the panels' bisection reaches its depth cap,
        # where _panels_adaptive accepts a subinterval whatever its error;
        # these values lie within 0.16 of their abs_err all the same
        co = reflection_coeffs(eps, 1.0, eps)
        got = images(0.1 * D, -0.2 * D, rho * D, eps, 1.0, eps)
        ref = _slab_series(0.1 * D, -0.2 * D, rho * D, co.r1, co.r3) / (4 * math.pi)
        assert abs(mp.mpf(got.value) - ref) <= got.abs_err

    @pytest.mark.parametrize("eps1,point", [(4.0, (0.22628, -0.36967, 0.48367)),
                                            (19.0, (-0.23577, 0.36186, 0.50491))])
    def test_high_eps2_against_a_conducting_wall(self, eps1, point):
        # r1 r3 = -0.9992 and -0.9962: these missed the 30-digit sum by 1.03
        # and 1.01 of their abs_err while the floor of g left eps2 out
        co = reflection_coeffs(eps1, 1e4, PC)
        got = next(cavity.gap_many(cav(eps1, 1e4, PC), [point]))
        ref = _slab_series(*point, co.r1, co.r3) / (4 * math.pi * 1e4)
        assert abs(mp.mpf(got.value) - ref) <= got.abs_err


# the route functions of the gap, and the route each stands for
ROUTES = {"conducting_gap_g": "mode sum", "conducting_gap_grad": "mode sum",
          "conducting_gap_g1": "digamma", "conducting_gap_dg1": "trigamma",
          "_conducting_block": "Euler-Maclaurin series", "_image_block": "series",
          "cavity_g_general": "Hankel", "cavity_scattering_g1": "Hankel",
          "cavity_grad_general": "Hankel"}


class TestOneDispatch:
    """gap_many picks every route of the gap from the walls that the
    cavity derived when it was built."""

    SPEC = QuadratureSpec()

    def test_no_route_derives_the_walls_again(self, monkeypatch):
        geoms = [cav(*walls) for walls in ((PC, 1.0, PC), (4.0, 1.0, 8.0), (1e3, 1.0, 1e3),
                                           (PC, 1e17, 1.0))]
        calls = []
        monkeypatch.setattr(cavity, "reflection_coeffs", lambda *args: calls.append(args))
        src = Point3(0.0, 0.0, -0.2)
        for geom in geoms:
            for rho in (0.3, 1.0):
                r = Point3(rho, 0.0, 0.1)
                geom.g(r, src, self.SPEC)
                geom.grad_g(r, src, self.SPEC)
            geom.g1(r, self.SPEC)
            geom.grad_g1(r, self.SPEC)
        assert calls == []

    # the routes each quantity takes, in order: past the cap (walls of 1000)
    # the series is summed to the cap before the value takes Hankel
    @pytest.mark.parametrize("walls,rho,value,gradient", [
        ((PC, 1.0, PC), 0.5, ["mode sum"], ["mode sum"]),
        ((PC, 1.0, PC), 0.0, ["digamma"], ["trigamma"]),  # coincident points
        ((PC, 1.0, PC), 0.3, ["Euler-Maclaurin series"], ["Hankel"]),
        ((4.0, 1.0, 8.0), 1.0, ["series"], ["Hankel"]),
        ((1000.0, 1.0, 1000.0), 1.0, ["series", "Hankel"], ["Hankel"]),
        ((PC, 1e17, 1.0), 1.0, ["Hankel"], ["Hankel"]),
    ])
    def test_each_wall_class_takes_its_route(self, monkeypatch, walls, rho, value, gradient):
        taken = []
        for name, route in ROUTES.items():
            def traced(*args, _fn=getattr(cavity, name), _route=route):
                taken.append(_route)
                return _fn(*args)
            monkeypatch.setattr(cavity, name, traced)
        geom, r, src = cav(*walls), Point3(rho, 0.0, 0.1), Point3(0.0, 0.0, -0.2)
        if rho == 0.0:
            calls = (lambda: geom.g1(r, self.SPEC), lambda: geom.grad_g1(r, self.SPEC))
        else:
            calls = (lambda: geom.g(r, src, self.SPEC), lambda: geom.grad_g(r, src, self.SPEC))
        for call, routes in zip(calls, (value, gradient)):
            taken.clear()
            call()
            assert taken == routes


class TestConductingWalls:
    """Both walls conduct where both reflection coefficients are 1.0, a
    perfect conductor's or, from eps about 1e16 eps2 on, a dielectric's;
    such walls take every route of conducting walls."""

    SPEC = QuadratureSpec()
    PC_GAP = ThreeLayerCavity(PC, 1.0, PC, D)
    ROUNDED = ThreeLayerCavity(1e17, 1.0, 1e17, D)

    def grads(self, pair):
        return [np.array(geom.grad_g(*pair, self.SPEC)) for geom in (self.ROUNDED, self.PC_GAP)]

    def test_walls_that_round_to_conductors(self):
        assert reflection_coeffs(1e17, 1.0, 1e17).conducting
        for rho in np.geomspace(1e-3, 20.0, 9) * D:
            for z, z0 in HEIGHTS[:3]:
                pair = (Point3(rho, 0.0, z * D), Point3(0.0, 0.0, z0 * D))
                got, ref = (geom.g(*pair, self.SPEC) for geom in (self.ROUNDED, self.PC_GAP))
                assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err
                grad, ref_grad = self.grads(pair)
                assert np.linalg.norm(grad - ref_grad) <= 1e-8 * np.linalg.norm(ref_grad)
        for z0 in (-0.49, -0.3, 0.0, 0.45):
            point = Point3(0.0, 0.0, z0 * D)
            got, ref = (geom.g1(point, self.SPEC) for geom in (self.ROUNDED, self.PC_GAP))
            assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err
            grad, ref_grad = (np.array(geom.grad_g1(point, self.SPEC))
                              for geom in (self.ROUNDED, self.PC_GAP))
            assert np.linalg.norm(grad - ref_grad) <= 1e-8 * np.linalg.norm(ref_grad)
        # the image series, taken as a dielectric's, lost g's sign this far out
        far = (Point3(20.0 * D, 0.0, 0.1 * D), Point3(0.0, 0.0, -0.2 * D))
        assert self.ROUNDED.g(*far, self.SPEC).value > 0.0

    @pytest.mark.parametrize("rounded", [False, True])
    def test_force_is_continuous_at_half_d(self, rounded):
        # just below d/2 the gradient comes from the Hankel integral, from
        # d/2 on from the mode sum
        geom = self.ROUNDED if rounded else self.PC_GAP
        for z, z0 in HEIGHTS[:3]:
            below, at = (np.array(geom.grad_g(Point3(rho, 0.0, z * D), Point3(0.0, 0.0, z0 * D),
                                              self.SPEC))
                         for rho in (0.5 * D * (1.0 - 1e-9), 0.5 * D))
            assert np.linalg.norm(below - at) <= 1e-8 * np.linalg.norm(at)


class TestScatteringPart:
    def test_zero_without_walls(self):
        g = cavity_scattering_g1(cav(1.0, 1.0, 1.0), 0.1)
        assert g.value == 0.0

    def test_midplane_symmetric_walls_derivative_vanishes(self):
        vals = [cavity_scattering_g1(cav(8.0, 1.0, 8.0), z).value
                for z in (-0.01, 0.01)]
        assert abs(vals[1] - vals[0]) / abs(vals[0]) < 1e-6

    def test_approaches_half_space_near_one_wall(self):
        # source close to the lower wall: the upper wall barely matters
        z0 = -0.45 * D
        got = cavity_scattering_g1(cav(6.0, 1.0, 1.0), z0).value
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
        got = cavity_scattering_g1(cav(PC, eps2, PC), z0_over_d * D)
        assert abs(got.value - exact) <= got.abs_err


HEIGHTS = [(0.1, -0.2), (0.0, 0.0), (0.45, 0.4), (-0.49, 0.3), (0.3, 0.3)]


class TestConductingGapClosedForms:
    """The program's mode sum and digamma self-energy against the quadrature,
    where both are accurate, so that no check compares a formula with itself."""

    @pytest.mark.parametrize("rho_over_d", [0.5, 0.8, 1.5, 3.0, 4.5, 6.0])
    @pytest.mark.parametrize("z,z0", HEIGHTS)
    def test_modes_match_quadrature(self, rho_over_d, z, z0):
        got = conducting_gap_g(cav(PC, 2.0, PC), z * D, z0 * D, rho_over_d * D)
        ref = cavity_g_general(cav(PC, 2.0, PC), z * D, z0 * D, rho_over_d * D)
        assert abs(got.value - ref.value) <= got.abs_err + ref.abs_err
        assert got.abs_err <= 1e-12 * abs(got.value)

    @pytest.mark.parametrize("z0_over_d", [-0.49, -0.3, 0.0, 0.2, 0.45])
    def test_digamma_matches_quadrature(self, z0_over_d):
        got = conducting_gap_g1(cav(PC, 3.0, PC), z0_over_d * D)
        ref = cavity_scattering_g1(cav(PC, 3.0, PC), z0_over_d * D)
        assert abs(got.value - ref.value) <= ref.abs_err
        assert math.isclose(conducting_gap_g1(cav(PC, 1.0, PC), 0.0).value,
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
            conducting_gap_g(cav(PC, 1.0, PC), 0.0, 0.1, 0.0)
        with pytest.raises(OutOfRegionError):
            conducting_gap_g(cav(PC, 1.0, PC), 0.5 * D, 0.1, 1.0)
        with pytest.raises(OutOfRegionError):
            conducting_gap_g1(cav(PC, 1.0, PC), -0.5 * D)


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
        vals = np.array([cavity_g_general(cav(PC, 1.0, PC), 0.0, 0.0, r).value for r in rs])
        slope = float(np.polyfit(rs, np.log(vals * np.sqrt(rs)), 1)[0])
        assert abs(slope + math.pi / D) / (math.pi / D) < 0.02
