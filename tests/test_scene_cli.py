import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import elementary_charge as QE, epsilon_0

import greens_coulomb
from greens_coulomb import born
from greens_coulomb.born import DiluteBody, born_scattering_g1
from greens_coulomb.cli import main
from greens_coulomb.core import PERFECT_CONDUCTOR, SceneError
from greens_coulomb.scene import parse_scene, swept_scenes

FREE_PAIR = {
    "geometry": {"type": "free_space", "eps": 1.0},
    "charges": [
        {"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.0]},
        {"q": -1.0, "unit": "e", "position": [0.0, 0.0, 1.0]},
    ],
}


def far_pair(x, geometry=None, za=0.0, zb=0.0):
    """Two charges at x and -x, at heights za and zb, in free space by default."""
    return {"geometry": geometry or {"type": "free_space", "eps": 1.0},
            "charges": [{"q": 1.0, "unit": "e", "position": [x, 0.0, za]},
                        {"q": 1.0, "unit": "e", "position": [-x, 0.0, zb]}]}


def charge_pair(geometry, qa, qb):
    return {"geometry": geometry,
            "charges": [{"q": qa, "position": [0.5, 0.0, 0.7]},
                        {"q": qb, "position": [-0.2, 0.1, 1.6]}]}


HALF_SPACE = {"type": "half_space", "eps1": 1, "eps2": 4}


def gap_sweep_pair(eps1=4.0, eps3=8.0, options=None):
    """A pair in a gap of width 1 between walls eps1 and eps3, the first
    charge at height 0.1, 2 off the axis of the second, at height -0.2."""
    doc = {"geometry": {"type": "cavity", "eps1": eps1, "eps2": 1.0, "eps3": eps3, "d": 1.0},
           "charges": [{"q": 1.0, "unit": "e", "position": [2.0, 0.0, 0.1]},
                       {"q": -1.0, "unit": "e", "position": [0.0, 0.0, -0.2]}]}
    if options:
        doc["options"] = options
    return doc


def gap_pair(x, eps1=4.0, eps3=8.0):
    """Two charges in a 1 um gap, the first a distance x off the axis of the second."""
    return {"geometry": {"type": "cavity", "eps1": eps1, "eps2": 1.0, "eps3": eps3, "d": 1e-6},
            "charges": [{"q": 1.0, "unit": "e", "position": [x, 0.0, 1e-7]},
                        {"q": 1.0, "unit": "e", "position": [0.0, 0.0, -2e-7]}]}


def aperture_pair(R, scale):
    """The contract test's two charges, every length times `scale`, at an aperture of radius R."""
    return {"geometry": {"type": "plate_with_hole", "R": R},
            "charges": [{"q": 1.0, "unit": "e", "position": [0.3 * scale, -0.2 * scale,
                                                             0.3 * scale]},
                        {"q": -2e-19, "position": [-0.1 * scale, 0.1 * scale, 0.2 * scale]}]}


def axis_pair(geometry):
    """Two charges on the z axis at heights 2e-160 and 1e-160 m."""
    return {"geometry": geometry,
            "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 2e-160]},
                        {"q": 1.0, "unit": "e", "position": [0.0, 0.0, 1e-160]}]}


TINY_GAPS = [{"type": "cavity", "eps1": 4.0, "eps2": 1.0, "eps3": 8.0, "d": 1e-6},
             {"type": "cavity", "eps1": "conductor", "eps2": 1.0, "eps3": "conductor",
              "d": 1e-6}]
BORN_BODIES = [{"type": "dilute_body", "alpha": 1e-40, "half_space_eta": 1e27},
               {"type": "dilute_body", "alpha": 1e-40,
                "regions": [{"box": [-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9], "eta": 1e27}]}]


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as json.dumps(allow_nan=False) would."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def write_scene(tmp_path, doc, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestSceneParsing:
    def test_charges_in_elementary_units(self):
        scene = parse_scene(FREE_PAIR)
        assert scene.charges[0].q == QE
        assert scene.charges[1].q == -QE

    def test_conductor_string(self):
        doc = {"geometry": {"type": "half_space", "eps1": 1.0,
                            "eps2": "conductor"},
               "charges": [{"q": 1e-19, "position": [0, 0, 1.0]}]}
        scene = parse_scene(doc)
        assert scene.geometry.eps2 is PERFECT_CONDUCTOR

    def test_unknown_keys_rejected(self):
        doc = json.loads(json.dumps(FREE_PAIR))
        doc["geometry"]["extra"] = 1
        with pytest.raises(SceneError):
            parse_scene(doc)
        doc2 = json.loads(json.dumps(FREE_PAIR))
        doc2["typo"] = True
        with pytest.raises(SceneError):
            parse_scene(doc2)

    def test_bad_unit_rejected(self):
        doc = json.loads(json.dumps(FREE_PAIR))
        doc["charges"][0]["unit"] = "statC"
        with pytest.raises(SceneError):
            parse_scene(doc)

    def test_charge_count_enforced(self):
        doc = json.loads(json.dumps(FREE_PAIR))
        doc["charges"] = []
        with pytest.raises(SceneError):
            parse_scene(doc)
        doc["charges"] = FREE_PAIR["charges"] * 2
        with pytest.raises(SceneError):
            parse_scene(doc)

    def test_invalid_geometry_domain_surfaces(self):
        doc = {"geometry": {"type": "cavity", "eps1": 1.0, "eps2": 0.5,
                            "eps3": 1.0, "d": 1.0},
               "charges": [{"q": 1e-19, "position": [0, 0, 0.0]}]}
        with pytest.raises(Exception):
            parse_scene(doc)

    def test_sweep_path_addressing(self):
        doc = json.loads(json.dumps(FREE_PAIR))
        base = parse_scene(doc)
        out, = swept_scenes(doc, base, "charges.1.position.2", [2.5])
        assert out.charges[1].position.z == 2.5
        assert out.charges[0] == base.charges[0] and out.geometry == base.geometry
        assert doc["charges"][1]["position"][2] == 1.0  # original untouched
        with pytest.raises(SceneError):
            next(swept_scenes(doc, base, "charges.1.position.7", [1.0]))
        with pytest.raises(SceneError):
            next(swept_scenes(doc, base, "geometry.type", [1.0]))


class TestCliCommands:
    def test_pair_energy_record(self, tmp_path, capsys):
        scene = write_scene(tmp_path, FREE_PAIR)
        assert main(["pair-energy", "--scene", scene]) == 0
        rec = json.loads(capsys.readouterr().out)
        exact = -QE ** 2 / (4 * math.pi * epsilon_0)
        assert math.isclose(rec["U_joules"], exact, rel_tol=1e-12)
        assert math.isclose(rec["ratio_to_free"], 1.0, rel_tol=1e-12)
        assert rec["abs_err"] == 0.0

    def test_self_energy_record(self, tmp_path, capsys):
        doc = {"geometry": {"type": "half_space", "eps1": 1.0,
                            "eps2": "conductor"},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1e-9]}]}
        scene = write_scene(tmp_path, doc)
        assert main(["self-energy", "--scene", scene]) == 0
        rec = json.loads(capsys.readouterr().out)
        exact = -QE ** 2 / (16 * math.pi * epsilon_0 * 1e-9)
        assert math.isclose(rec["U_joules"], exact, rel_tol=1e-12)

    def test_opposite_sides_conductor_zero(self, tmp_path, capsys):
        doc = {"geometry": {"type": "half_space", "eps1": 1.0,
                            "eps2": "conductor"},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1.0]},
                           {"q": 1.0, "unit": "e", "position": [0, 0, -1.0]}]}
        scene = write_scene(tmp_path, doc)
        assert main(["pair-energy", "--scene", scene]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["U_joules"] == 0.0

    @pytest.mark.parametrize("eps1", [1, "conductor"])
    def test_half_space_b_on_interface_exit_2(self, tmp_path, capsys, eps1):
        doc = {"geometry": {"type": "half_space", "eps1": eps1, "eps2": 4},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, -3e-10]},
                           {"q": -1.0, "unit": "e", "position": [1e-10, 0, 0.0]}]}
        scene = write_scene(tmp_path, doc)
        for command in ("pair-energy", "force"):
            assert main([command, "--scene", scene]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "error (OnSurfaceError)" in err

    def test_force_record(self, tmp_path, capsys):
        scene = write_scene(tmp_path, FREE_PAIR)
        assert main(["force", "--scene", scene]) == 0
        rec = json.loads(capsys.readouterr().out)
        mag = QE ** 2 / (4 * math.pi * epsilon_0)
        assert math.isclose(rec["F_newtons"][2], mag, rel_tol=1e-12)
        assert rec["local_field_factor"] == 1.0

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = dict(FREE_PAIR)
        bad["charges"] = [{"q": 1.0, "position": [0, 0, 0], "oops": 1}]
        scene = write_scene(tmp_path, bad)
        assert main(["pair-energy", "--scene", scene]) == 2
        assert "scene" in capsys.readouterr().err

    def test_wrong_charge_count_exit_2(self, tmp_path, capsys):
        doc = {"geometry": {"type": "free_space"},
               "charges": [{"q": 1.0, "position": [0, 0, 0]}]}
        scene = write_scene(tmp_path, doc)
        assert main(["pair-energy", "--scene", scene]) == 2

    def nonconvergent_scene(self, tmp_path, eps1, eps3, a, b):
        # a relative target of 1e-15, which neither gap route reaches at these pairs
        doc = {"geometry": {"type": "cavity", "eps1": eps1, "eps2": 1.0, "eps3": eps3,
                            "d": 1.0},
               "charges": [{"q": 1.0, "unit": "e", "position": a},
                           {"q": 1.0, "unit": "e", "position": b}],
               "options": {"rel_tol": 1e-15, "abs_tol": 1e-300}}
        return write_scene(tmp_path, doc)

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        # a dielectric gap sums its images, whose roundoff alone exceeds the target
        scene = self.nonconvergent_scene(tmp_path, 4.0, 8.0, [2.0, 0, 0.1], [0, 0, -0.2])
        code = main(["pair-energy", "--scene", scene])
        err = capsys.readouterr().err
        assert code == 3
        assert "image series" in err and "bound" in err  # names the route and its bound

    def test_nonconvergence_exit_3_hankel(self, tmp_path, capsys):
        # past the series' order cap (r1 r3 = 0.996) a pair takes the Hankel
        # route, whose panel errors alone exceed the target here
        scene = self.nonconvergent_scene(tmp_path, 1000.0, 1000.0,
                                         [0.3, 0, 0.4], [0, 0, -0.4])
        code = main(["pair-energy", "--scene", scene])
        err = capsys.readouterr().err
        assert code == 3
        assert "hankel_integral" in err  # names the originating module

    def test_nonconvergence_exit_3_conducting_images(self, tmp_path, capsys):
        # between conducting walls a pair closer than d/2 sums its images
        # with an Euler-Maclaurin tail, whose roundoff exceeds the target
        scene = self.nonconvergent_scene(tmp_path, "conductor", "conductor",
                                         [0.3, 0, 0.4], [0, 0, -0.4])
        code = main(["pair-energy", "--scene", scene])
        err = capsys.readouterr().err
        assert code == 3
        # names the route and its bound
        assert "image series" in err and "Euler-Maclaurin tail" in err
        assert "its bound" in err and "exceeds the target" in err

    BIG_BOX = {"type": "dilute_body", "alpha": 1e-40,
               "regions": [{"box": [-1.0, 1.0, -1.0, 1.0, -2.0, -1.0], "eta": 1e3}]}

    def big_box_pair(self, height):
        """Two charges `height` above the centre of the 2 m box's top face, `height` apart."""
        return {"geometry": self.BIG_BOX,
                "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, -1.0 + height]},
                            {"q": 1.0, "unit": "e", "position": [height, 0, -1.0 + height]}]}

    def test_born_depth_cap_exit_3(self, tmp_path, capsys):
        # for a pair 0.1 mm above a face of a 2 m box the octree needs cells
        # finer than its depth cap of 12
        scene = write_scene(tmp_path, self.big_box_pair(1e-4))
        assert main(["pair-energy", "--scene", scene]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "Born octree" in err
        assert re.search(r"\b\d+ cells still above their budget at the depth cap 12\b", err)
        assert "diff/budget" in err

    def test_born_pair_near_a_large_box(self, tmp_path, capsys):
        # 1 mm above the face the pair converges, and its Born term is within
        # 1% of the half-space's closed form (the box ends 1 m away)
        scene = write_scene(tmp_path, self.big_box_pair(1e-3))
        assert main(["pair-energy", "--scene", scene]) == 0
        rec = strict_json(capsys.readouterr().out)
        assert rec["U_joules"] > 0.0 and rec["abs_err"] > 0.0
        parsed = parse_scene(self.big_box_pair(1e-3))
        box = parsed.geometry
        half_space = DiluteBody(alpha=box.alpha, half_space_eta=box.regions[0].eta)
        ra, rb = (c.position for c in parsed.charges)
        got = born_scattering_g1(ra, rb, box)
        want = born_scattering_g1(ra.shifted(dz=1.0), rb.shifted(dz=1.0), half_space)
        assert got.value == pytest.approx(want.value, rel=1e-2, abs=0.0)
        assert 0.0 < got.abs_err <= 1e-9 * abs(got.value)

    def test_born_self_terms_near_a_large_box(self, tmp_path, capsys):
        # the self-energy and self-force in closed form: 1 mm above the face
        # they are within 1% of the half-space's -q^2 eta alpha / (32 pi
        # eps0^2 h) and its h-derivative
        doc = {"geometry": self.BIG_BOX,
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, -0.999]}]}
        scene = write_scene(tmp_path, doc)
        half_space = -QE ** 2 * 1e3 * 1e-40 / (32 * math.pi * epsilon_0 ** 2 * 1e-3)
        assert main(["self-energy", "--scene", scene]) == 0
        rec = strict_json(capsys.readouterr().out)
        assert rec["U_joules"] == pytest.approx(half_space, rel=1e-2, abs=0.0)
        assert 0.0 < rec["abs_err"] <= 1e-14 * abs(rec["U_joules"])
        assert main(["force", "--scene", scene]) == 0
        force = strict_json(capsys.readouterr().out)["F_newtons"]
        assert force[2] == pytest.approx(half_space / 1e-3, rel=1e-2, abs=0.0)
        assert abs(force[0]) + abs(force[1]) <= 1e-12 * abs(force[2])

    @pytest.mark.parametrize("alpha", [
        True,
        [[1e-40, 0, 0], [0, "NaN", 0], [0, 0, 1e-40]],
        [[1e-40, 0, 0], [0, True, 0], [0, 0, 1e-40]],
    ])
    def test_non_numeric_alpha_exit_2(self, tmp_path, capsys, alpha):
        doc = {"geometry": {"type": "dilute_body", "alpha": alpha,
                            "half_space_eta": 1e27},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1e-9]}]}
        scene = write_scene(tmp_path, doc)
        assert main(["self-energy", "--scene", scene]) == 2
        assert "geometry.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,expect", [
        # the image force ~ 1/z^2 overflows; z*z used to underflow to 0
        ("force", {"geometry": {"type": "half_space", "eps1": 1.0, "eps2": "conductor"},
                   "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1e-300]}]}, None),
        # a separation of 2e308 overflows to inf: U = 0 and the ratio is undefined
        ("pair-energy", far_pair(1e308), {"U_joules": 0.0, "ratio_to_free": None}),
        ("force", far_pair(1e308), None),
        # (2e200)**2 overflowed inside the distance
        ("pair-energy", far_pair(1e200), {"ratio_to_free": 1.0}),
        ("force", far_pair(1e200), {"F_newtons": [0.0, 0.0, 0.0]}),
        # a zero product of charges makes U_free = 0, so the ratio is undefined
        ("pair-energy", charge_pair(HALF_SPACE, 0, QE),
         {"U_joules": 0.0, "ratio_to_free": None}),
        ("pair-energy", charge_pair({"type": "free_space"}, 1e-200, 1e-200),
         {"U_joules": 0.0, "ratio_to_free": None}),
        # the finite-difference force goes through the same energies
        ("force", charge_pair({"type": "plate_with_hole", "R": 1.0}, 0, QE),
         {"F_newtons": [0.0, 0.0, 0.0]}),
        # a half-space Born body's energy is finite at 1e-320, its force ~ 1/z^2 is not
        ("force", {"geometry": {"type": "dilute_body", "alpha": 1e-40, "half_space_eta": 1e27},
                   "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1e-320]}]}, None),
        # the image force at the smallest subnormal height overflows; a product
        # with z used to underflow to 0 and raise ZeroDivisionError
        ("force", {"geometry": HALF_SPACE,
                   "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 5e-324]}]}, None),
        # R * R overflowed in the aperture function (0.639 and a NaN force); the
        # charges sit in free space 1e160 m inside the rim
        ("pair-energy", aperture_pair(1e160, 1.0), {"ratio_to_free": 1.0}),
        ("force", aperture_pair(1e160, 1.0), {"local_field_factor": 1.0}),
        # squares underflowed (0.140 against 0.692 at 1 m, and a ZeroDivisionError
        # traceback); the force, 1e320 times that at 1 m, overflows. The value
        # is checked in test_analytic.TestPlateHoleG.test_same_value_at_any_scale
        ("pair-energy", aperture_pair(1e-160, 1e-160), {"abs_err": 0.0}),
        ("force", aperture_pair(1e-160, 1e-160), None),
        # the first Bessel zero over rho = 1e-308 overflowed to an inf panel
        # edge; the value is checked in test_gap_pair_subnormal_offset_matches_axis
        ("pair-energy", gap_pair(1e-308), {"units": "si"}),
        ("force", gap_pair(1e-308), {"units": "si"}),
        # a law of cosines put the in-plane offset of these near twins at 0 and
        # divided by it (ZeroDivisionError); the value is checked in
        # test_analytic.TestPlateHoleAux.test_matches_decimal_for_near_pairs
        ("pair-energy", {"geometry": {"type": "plate_with_hole", "R": 1.0},
                         "charges": [{"q": 1.0, "unit": "e", "position": [0.3, -0.2, 0.3]},
                                     {"q": 1.0, "unit": "e",
                                      "position": [0.3000000003, -0.2, 0.3]}]},
         {"units": "si"}),
    ] + [
        # a force ~ 1/r^2 at r = 1e-160 overflows; r * r * r underflowed to 0
        # (ZeroDivisionError) or numpy warned on the way to inf
        ("force", axis_pair(geometry), None) for geometry in [
            {"type": "free_space"}, HALF_SPACE,
            {"type": "nonlocal_bulk", "drude": {"omega_p": 8e15, "omega_p_bound": 9e15,
                                                "omega_0": 4e15, "beta": 9e5}},
            {"type": "plate_with_hole", "R": 0.0},
        ] + BORN_BODIES + TINY_GAPS
    ] + [
        # the energy ~ 1/r is finite; the panel scan's products overflowed with a warning
        ("pair-energy", axis_pair(geometry), {"units": "si"}) for geometry in TINY_GAPS
    ] + [
        # an infinite separation of admitted charges gives U = 0 in every
        # geometry, as in free space; gaps and Born bodies used to warn and exit 2 or 3
        ("pair-energy", far_pair(1e308, geometry, za, zb),
         {"U_joules": 0.0, "ratio_to_free": None})
        for geometry, za, zb in [(gap, 1e-7, -2e-7) for gap in TINY_GAPS]
        + [(body, 1e-9, 1e-9) for body in BORN_BODIES]
    ] + [
        # the way from the charge to the box and back overflows float64: the
        # self-energy is 0 and the self-force a DomainError, as for a far pair;
        # the octree used to warn and exit 3, blaming the body
        (command, {"geometry": BORN_BODIES[1],
                   "charges": [{"q": 1.0, "unit": "e", "position": [1e308, 0.0, 0.0]}]}, expect)
        for command, expect in [("self-energy", {"U_joules": 0.0, "ratio_to_free": None}),
                                ("force", None)]
    ])
    def test_extreme_inputs_finite_json_or_exit_2(self, tmp_path, capsys, command, doc,
                                                  expect):
        """expect: fields of the record on exit 0; None for exit 2."""
        scene = write_scene(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--scene", scene])
        out, err = capsys.readouterr()
        if expect is None:
            assert code == 2 and out == ""
            assert "float64" in err
        else:
            assert code == 0 and err == ""
            rec = strict_json(out)
            assert {k: rec[k] for k in expect} == expect

    @pytest.mark.parametrize("command", ["pair-energy", "force"])
    @pytest.mark.parametrize("bad_first", [True, False])
    @pytest.mark.parametrize("geometry,bad,good,error", [
        (TINY_GAPS[0], [1e308, 0.0, 5e-6], [-1e308, 0.0, 0.0], "OutOfRegionError"),
        (HALF_SPACE, [1e308, 0.0, 0.0], [-1e308, 0.0, 1e-9], "OnSurfaceError"),
        ({"type": "plate_with_hole", "R": 1e-9}, [1e308, 0.0, 0.0], [-1e308, 0.0, 1e-9],
         "OnPlateError"),
        # a separation of hypot(1.5e308, 1.5e308) overflows
        (BORN_BODIES[1], [0.0, 0.0, -1.5e-9], [1.5e308, 1.5e308, 1e-9],
         "PointInsideBodyError"),
    ])
    def test_far_pair_with_a_forbidden_charge_exit_2(self, tmp_path, capsys, command,
                                                     bad_first, geometry, bad, good, error):
        # the geometry admits each charge before the separation is looked at
        positions = [bad, good] if bad_first else [good, bad]
        doc = {"geometry": geometry,
               "charges": [{"q": 1.0, "unit": "e", "position": p} for p in positions]}
        assert main([command, "--scene", write_scene(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error ({error})" in err

    def test_unscreened_bulk_far_pair_is_free_space(self, tmp_path, capsys):
        # with omega_p = 0 and a separation of 2e308, k_s r is 0 * inf = NaN
        doc = far_pair(1e308)
        doc["geometry"] = {"type": "nonlocal_bulk", "drude": {
            "omega_p": 0.0, "omega_p_bound": 9e15, "omega_0": 4e15, "beta": 9e5}}
        assert main(["pair-energy", "--scene", write_scene(tmp_path, doc)]) == 0
        rec = strict_json(capsys.readouterr().out)
        assert (rec["U_joules"], rec["ratio_to_free"]) == (0.0, None)

    def test_force_overflow_names_components(self, tmp_path, capsys):
        # the direct and image terms overflow with opposite signs, and inf - inf is nan
        assert main(["force", "--scene", write_scene(tmp_path, axis_pair(HALF_SPACE))]) == 2
        err = capsys.readouterr().err
        assert "overflows float64 in its z component" in err and "nan" not in err

    def test_grounded_plane_far_pair_keeps_its_digits(self, tmp_path, capsys):
        # the image cancels the direct term to x = (2z/d)^2 = 4e-10 of it; the
        # ratio was 9.4e-7 off, and F_x 4.7e-7
        doc = {"geometry": {"type": "half_space", "eps1": 1, "eps2": "conductor"},
               "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 1e-9]},
                           {"q": -1.0, "unit": "e", "position": [1e-4, 0.0, 1e-9]}]}
        scene = write_scene(tmp_path, doc)
        x = (2e-9 / 1e-4) ** 2
        s = math.sqrt(1.0 + x)
        assert main(["pair-energy", "--scene", scene]) == 0
        ratio = strict_json(capsys.readouterr().out)["ratio_to_free"]
        assert ratio == pytest.approx(x / (s * (1.0 + s)), rel=1e-14, abs=0.0)  # 1 - d/d*
        assert main(["force", "--scene", scene]) == 0
        fx = strict_json(capsys.readouterr().out)["F_newtons"][0]
        # e^2/(4 pi eps0) (1e-4) (1/d^3 - 1/d*^3)
        want = QE ** 2 / (4 * math.pi * epsilon_0) * 1e-4 / 1e-12 \
            * -math.expm1(-1.5 * math.log1p(x))
        assert fx == pytest.approx(want, rel=1e-13, abs=0.0)

    # the dielectric gap's image series, and the conducting gap's, whose
    # Euler-Maclaurin tail integral holds at rho = 0 and at subnormal rho
    @pytest.mark.parametrize("walls", [(4.0, 8.0), ("conductor", "conductor")],
                             ids=["dielectric", "conducting"])
    def test_gap_pair_subnormal_offset_matches_axis(self, tmp_path, capsys, walls):
        recs = []
        for x in (1e-308, 0.0):
            scene = write_scene(tmp_path, gap_pair(x, *walls))
            assert main(["pair-energy", "--scene", scene]) == 0
            recs.append(strict_json(capsys.readouterr().out))
        assert abs(recs[0]["U_joules"] - recs[1]["U_joules"]) <= recs[0]["abs_err"]

    @pytest.mark.parametrize("args", [
        [],
        ["--param", "charges.1.position.2", "--min", "1", "--max", "2", "--num", "2"],
    ])
    def test_non_finite_record_exit_2(self, tmp_path, capsys, monkeypatch, args):
        from greens_coulomb import interactions
        monkeypatch.setattr(interactions, "pair_energies", lambda geom, pairs, spec: (
            interactions.InteractionResult(math.nan, None, 0.0) for _ in pairs))
        scene = write_scene(tmp_path, FREE_PAIR)
        command = "sweep" if args else "pair-energy"
        assert main([command, "--scene", scene] + args) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not finite" in err

    def test_overflowing_dilute_body_box_exit_2(self, tmp_path, capsys):
        doc = {"geometry": {"type": "dilute_body", "alpha": 1e-40,
                            "regions": [{"box": [-1e150, 1e150, -1e150, 1e150,
                                                 -1e150, -1e-9], "eta": 1e27}]},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1e-9]}]}
        scene = write_scene(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["self-energy", "--scene", scene]) == 2
        assert "overflow the Born integrand" in capsys.readouterr().err

    def test_bad_sweep_path_exit_2(self, tmp_path, capsys):
        scene = write_scene(tmp_path, FREE_PAIR)
        code = main(["sweep", "--scene", scene, "--param", "geometry.nope",
                     "--min", "0", "--max", "1", "--num", "3"])
        assert code == 2

    def test_sweep_path_to_a_non_number_exit_2(self, tmp_path, capsys):
        scene = write_scene(tmp_path, FREE_PAIR)
        code = main(["sweep", "--scene", scene, "--param", "geometry.type",
                     "--min", "0", "--max", "1", "--num", "3"])
        err = capsys.readouterr().err
        assert code == 2
        # the message once, not wrapped in "not found in scene"
        assert err.count("does not address a number") == 1
        assert "not found" not in err


class TestSweep:
    def test_single_point_matches_pair_energy(self, tmp_path, capsys):
        scene = write_scene(tmp_path, FREE_PAIR)
        out = tmp_path / "one.csv"
        assert main(["sweep", "--scene", scene, "--param", "charges.1.position.2",
                     "--min", "1.0", "--max", "1.0", "--num", "1",
                     "--out", str(out)]) == 0
        assert main(["pair-energy", "--scene", scene]) == 0
        rec = json.loads(capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert lines[0] == "param,U,ratio_to_free,abs_err"
        param, u, ratio, err = lines[1].split(",")
        assert float(u) == rec["U_joules"]

    def test_rows_ascending_and_deterministic(self, tmp_path):
        scene = write_scene(tmp_path, FREE_PAIR)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--scene", scene, "--param", "charges.1.position.2",
                "--min", "2.0", "--max", "0.5", "--num", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        params = [float(line.split(",")[0])
                  for line in out1.read_text().splitlines()[1:]]
        assert params == sorted(params)

    def test_negative_scientific_notation_bounds(self, tmp_path):
        # SI-scale sweeps routinely need bounds like -5e-6
        doc = {"geometry": {"type": "plate_with_hole", "R": 1.0e-6},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, 1.0e-6]},
                           {"q": 1.0, "unit": "e", "position": [0, 0, 2.0e-6]}]}
        scene = write_scene(tmp_path, doc)
        out = tmp_path / "si.csv"
        assert main(["sweep", "--scene", scene, "--param",
                     "charges.1.position.2", "--min", "-5e-6", "--max",
                     "5e-6", "--num", "12", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 12
        assert float(rows[0].split(",")[0]) == -5e-6

    def test_zero_charge_leaves_ratio_empty(self, tmp_path):
        scene = write_scene(tmp_path, charge_pair(HALF_SPACE, 0, QE))
        out = tmp_path / "zero.csv"
        assert main(["sweep", "--scene", scene, "--param", "charges.1.position.2",
                     "--min", "1.0", "--max", "2.0", "--num", "3",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(u, ratio) for _, u, ratio, _ in rows] == [("0.0", "")] * 3

    @pytest.mark.parametrize("bounds", [
        # exp(log(min) + 79 step) and 0.03 + 2 step came to 0.5000000000000002
        # and 0.5, outside the gap, though --max lies inside it
        ["--min", "0.01", "--max", "0.49999999999999994", "--num", "80", "--log"],
        ["--min", "0.03", "--max", "0.49999999999999994", "--num", "3"],
        ["--min", "-0.4", "--max", "0.45", "--num", "18"],
    ])
    def test_endpoints_are_exact(self, tmp_path, bounds):
        scene = write_scene(tmp_path, gap_sweep_pair())
        out = tmp_path / "edges.csv"
        assert main(["sweep", "--scene", scene, "--param", "charges.0.position.2",
                     *bounds, "--out", str(out)]) == 0
        params = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert len(params) == int(bounds[5])
        assert (params[0], params[-1]) == (bounds[1], bounds[3])


# The CLI contract: whatever the scene document holds, the command exits 0-3,
# prints no traceback and writes JSON without NaN or Infinity. Documents are a
# valid scene of each geometry with up to two scalars replaced by extreme values.
EXTREMES = [0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300,
            10 ** 400, -(10 ** 400), True, "conductor", "x"]
GEOMETRIES = [
    {"type": "free_space", "eps": 2.0},
    HALF_SPACE,
    {"type": "cavity", "eps1": 4.0, "eps2": 1.0, "eps3": "conductor", "d": 1.0},
    {"type": "plate_with_hole", "R": 1.0},
    {"type": "nonlocal_bulk", "drude": {"omega_p": 8e15, "omega_p_bound": 9e15,
                                        "omega_0": 4e15, "beta": 9e5}},
    {"type": "dilute_body", "alpha": 1e-40,
     "regions": [{"box": [-1.0, 1.0, -1.0, 1.0, -2.0, -1.0], "eta": 1e3}]},
]


def _leaves(node, path=()):
    """The path of every number, string and boolean in a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


@st.composite
def cli_calls(draw):
    """(argv without the scene path, scene document)."""
    command = draw(st.sampled_from(["pair-energy", "self-energy", "force"]))
    n_charges = {"pair-energy": 2, "self-energy": 1}.get(command) or draw(st.integers(1, 2))
    doc = json.loads(json.dumps({
        "geometry": draw(st.sampled_from(GEOMETRIES)),
        "charges": [{"q": 1.0, "unit": "e", "position": [0.3, -0.2, 0.3]},
                    {"q": -2e-19, "position": [-0.1, 0.1, 0.2]}][:n_charges],
        "options": {"units": "si", "local_field": False}}))
    if n_charges == 2 and draw(st.booleans()):
        # near twins at one height, 1e-9 of their coordinates apart in plane
        x, y, z = doc["charges"][0]["position"]
        doc["charges"][1]["position"] = [x * (1 + 1e-9), y * (1 + 1e-9), z]
    for _ in range(draw(st.integers(0, 2))):
        *parents, leaf = draw(st.sampled_from(list(_leaves(doc))))
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = draw(st.sampled_from(EXTREMES))
    extra = draw(st.one_of(st.just([]), st.sampled_from([
        ["--local-field"], ["--rel-tol", "0"], ["--rel-tol", "nan"],
        ["--rel-tol", "inf"], ["--rel-tol", "x"]])))
    return [command] + extra, doc


@settings(max_examples=150, derandomize=True, deadline=None)
@given(call=cli_calls())
def test_cli_contract(tmp_path_factory, call):
    argv, doc = call
    scene = tmp_path_factory.getbasetemp() / "contract_scene.json"
    scene.write_text(json.dumps(doc))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["--scene", str(scene)])
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()  # exit 1 is a failed validation
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        strict_json(out.getvalue())


# A sweep evaluates its points as one batch where the geometry and options
# stay fixed; each row must still be the record of the single-point command
# at that row's param. The gap takes the image series (4/1/8), the mode sum
# and the Hankel integral (conducting walls, rho above and below d/2), and
# the Hankel integral past the series' order cap (1000/1/1000).
SWEPT_GEOMETRIES = GEOMETRIES + [
    {"type": "cavity", "eps1": "conductor", "eps2": 1.0, "eps3": "conductor", "d": 1.0},
    {"type": "cavity", "eps1": 1000.0, "eps2": 1.0, "eps3": 1000.0, "d": 1.0},
]
GEOMETRY_SCALAR = {"free_space": "eps", "half_space": "eps2", "cavity": "d",
                   "plate_with_hole": "R", "nonlocal_bulk": "drude.beta",
                   "dilute_body": "alpha"}


def at_path(doc, path):
    """The node of a scene document that holds the number at a dotted path, and its key."""
    *parents, leaf = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, int(leaf) if isinstance(node, list) else leaf


def with_value(doc, path, value):
    """A copy of the scene document with the number at a dotted path set."""
    doc = json.loads(json.dumps(doc))
    node, key = at_path(doc, path)
    node[key] = value
    return doc


def sweep_rows(tmp_path, doc, param, bounds, num):
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--scene", write_scene(tmp_path, doc), "--param", param,
            "--min", repr(bounds[0]), "--max", repr(bounds[1]), "--num", str(num), "--log",
            "--out", str(out)]
    assert main(argv) == 0
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


@pytest.mark.parametrize("n_charges", [2, 1])
@pytest.mark.parametrize("geometry", SWEPT_GEOMETRIES,
                         ids=lambda g: "-".join(str(g.get(k, "")) for k in ("type", "eps1")))
def test_sweep_rows_are_single_point_records(tmp_path, capsys, geometry, n_charges):
    # a charge on the axis, where the aperture's self-energy is defined
    charges = ([{"q": 1.0, "unit": "e", "position": [0.3, -0.2, 0.3]},
                {"q": -2e-19, "position": [-0.1, 0.1, 0.2]}] if n_charges == 2 else
               [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.3]}])
    doc = {"geometry": geometry, "charges": charges}
    scalar = "geometry." + GEOMETRY_SCALAR[geometry["type"]]
    node, key = at_path(doc, scalar)
    base = node[key]
    sweeps = [(scalar, (base, 1.5 * base)),
              ("charges.0.position.0", (0.05, 3.0)) if n_charges == 2
              else ("charges.0.position.2", (0.1, 0.4))]
    command = "pair-energy" if n_charges == 2 else "self-energy"
    for param, bounds in sweeps:
        for value, u, ratio, err in sweep_rows(tmp_path, doc, param, bounds, 5):
            single = write_scene(tmp_path, with_value(doc, param, float(value)), "single.json")
            assert main([command, "--scene", single]) == 0
            rec = json.loads(capsys.readouterr().out)
            expected = [repr(rec["U_joules"]),
                        "" if rec["ratio_to_free"] is None else repr(rec["ratio_to_free"]),
                        repr(rec["abs_err"])]
            assert [u, ratio, err] == expected, (param, value)


@pytest.mark.parametrize("options,bounds,code", [
    # at rel_tol 1e-15 the series' roundoff exceeds its target at the first
    # point, before the sweep leaves the gap at z = 0.55
    ({"rel_tol": 1e-15, "abs_tol": 1e-300}, (0.1, 0.55), 3),
    # the points below z = 0.5 are valid and batched; the first above raises
    (None, (0.05, 0.95), 2),
])
def test_sweep_fails_at_its_first_failing_point(tmp_path, capsys, options, bounds, code):
    doc = gap_sweep_pair(options=options)
    out = tmp_path / "never.csv"
    num = 10
    assert main(["sweep", "--scene", write_scene(tmp_path, doc), "--param",
                 "charges.0.position.2", "--min", repr(bounds[0]), "--max", repr(bounds[1]),
                 "--num", str(num), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert not out.exists()
    # the same error as the single-point command at the first point that fails
    step = (bounds[1] - bounds[0]) / (num - 1)
    for value in [bounds[0] + i * step for i in range(num)]:
        single = write_scene(tmp_path, with_value(doc, "charges.0.position.2", value),
                             "single.json")
        got = main(["pair-energy", "--scene", single])
        single_err = capsys.readouterr().err
        if got != 0:
            assert (got, single_err) == (code, err)
            break
    else:
        pytest.fail("no point of the sweep fails alone")


@pytest.mark.parametrize("bound,num,row", [
    # exp(log(x)) need not round back to x: these rows were 9.999999999999994e-08
    # and 0.10000000000000002 before each inner value was clamped into the bounds
    ("1e-7", 5, "1e-07,-2.3070775507783433e-28,1.0,0.0"),
    ("0.1", 3, "0.1,-2.2956279637230384e-28,1.0000000000000002,0.0"),
])
def test_equal_bound_log_sweep_stays_within_its_bounds(tmp_path, bound, num, row):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--scene", write_scene(tmp_path, FREE_PAIR), "--param",
                 "charges.1.position.0", "--min", bound, "--max", bound, "--num", str(num),
                 "--log", "--out", str(out)]) == 0
    assert out.read_text() == "param,U,ratio_to_free,abs_err\n" + (row + "\n") * num


def born_box_charge(x):
    """One charge at (x, 0, 0) m by the nanometre box of BORN_BODIES."""
    return {"geometry": BORN_BODIES[1],
            "charges": [{"q": 1.0, "unit": "e", "position": [x, 0.0, 0.0]}]}


# The far field of the nanometre box, alpha 1e-40 and eta 1e27 over its
# 4e-27 m^3: U = -q^2 eta alpha V / (32 pi^2 eps0^2 x^4) and F_x = 4 U / x
_FAR_U = -QE ** 2 * 1e27 * 1e-40 * 4e-27 / (32 * math.pi ** 2 * epsilon_0 ** 2)
_BULK = {"type": "nonlocal_bulk", "drude": {"omega_p": 8e15, "omega_p_bound": 9e15,
                                            "omega_0": 4e15, "beta": 9e5}}
_EPS_B = 1.0 + (9e15 / 4e15) ** 2
_K_S = 8e15 / (9e5 * math.sqrt(_EPS_B))


@pytest.mark.parametrize("command,doc,key,value", [
    # the self-force's closed form underflows to 0 and the octree took it;
    # refining each component to its own budget never finished
    ("force", born_box_charge(1e40), "F_newtons", 4 * _FAR_U / 1e40 ** 5),
    # |r - x|^6 overflowed in the octree's kernels, or inf / inf made a NaN
    ("self-energy", born_box_charge(1e60), "U_joules", _FAR_U / 1e60 ** 4),
    ("force", born_box_charge(1e60), "F_newtons", 0.0),
    # a pair at right angles, where |r - x|^6 overflowed too; its Born term
    # is subnormal in the octree's scaled coordinates, where no relative
    # budget can be met, and only the least-normal floor of the cell budget
    # lets it finish. U is the direct term
    ("pair-energy", {"geometry": BORN_BODIES[1],
                     "charges": [{"q": 1.0, "unit": "e", "position": [1e60, 0.0, 0.0]},
                                 {"q": 1.0, "unit": "e", "position": [0.0, 0.0, 1e60]}]},
     "U_joules", QE ** 2 / (4 * math.pi * epsilon_0 * math.sqrt(2.0) * 1e60)),
    ("self-energy", born_box_charge(1e200), "U_joules", 0.0),
    ("force", born_box_charge(1e200), "F_newtons", 0.0),
    # the gap's absolute floor took L^2 with L^2 beyond float64 (OverflowError)
    ("force", {"geometry": {"type": "cavity", "eps1": 4.0, "eps2": 1.0, "eps3": 8.0,
                            "d": 1e200},
               "charges": [{"q": 1.0, "unit": "e", "position": [3e199, 0.0, 1e199]},
                           {"q": 1.0, "unit": "e", "position": [0.0, 0.0, -2e199]}]},
     "F_newtons", 0.0),
    # the screened bulk's Debye-Huckel self-energy, -q^2 k_s / (8 pi eps0 eps_b)
    ("self-energy", {"geometry": _BULK,
                     "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.0]}]},
     "U_joules", -QE ** 2 * _K_S / (8 * math.pi * epsilon_0 * _EPS_B)),
    ("force", {"geometry": _BULK,
               "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.0]}]},
     "F_newtons", 0.0),
])
def test_extreme_scenes_finish_with_warnings_as_errors(tmp_path, command, doc, key, value):
    # a fresh `python -W error -m greens_coulomb`, so that a numpy warning is
    # a traceback (exit 1) and a hang hits the timeout
    src = os.path.dirname(os.path.dirname(greens_coulomb.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "greens_coulomb", command,
         "--scene", write_scene(tmp_path, doc)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rec = strict_json(proc.stdout)
    if key == "F_newtons":
        # the x component; the others vanish with it or are (L/x) of it
        assert rec[key][0] == pytest.approx(value, rel=1e-8, abs=0.0)
        assert abs(rec[key][1]) + abs(rec[key][2]) <= 1e-40 * abs(value)
    else:
        assert rec[key] == pytest.approx(value, rel=1e-8, abs=0.0)


def _born_pair(alpha, box, ra, rb):
    return {"geometry": {"type": "dilute_body", "alpha": alpha,
                         "regions": [{"box": box, "eta": 1e27}]},
            "charges": [{"q": 1.0, "unit": "e", "position": ra},
                        {"q": 1.0, "unit": "e", "position": rb}]}


_NM_BOX = [-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9]


@pytest.mark.parametrize("command,doc,says", [
    # a 1e-300 m box, one charge 1e-300 m from it and one at 1e30 m: in the
    # octree's coordinates, scaled to 1e30 m, the near distances underflow;
    # 0 times inf made a NaN and a numpy warning
    *((command, _born_pair(1e-40, [0.0, 1e-300, 0.0, 1e-300, 0.0, 1e-300],
                           [1e30, 0.0, 0.0], [2e-300, 0.0, 0.0]),
       "is not finite in the octree's coordinates") for command in ("pair-energy", "force")),
    # an alpha whose product with the gradient kernel overflows in the octree
    ("force", _born_pair(1.7e308, _NM_BOX, [0.0, 0.0, 5e-9], [1e-9, 0.0, 5e-9]),
     "its product with alpha overflows"),
    # an alpha whose integral is finite in the octree's coordinates and
    # overflows when scaled back to metres (an ldexp warning)
    *((command, _born_pair(1e304, _NM_BOX, [0.0, 0.0, 5e-9], [1e-9, 0.0, 5e-9]),
       "overflows float64 in metres") for command in ("pair-energy", "force")),
], ids=["underflow-pair-energy", "underflow-force", "alpha-kernel-force",
        "alpha-metres-pair-energy", "alpha-metres-force"])
def test_born_octree_not_finite_exit_2_with_warnings_as_errors(tmp_path, command, doc, says):
    src = os.path.dirname(os.path.dirname(greens_coulomb.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "greens_coulomb", command,
         "--scene", write_scene(tmp_path, doc)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "Born octree" in proc.stderr and says in proc.stderr


# one charge 1e-320 m above a dilute half-space: g1 is finite in the body's
# integral and overflows when weighted, which numpy warned of while the
# half-space's tensor entries were numpy floats
_SUBNORMAL_HALF_SPACE = {
    "geometry": {"type": "dilute_body", "alpha": 1e-40, "half_space_eta": 1e27},
    "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 1e-320]}]}


@pytest.mark.parametrize("argv", [
    ["self-energy"],
    ["sweep", "--param", "charges.0.position.0", "--min", "0", "--max", "1e-9", "--num", "3"],
], ids=["self-energy", "sweep"])
def test_born_half_space_overflow_exit_2_with_warnings_as_errors(tmp_path, argv):
    src = os.path.dirname(os.path.dirname(greens_coulomb.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "greens_coulomb", *argv,
         "--scene", write_scene(tmp_path, _SUBNORMAL_HALF_SPACE)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "value must be finite" in proc.stderr


# a gap of eps2 = 1e17 between walls of eps 1, d = 1 m: both walls reflect
# with r = -1 in float64, so g and g1 diverge, while the gradient converges
# to (-4.6108, 0, -4.0843)/(4 pi eps2) at the pair
_SLAB = {"type": "cavity", "eps1": 1.0, "eps2": 1e17, "eps3": 1.0, "d": 1.0}
_SLAB_PAIR = {"geometry": _SLAB,
              "charges": [{"q": 1.0, "unit": "e", "position": [0.3, 0.0, 0.1]},
                          {"q": -1.0, "unit": "e", "position": [0.0, 0.0, -0.2]}]}
# a box of validate.table()'s tensor at 1e300 m, beyond born.MAX_BOX_COORD:
# its g1 read -0.0 with abs_err 0, and its g dropped the scattering term
_FAR_BOX = {"geometry": {"type": "dilute_body", "alpha": [
                [2e-40, 0.3e-40, -0.4e-40], [0.3e-40, 1e-40, 0.2e-40],
                [-0.4e-40, 0.2e-40, 1.5e-40]],
                         "regions": [{"box": [1e300, 1.5e300, -2.5e299, 2.5e299,
                                              -2.5e299, 2.5e299], "eta": 1e27}]},
            "charges": [{"q": 1.0, "unit": "e", "position": [0.9e300, 0.0, 0.0]}]}


@pytest.mark.parametrize("argv,doc,code,says", [
    (["pair-energy"], _SLAB_PAIR, 2,
     "both walls, of eps1 = 1.0 and eps3 = 1.0, reflect with r = -1"),
    (["self-energy"], {**_SLAB_PAIR, "charges": _SLAB_PAIR["charges"][:1]}, 2, "r = -1"),
    (["force"], _SLAB_PAIR, 0, ""),
    (["self-energy"], _FAR_BOX, 2, "overflow the Born integrand"),
    (["validate", "nosuch"], None, 2,
     "unknown suite 'nosuch'; choose from ['all', 'limits', 'oracle', 'quadrature']"),
], ids=["slab-pair-energy", "slab-self-energy", "slab-force", "far-box", "unknown-suite"])
def test_refusals_with_warnings_as_errors(tmp_path, argv, doc, code, says):
    if doc is not None:
        argv = argv + ["--scene", write_scene(tmp_path, doc)]
    src = os.path.dirname(os.path.dirname(greens_coulomb.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "greens_coulomb", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and says in proc.stderr
    if code == 0:
        grad = [c / (4 * math.pi * 1e17) for c in (-4.6108, 0.0, -4.0843)]
        force = strict_json(proc.stdout)["F_newtons"]
        # F = -(qA qB / eps0) grad g, qA qB = -e^2
        assert force == pytest.approx([QE * QE / epsilon_0 * c for c in grad],
                                      rel=2e-5, abs=1e-60)


def _one_charge(geometry, position):
    return {"geometry": geometry, "charges": [{"q": 1.0, "unit": "e", "position": position}]}


def _drude(omega_p_bound, omega_0):
    """A screened bulk pair whose eps_b = 1 + (omega_p_bound / omega_0)^2 overflows."""
    return {"geometry": {"type": "nonlocal_bulk", "drude": {
                "omega_p": 1e16, "omega_p_bound": omega_p_bound, "omega_0": omega_0,
                "beta": 1e6}},
            "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.0]},
                        {"q": 1.0, "unit": "e", "position": [1e-9, 0.0, 0.0]}]}


# inputs that each ended in a Python traceback:
# - a gap 1e-320 m wide, where L^2 of the gradient's floor underflowed to 0
#   (ZeroDivisionError); the floor itself leaves float64 there;
# - between walls that conduct, 1e-300 m apart, d^2 of the trigamma form
#   underflowed (a numpy RuntimeWarning); the self-force overflows; and
#   1e-320 m apart the digamma self-energy overflowed in numpy (a warning);
# - in a dielectric gap 1e-160 m wide with abs_tol 1e-300, the Hankel rule
#   sums of the self-force overflowed (a numpy RuntimeWarning);
# - a screened bulk whose squared frequency ratio overflowed (OverflowError);
# - Born bodies in a background of eps 1e200, where (4 pi eps_bg)^2 overflowed
#   (OverflowError); as a product g1 is 0, the background screening the body;
# - a Born pair at rel_tol 1e-15, whose octree would refine to millions of
#   cells before its depth cap (minutes), now stopped at its cell budget;
# - an aperture of R = 5e-324 m by charges metres away, where R in units of
#   their scale underflowed to 0 (ZeroDivisionError), and the on-axis
#   self-force, where |z|/R overflowed and made a NaN
_FLOOR_GAP = _one_charge({"type": "cavity", "eps1": 259.2553294595837, "eps2": 1e14,
                          "eps3": 22.233046336741875, "d": 1e-320}, [-5.76e-10, 0.0, -5e-324])
_THIN_CONDUCTING_GAP = {**_one_charge(
    {"type": "cavity", "eps1": 1e17, "eps2": 1.8981676397908829, "eps3": "conductor",
     "d": 1e-300}, [7.500112386477893e-301, -2.6704096434248514e-301, 6.66317549933047e-302]),
    "options": {"abs_tol": 1.0}}
_SUBNORMAL_CONDUCTING_GAP = _one_charge(
    {"type": "cavity", "eps1": 1e17, "eps2": 1.0010063405019616, "eps3": "conductor",
     "d": 1e-320}, [-3.95e-322, -1.005e-320, -1.843e-321])
_THIN_DIELECTRIC_GAP = {**_one_charge(
    {"type": "cavity", "eps1": 2.0, "eps2": 1.0943202983637288, "eps3": 1.012375883039627,
     "d": 1e-160}, [1.5672149643770243e-160, 1.8982532933848963e-160, 3.0302608556644843e-161]),
    "options": {"abs_tol": 1e-300}}
_SCREENED_BOX = _one_charge({"type": "dilute_body", "alpha": 1e-40, "background_eps": 1e200,
                             "regions": [{"box": [-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9],
                                          "eta": 1e27}]}, [0.0, 0.0, -0.5e-9])
_SCREENED_HALF_SPACE = _one_charge({"type": "dilute_body", "alpha": 1e-40,
                                    "background_eps": 1e200, "half_space_eta": 1e27},
                                   [0.0, 0.0, 1e-9])
_FINE_BORN_PAIR = {"geometry": {"type": "dilute_body", "alpha": 2.298619228635375e-42,
                                "regions": [{"box": [-1e-9, 1e-9, -1e-9, 1e-9, -2e-9, -1e-9],
                                             "eta": 1.0105590633899968e28}]},
                   "charges": [{"q": 1e-30, "unit": "e", "position": [0.0, 0.0, 0.0]},
                               {"q": -2.5, "unit": "e",
                                "position": [1.6956042353138439e-09, 1.1437791477711392e-09,
                                             0.0]}],
                   "options": {"rel_tol": 1e-15}}
_TINY_APERTURE = {"type": "plate_with_hole", "R": 5e-324}
_TINY_APERTURE_PAIR = {"geometry": _TINY_APERTURE, "charges": [
    {"q": -2.5, "unit": "e", "position": [-1.947353288519331, -0.644079489977484,
                                          -0.2618665874336856]},
    {"q": 1.0, "unit": "e", "position": [3.6021245866115414, 5.486748268623485,
                                         1.7537458292144585]}]}
_SOLID_PLATE_SELF_FORCE = ('{"F_newtons": [0.0, 0.0, -9.01202168272795e-31], '
                           '"local_field_factor": 1.0, "units": "si"}\n')
_NO_SELF_ENERGY = '{"U_joules": -0.0, "ratio_to_free": null, "abs_err": 0.0, "units": "si"}\n'
_NO_SELF_FORCE = '{"F_newtons": [0.0, 0.0, 0.0], "local_field_factor": 1.0, "units": "si"}\n'


@pytest.mark.parametrize("command,doc,code,says", [
    ("force", _FLOOR_GAP, 2, "(DomainError): the absolute target of the gap's gradient, over "
                             "the length L = 9.99e-321 (d = 1e-320), leaves float64"),
    ("self-energy", _FLOOR_GAP, 2, "(DomainError): the image series of the gap at rho = 0.0, "
                                   "z = -5e-324, z0 = -5e-324, d = 1e-320 overflows float64"),
    ("force", _THIN_CONDUCTING_GAP, 2, "force_on_A: the force overflows float64 in its z component"),
    ("self-energy", _SUBNORMAL_CONDUCTING_GAP, 2, "the digamma self-term of the conducting gap at "
                                                  "z0 = -1.843e-321, d = 1e-320 overflows float64"),
    ("force", _THIN_DIELECTRIC_GAP, 3, "the Gauss-Legendre sum overflows float64 on "
                                       "[0.000000e+00, 2.538407e+160], though every integrand "
                                       "value there is finite"),
    ("pair-energy", _drude(1e300, 1.219e19), 2,
     "eps_b = 1 + (omega_p_bound / omega_0)^2 overflows float64 at omega_p_bound = 1e+300, "
     "omega_0 = 1.219e+19"),
    ("self-energy", {**_drude(2.7e-21, 1e-300), "charges": _drude(1, 1)["charges"][:1]}, 2,
     "at omega_p_bound = 2.7e-21, omega_0 = 1e-300"),
    ("self-energy", _SCREENED_BOX, 0, _NO_SELF_ENERGY),
    ("force", _SCREENED_BOX, 0, _NO_SELF_FORCE),
    ("self-energy", _SCREENED_HALF_SPACE, 0, _NO_SELF_ENERGY),
    ("force", _SCREENED_HALF_SPACE, 0, _NO_SELF_FORCE),
    ("pair-energy", _FINE_BORN_PAIR, 3, "Born octree: the 735104 cells of depth 10 would take "
                                        "it past its budget of 262144 cells (rel_tol 1e-15)"),
    ("pair-energy", _TINY_APERTURE_PAIR, 2, "plate_hole_g: the aperture radius R = 5e-324 "
                                            "underflows to 0 in units of the points' scale 4.0"),
    # the solid plate's self-force, which the aperture changes by far less than an ulp
    ("force", _one_charge(_TINY_APERTURE, [0.0, 0.0, 8.0]), 0, _SOLID_PLATE_SELF_FORCE),
], ids=["floor-force", "floor-self-energy", "thin-conducting-gap-force",
        "subnormal-conducting-gap-self-energy", "thin-dielectric-gap-force", "drude-pair-energy", "drude-self-energy",
        "screened-box-self-energy", "screened-box-force", "screened-half-space-self-energy",
        "screened-half-space-force", "fine-born-pair", "tiny-aperture-pair-energy",
        "tiny-aperture-self-force"])
def test_escapes_with_warnings_as_errors(tmp_path, command, doc, code, says):
    # each exits with its code and no traceback; an exit-0 call prints `says`
    src = os.path.dirname(os.path.dirname(greens_coulomb.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "greens_coulomb", command,
         "--scene", write_scene(tmp_path, doc)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout == says
    else:
        assert proc.stdout == "" and says in proc.stderr


def test_born_force_by_an_edge_line_with_warnings_as_errors(tmp_path, monkeypatch, capsys):
    # 1e-9 m off the line of an edge of the 2 m box and 1 mm past its end,
    # the closed-form gradient's face integrals cancel and the octree takes
    # the self-force. It finishes under `python -W error` within the timeout
    # and matches a fourth-order central difference (step 1e-7 m) of the
    # closed-form self-energy, a route that shares no code with the octree.
    def scene(pos):
        return write_scene(tmp_path, {"geometry": TestCliCommands.BIG_BOX, "charges": [
            {"q": 1.0, "unit": "e", "position": pos}]})

    pos = [1.0 + 1e-9, 1.001, -1.0 + 1e-9]
    src = os.path.dirname(os.path.dirname(greens_coulomb.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "greens_coulomb", "force", "--scene", scene(pos)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    force = strict_json(proc.stdout)["F_newtons"]

    def no_octree(*args, **kwargs):
        raise AssertionError("the self-energy took the octree")

    monkeypatch.setattr(born, "_adaptive_boxes", no_octree)

    def energy(k, step):
        moved = list(pos)
        moved[k] += step
        assert main(["self-energy", "--scene", scene(moved)]) == 0
        return strict_json(capsys.readouterr().out)["U_joules"]

    h = 1e-7
    fd = [-(8.0 * (energy(k, h) - energy(k, -h)) - (energy(k, 2 * h) - energy(k, -2 * h)))
          / (12.0 * h) for k in range(3)]
    assert math.dist(force, fd) <= 1e-8 * math.hypot(*fd)


class TestValidateCommand:
    def test_quadrature_suite_passes(self, tmp_path, capsys):
        assert main(["validate", "quadrature"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
