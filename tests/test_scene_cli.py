import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb.cli import main
from greens_coulomb.core import PERFECT_CONDUCTOR, SceneError
from greens_coulomb.scene import parse_scene, set_scene_value

FREE_PAIR = {
    "geometry": {"type": "free_space", "eps": 1.0},
    "charges": [
        {"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.0]},
        {"q": -1.0, "unit": "e", "position": [0.0, 0.0, 1.0]},
    ],
}


def far_pair(x):
    return {"geometry": {"type": "free_space", "eps": 1.0},
            "charges": [{"q": 1.0, "unit": "e", "position": [x, 0.0, 0.0]},
                        {"q": 1.0, "unit": "e", "position": [-x, 0.0, 0.0]}]}


def charge_pair(geometry, qa, qb):
    return {"geometry": geometry,
            "charges": [{"q": qa, "position": [0.5, 0.0, 0.7]},
                        {"q": qb, "position": [-0.2, 0.1, 1.6]}]}


HALF_SPACE = {"type": "half_space", "eps1": 1, "eps2": 4}


def aperture_pair(R, scale):
    """The contract test's two charges, every length times `scale`, at an aperture of radius R."""
    return {"geometry": {"type": "plate_with_hole", "R": R},
            "charges": [{"q": 1.0, "unit": "e", "position": [0.3 * scale, -0.2 * scale,
                                                             0.3 * scale]},
                        {"q": -2e-19, "position": [-0.1 * scale, 0.1 * scale, 0.2 * scale]}]}


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
        out = set_scene_value(doc, "charges.1.position.2", 2.5)
        assert out["charges"][1]["position"][2] == 2.5
        assert doc["charges"][1]["position"][2] == 1.0  # original untouched
        with pytest.raises(SceneError):
            set_scene_value(doc, "charges.1.position.7", 1.0)
        with pytest.raises(SceneError):
            set_scene_value(doc, "geometry.type", 1.0)


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

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        # a relative target of 1e-15 below the float cancellation floor of the
        # panel sums (between conducting walls this pair takes the mode sum)
        doc = {"geometry": {"type": "cavity", "eps1": 4.0, "eps2": 1.0,
                            "eps3": 8.0, "d": 1.0},
               "charges": [{"q": 1.0, "unit": "e", "position": [2.0, 0, 0.1]},
                           {"q": 1.0, "unit": "e", "position": [0, 0, -0.2]}],
               "options": {"rel_tol": 1e-15, "abs_tol": 1e-300}}
        scene = write_scene(tmp_path, doc)
        code = main(["pair-energy", "--scene", scene])
        err = capsys.readouterr().err
        assert code == 3
        assert "hankel_integral" in err  # names the originating module

    def test_born_depth_cap_exit_3(self, tmp_path, capsys):
        # 1 mm above a face of a 2 m box the octree needs cells finer than
        # its depth cap of 12
        doc = {"geometry": {"type": "dilute_body", "alpha": 1e-40,
                            "regions": [{"box": [-1.0, 1.0, -1.0, 1.0, -2.0, -1.0],
                                         "eta": 1e3}]},
               "charges": [{"q": 1.0, "unit": "e", "position": [0, 0, -0.999]}]}
        scene = write_scene(tmp_path, doc)
        assert main(["self-energy", "--scene", scene]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "20 cells" in err and "depth cap 12" in err
        assert "diff/budget" in err

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
            assert code == 0
            rec = strict_json(out)
            assert {k: rec[k] for k in expect} == expect

    @pytest.mark.parametrize("args", [
        [],
        ["--param", "charges.1.position.2", "--min", "1", "--max", "2", "--num", "2"],
    ])
    def test_non_finite_record_exit_2(self, tmp_path, capsys, monkeypatch, args):
        from greens_coulomb import interactions
        monkeypatch.setattr(interactions, "pair_energy", lambda *args: interactions.
                            InteractionResult(math.nan, None, 0.0))
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
        assert "geometry.regions[0].box" in capsys.readouterr().err

    def test_bad_sweep_path_exit_2(self, tmp_path, capsys):
        scene = write_scene(tmp_path, FREE_PAIR)
        code = main(["sweep", "--scene", scene, "--param", "geometry.nope",
                     "--min", "0", "--max", "1", "--num", "3"])
        assert code == 2


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
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        strict_json(out.getvalue())


class TestValidateCommand:
    def test_quadrature_suite_passes(self, tmp_path, capsys):
        assert main(["validate", "quadrature"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
