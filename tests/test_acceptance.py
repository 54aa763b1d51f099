"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 1-7 are checks of `greens_coulomb.validate` (the same ones
`greens-coulomb validate all` prints); each test here asserts that its
checks pass. Criterion 8 drives the CLI and prints one PASS/FAIL line per
figure.
"""

import json
import math

import pytest
from scipy.constants import elementary_charge as QE, epsilon_0

from greens_coulomb import validate
from greens_coulomb.cli import main as cli_main

# acceptance criterion -> the validate checks that carry it
CRITERIA = {
    "1": (validate.check_local_field_80,),
    "2a": (validate.check_onaxis_limit,),
    "2b": (validate.check_plate_hole_r_to_zero,),
    "2c": (validate.check_plate_hole_r_to_zero_opposite,),
    "3": (validate.check_cavity_triple, validate.check_cavity_asymptotic,
          validate.check_cavity_slope),
    "4": (validate.check_screened_grid, validate.check_thomas_fermi),
    "5": (validate.check_born_half_space, validate.check_born_closed_form,
          validate.check_born_vs_linearized),
    "6": (validate.check_fd_half_space, validate.check_fd_convergence,
          validate.check_fd_cavity_general),
    "7_reciprocity": (validate.check_reciprocity,),
    "7_force": (validate.check_force_gradient,),
    "7_action_reaction": (validate.check_action_reaction, validate.check_bilinearity),
    "7_ratio": (validate.check_ratio_distant_interfaces,),
}


def _passes(*checks):
    for check in checks:
        result = check()
        assert result.passed, result.line()


def test_criterion_1_local_field_factor():
    _passes(*CRITERIA["1"])


def test_criterion_2a_onaxis_center_extrapolation():
    _passes(*CRITERIA["2a"])


def test_criterion_2b_small_hole_image_formula():
    _passes(*CRITERIA["2b"])


def test_criterion_2c_opposite_side_screening():
    _passes(*CRITERIA["2c"])


def test_criterion_3_cavity_triple_agreement():
    _passes(*CRITERIA["3"])


def test_criterion_4_screened_bulk_grid():
    _passes(*CRITERIA["4"])


def test_criterion_5_born_half_space():
    _passes(*CRITERIA["5"])


def test_criterion_6_oracle_equivalence():
    _passes(*CRITERIA["6"])


def test_criterion_7_reciprocity_1000():
    _passes(*CRITERIA["7_reciprocity"])


def test_criterion_7_force_gradient_consistency():
    _passes(*CRITERIA["7_force"])


def test_criterion_7_action_reaction_and_bilinearity():
    _passes(*CRITERIA["7_action_reaction"])


def test_criterion_7_ratio_to_free_distant_interfaces():
    _passes(*CRITERIA["7_ratio"])


_CLAIMED = {check for checks in CRITERIA.values() for check in checks}


@pytest.mark.parametrize("check", [c for c in validate.SUITES["all"] if c not in _CLAIMED],
                         ids=lambda c: c.__name__)
def test_other_validate_checks(check):
    _passes(check)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    # let the per-figure PASS/FAIL lines through pytest's capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {text}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)


# ---------------------------------------------------------------------------
# 8. figure reproduction through the CLI
# ---------------------------------------------------------------------------

def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "param,U,ratio_to_free,abs_err"
    rows = []
    for line in lines[1:]:
        param, u, ratio, err = line.split(",")
        rows.append((float(param), float(u),
                     float(ratio) if ratio else None, float(err)))
    return rows


def test_criterion_8_on_axis_self_energy_curve(tmp_path):
    # on-axis single-charge curve: scaled interaction tends to the solid-plate
    # image value as z/R grows
    R = 1.0
    doc = {"geometry": {"type": "plate_with_hole", "R": R},
           "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.5]}]}
    scene = tmp_path / "fig_onaxis.json"
    scene.write_text(json.dumps(doc))
    out = tmp_path / "fig_onaxis.csv"
    code = cli_main(["sweep", "--scene", str(scene), "--param",
                     "charges.0.position.2", "--min", "0.05", "--max", "50.0",
                     "--num", "40", "--log", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    plate_ratio = [u / (-QE ** 2 / (16 * math.pi * epsilon_0 * z))
                   for z, u, _, _ in rows]
    tail = plate_ratio[-8:]
    ok = abs(tail[-1] - 1.0) <= 0.02 and all(
        abs(b - 1.0) <= abs(a - 1.0) + 1e-12 for a, b in zip(tail, tail[1:]))
    _report(8, ok, f"on-axis curve -> solid-plate value: U/U_plate at z/R=50 is "
                   f"{tail[-1]:.4f} (within 2%, monotone approach)")
    assert ok


def test_criterion_8_two_sided_curves(tmp_path):
    # probe charge swept across both sides of the plate, z_B in [-5, 5] z_A
    # (40 samples: none lands on the plate or on the fixed charge)
    z_a = 1.0
    outs = {}
    for R in (0.0, 1.0, 10.0):
        doc = {"geometry": {"type": "plate_with_hole", "R": R},
               "charges": [{"q": 1.0, "unit": "e", "position": [0.0, 0.0, z_a]},
                           {"q": 1.0, "unit": "e", "position": [0.0, 0.0, 2.0]}]}
        scene = tmp_path / f"fig_pair_{R}.json"
        scene.write_text(json.dumps(doc))
        out = tmp_path / f"fig_pair_{R}.csv"
        code = cli_main(["sweep", "--scene", str(scene), "--param",
                         "charges.1.position.2", "--min", "-5.0", "--max",
                         "5.0", "--num", "40", "--out", str(out)])
        assert code == 0
        outs[R] = _read_csv(out)

    below = lambda rows: [row for row in rows if row[0] < 0.0]
    above = lambda rows: [row for row in rows if row[0] > 0.0]
    solid_ok = all(u == 0.0 and r == 0.0 for _, u, r, _ in below(outs[0.0])) \
        and all(0.0 < r < 1.0 for _, _, r, _ in above(outs[0.0]))
    open_ok = all(r is not None and 0.0 < r < 1.0
                  for _, _, r, _ in below(outs[1.0]))
    wide_ok = all(r is not None and 0.0 < r < 1.0
                  for _, _, r, _ in below(outs[10.0]))
    # a wider aperture lets more of the interaction through
    stronger = all(rb > ra for (_, _, ra, _), (_, _, rb, _)
                   in zip(below(outs[1.0]), below(outs[10.0])))
    ok = solid_ok and open_ok and wide_ok and stronger
    _report(8, ok, f"two-sided curves: R=0 screens z_B<0 entirely ({solid_ok}); "
                   f"R>0 leaks with ratio in (0,1) ({open_ok and wide_ok}); "
                   f"wider hole leaks more ({stronger})")
    assert ok


def test_criterion_8_off_axis_slice(tmp_path):
    # a slice of the two-charge interaction with one charge fixed just below
    # the aperture plane, the probe scanning along z at the aperture edge
    R = 1.0
    doc = {"geometry": {"type": "plate_with_hole", "R": R},
           "charges": [{"q": 1.0, "unit": "e", "position": [R, 0.0, -0.15]},
                       {"q": 1.0, "unit": "e", "position": [R, 0.0, 1.0]}]}
    scene = tmp_path / "fig_slice.json"
    scene.write_text(json.dumps(doc))
    out = tmp_path / "fig_slice.csv"
    code = cli_main(["sweep", "--scene", str(scene), "--param",
                     "charges.1.position.2", "--min", "0.05", "--max", "3.0",
                     "--num", "30", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    ratios = [r for _, _, r, _ in rows]
    ok = all(r is not None and 0.0 < r <= 1.0 + 1e-9 for r in ratios)
    _report(8, ok, "off-axis slice: scaled interaction finite and within (0, 1]")
    assert ok


def test_criterion_8_cavity_crossover(tmp_path):
    d = 1.0
    doc = {"geometry": {"type": "cavity", "eps1": "conductor", "eps2": 1.0,
                        "eps3": "conductor", "d": d},
           "charges": [{"q": 1.0, "unit": "e", "position": [0.1, 0.0, 0.0]},
                       {"q": 1.0, "unit": "e", "position": [0.0, 0.0, 0.0]}]}
    scene = tmp_path / "fig_crossover.json"
    scene.write_text(json.dumps(doc))
    out = tmp_path / "fig_crossover.csv"
    code = cli_main(["sweep", "--scene", str(scene), "--param",
                     "charges.0.position.0", "--min", "0.1", "--max", "8.0",
                     "--num", "24", "--log", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    ratios = [r for _, _, r, _ in rows]
    mono = all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    # small-rho image expansion: ratio = 1 - 2 ln2 (rho/d) + O((rho/d)^3)
    near_expect = 1.0 - 2.0 * math.log(2.0) * 0.1 / d
    near = abs(ratios[0] - near_expect) <= 0.01
    far_expect = math.sqrt(8.0 / (8.0 * d * d)) * 8.0 * math.exp(-8.0 * math.pi)
    far = abs(ratios[-1] - far_expect) / far_expect <= 0.10
    ok = mono and near and far
    _report(8, ok, f"cavity crossover: Coulomb-like at 0.1d (ratio "
                   f"{ratios[0]:.4f} vs {near_expect:.4f}), exponential at 8d "
                   f"(ratio/asym {ratios[-1] / far_expect:.3f}), monotone {mono}")
    assert ok
