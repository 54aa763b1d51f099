"""Tests of the benchmark itself: its references and its runs.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _conducting_image_g(ra, rb, d, eps2, n=200_000):
    """Images of a source between grounded walls, paired so the sum converges.

    g 4 pi eps2 = sum_m f(a + 2md) - f(b + 2md), a = z - z0, b = z + z0 + d;
    adding m and -m together leaves terms of order 1/m^3.
    """
    rho2 = (ra[0] - rb[0]) ** 2 + (ra[1] - rb[1]) ** 2
    a, b = ra[2] - rb[2], ra[2] + rb[2] + d

    def f(s):
        return 1.0 / np.sqrt(rho2 + s * s)

    m = np.arange(1, n + 1, dtype=float) * 2.0 * d
    total = f(a) - f(b) + np.sum(f(a + m) + f(a - m) - f(b + m) - f(b - m))
    return float(total) / (refs.FOUR_PI * eps2)


@pytest.mark.parametrize("rho", [0.3, 0.7, 1.5, 3.0])
@pytest.mark.parametrize("za, zb", [(0.0, 0.0), (0.2, -0.3), (0.4, 0.35)])
def test_modal_series_matches_image_series(rho, za, zb):
    d = 1.0
    ra, rb = (rho, 0.0, za), (0.0, 0.0, zb)
    modal, bound = refs.modal_gap_g(ra, rb, d, 1.0)
    image = _conducting_image_g(ra, rb, d, 1.0)
    free = 1.0 / (refs.FOUR_PI * math.dist(ra, rb))
    assert abs(modal - image) <= bound + 1e-9 * free


def test_dielectric_image_series_tends_to_the_conducting_one():
    d, rho = 1.0, 0.8
    ra, rb = (rho, 0.0, 0.1), (0.0, 0.0, -0.2)
    modal, _ = refs.modal_gap_g(ra, rb, d, 1.0)
    # walls of permittivity 1e4: r = 0.9998, within 2e-4 of a conductor
    near, _ = refs.image_gap_g(ra, rb, d, 1e4, 1.0, 1e4)
    assert abs(near - modal) <= 1e-3 * abs(modal)


def test_midplane_self_energy_is_minus_ln2():
    for d, eps2 in ((1.0, 1.0), (2e-6, 3.5)):
        assert math.isclose(refs.digamma_gap_g1(0.0, d, eps2),
                            -math.log(2.0) / (2.0 * math.pi * d * eps2), rel_tol=1e-14)


def test_digamma_is_the_coincident_limit_of_the_modal_series():
    # g - g_free tends to g1 as the field point approaches the source
    d, z, eps = 1.0, 0.17, 1.0
    for rho in (1e-3,):
        modal, _ = refs.modal_gap_g((rho, 0, z), (0, 0, z), d, eps)
        g1 = modal - 1.0 / (refs.FOUR_PI * eps * rho)
        assert abs(g1 - refs.digamma_gap_g1(z, d, eps)) <= 1e-5


def _fd(fn, x, h):
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


@pytest.mark.parametrize("walls", [(None, None), (4.0, 8.0), (4.0, None)])
def test_gap_gradients_match_differences(walls):
    e1, e3 = walls
    d = 1.0
    ra, rb = np.array([0.6, -0.3, 0.2]), np.array([0.0, 0.1, -0.25])
    grad, _ = refs.gap_grad(ra, rb, d, e1, 1.0, e3)
    for axis in range(3):
        def g(x):
            p = ra.copy()
            p[axis] = x
            return refs.gap_g(p, rb, d, e1, 1.0, e3)[0]
        assert math.isclose(grad[axis], _fd(g, ra[axis], 1e-4), rel_tol=1e-6, abs_tol=1e-9)
    for z in (-0.3, 0.1, 0.4):
        slope, _ = refs.gap_dg1_dz(z, d, e1, 1.0, e3)
        diff = _fd(lambda x: refs.gap_g1(x, d, e1, 1.0, e3)[0], z, 1e-4)
        assert math.isclose(slope, diff, rel_tol=1e-6)


def test_closed_form_gradients_match_differences():
    ra, rb = np.array([0.3, 0.2, 0.5]), np.array([-0.4, 0.1, 0.9])
    checks = [
        (lambda p: refs.half_space_g(p, rb, 1.0, 4.0), refs.half_space_grad(ra, rb, 1.0, 4.0)),
        (lambda p: refs.half_space_g(p, -rb, 1.0, 4.0), refs.half_space_grad(ra, -rb, 1.0, 4.0)),
        (lambda p: refs.half_space_g(p, rb, 2.0, None), refs.half_space_grad(ra, rb, 2.0, None)),
        (lambda p: math.exp(-2.0 * np.linalg.norm(p - rb)) / (refs.FOUR_PI * 3.0
                                                              * np.linalg.norm(p - rb)),
         refs.yukawa_grad(ra, rb, 3.0, 2.0)),
    ]
    for fn, grad in checks:
        assert np.allclose(refs.central_gradient(fn, ra, 1e-4), grad, rtol=1e-7, atol=1e-12)
    for z in (0.3, -0.7):
        slope = refs.half_space_self_dg1_dz(z, 1.0, 4.0)
        side, other = (1.0, 4.0) if z > 0 else (4.0, 1.0)
        refl = (side - other) / (side + other)
        diff = _fd(lambda x: refl / (refs.FOUR_PI * side * 2 * abs(x)), z, 1e-5)
        assert math.isclose(slope, diff, rel_tol=1e-7)
    for z in (0.2, 1.0, -3.0):
        diff = _fd(lambda x: refs.plate_hole_onaxis_g1(x, 1.0), z, 1e-5)
        assert math.isclose(refs.plate_hole_onaxis_dg1_dz(z, 1.0), diff, rel_tol=1e-7)


def test_half_space_volume_identity():
    """int_{z<0} d^3x / |r - x|^4 = pi/h, the identity behind born_half_space_g1."""
    h = 0.7
    radial, _ = quad(lambda z: quad(lambda rho: 2 * math.pi * rho / (rho * rho + z * z) ** 2,
                                    0, np.inf, epsabs=0, epsrel=1e-12)[0],
                     h, np.inf, epsabs=0, epsrel=1e-12)
    assert math.isclose(radial, math.pi / h, rel_tol=1e-9)
    # the same volume from the graded box rule: a slab of half-width L misses
    # at most 2 pi/L of it
    L = 1e3 * h
    slab = refs._box_chain_integral((-L, L, -L, L, -L, 0.0), np.array([0, 0, h]),
                                    np.array([0, 0, h]), np.eye(3), 12, 1.5)
    assert 0.0 <= math.pi / h - slab <= 2 * math.pi / L
    g1 = refs.born_half_space_g1((0, 0, h), (0, 0, h), 2.0, 3.0, 1.5, 0.5)
    assert math.isclose(g1, -(2.0 * 3.0) / (0.5 * (refs.FOUR_PI * 1.5) ** 2) * math.pi / h,
                        rel_tol=1e-14)


def test_box_rule_far_field_is_a_point_dipole_sum():
    # a small cube far away acts as its volume times the integrand at its center
    alpha = np.diag([2.0, 1.0, 0.5])
    r = np.array([0.3, -0.2, 50.0])
    box = (-0.01, 0.01, -0.01, 0.01, -0.01, 0.01)
    got = refs._box_chain_integral(box, r, r, alpha, 8, 2.0)
    expected = 0.02 ** 3 * (r @ alpha @ r) / float(r @ r) ** 3
    assert math.isclose(got, expected, rel_tol=1e-6)


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_of_every_workload_is_correct(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "0"))
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    # only the conducting-gap forces at rho >= 8d fail, three per round
    assert res["failed"] == (3 if workload == "forces" else 0)


def test_traced_counts_repeat_exactly():
    runs = [_result(_run("--workload", "forces", "--seed", "5", "--seconds", "0",
                         "--trace", "1")) for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(runs[0]["metrics"]) == names
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["interactions.force_on_A_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sweeps", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
