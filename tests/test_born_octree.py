"""The level-batched Born octree against the cell-by-cell loop it replaced.

The program integrates the half-space, and a box at coincident points, in
closed form, so those cases call the octree directly: on the half-cube
shells of `validate.half_space_octree` and on the boxes of
`validate.box_octree`.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.constants import epsilon_0

from greens_coulomb import born, kernels, validate
from greens_coulomb.born import (
    Box,
    DensityRegion,
    DiluteBody,
    PolarizabilityTensor,
    born_scattering_g1,
)
from greens_coulomb.core import DEFAULT_QUADRATURE, ConvergenceError, Point3

NM = 1e-9
ALPHA = 1e-30 * epsilon_0
ISO = PolarizabilityTensor.isotropic(ALPHA)
ANISO = PolarizabilityTensor.from_matrix(
    ALPHA * np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]))
SLAB = DensityRegion(Box(-1 * NM, 1 * NM, -1 * NM, 1 * NM, -2 * NM, -1 * NM), 1e27)
SIDE = DensityRegion(Box(1.5 * NM, 2.5 * NM, -0.5 * NM, 0.5 * NM, -1 * NM, 0.5 * NM), 2e27)


def reference_adaptive_boxes(integrand, boxes, rel_tol, scale_hint, max_depth=12,
                             order=None):
    """FIFO loop over Box objects, one integrand call per cell of order^3
    Gauss nodes (the program's order by default); the error adds each
    accepted cell's roundoff, as the program's octree does."""
    gx, gw = leggauss(born._GL_ORDER if order is None else order)

    def cell(b):
        def axis(a, c):
            return 0.5 * (a + c) + 0.5 * (c - a) * gx, 0.5 * (c - a) * gw

        (xs, wx), (ys, wy), (zs, wz) = axis(b.x0, b.x1), axis(b.y0, b.y1), axis(b.z0, b.z1)
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        W = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
        return integrand(np.column_stack([X.ravel(), Y.ravel(), Z.ravel()]),
                         W.reshape(1, -1))[0]

    def children(b):
        mx, my, mz = 0.5 * (b.x0 + b.x1), 0.5 * (b.y0 + b.y1), 0.5 * (b.z0 + b.z1)
        return [Box(xa, xb, ya, yb, za, zb)
                for xa, xb in ((b.x0, mx), (mx, b.x1))
                for ya, yb in ((b.y0, my), (my, b.y1))
                for za, zb in ((b.z0, mz), (mz, b.z1))]

    total = err = 0.0
    queue = [(b, cell(b), 0) for b in boxes]
    while queue:
        next_queue = []
        for box, coarse, depth in queue:
            kids = children(box)
            kid_vals = [cell(k) for k in kids]
            fine = 0.0
            for v in kid_vals:
                fine += v
            diff = abs(fine - coarse)
            budget = rel_tol * max(abs(fine), scale_hint)
            if diff <= max(budget, 1e-15 * abs(fine)) or depth >= max_depth:
                total += fine
                err += diff + born._ROUNDOFF * abs(fine)
            else:
                next_queue.extend((k, v, depth + 1) for k, v in zip(kids, kid_vals))
        queue = next_queue
    return total, err


def run_counted(monkeypatch, octree, compute):
    """compute() with born's octree replaced by `octree`, counting cells integrated."""
    cells = [0]

    def counted_octree(integrand, *args, **kwargs):
        def counted(pts, w):
            cells[0] += w.shape[0]
            return integrand(pts, w)
        return octree(counted, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(born, "_adaptive_boxes", counted_octree)
        result = compute()
    return result, cells[0]


def g1(body, ra, rb):
    return lambda: born_scattering_g1(Point3(*ra), Point3(*rb), body)


def half_space_octree(ra, rb):
    return lambda: validate.half_space_octree(Point3(*ra), Point3(*rb), ISO.matrix,
                                              DEFAULT_QUADRATURE.rel_tol)


def self_octree(regions, alpha, r):
    """The octree on the self integrand, which the program takes in closed form."""
    return lambda: validate.box_octree(Point3(*r), Point3(*r), [reg.box for reg in regions],
                                       alpha.matrix, DEFAULT_QUADRATURE.rel_tol)


CASES = {
    "box_pair_far": g1(DiluteBody(alpha=ISO, regions=(SLAB,)),
                       (0.0, 0.0, 5 * NM), (1 * NM, 0.5 * NM, 5 * NM)),
    "box_self_0.2nm_above_face": self_octree((SLAB,), ISO, (0.0, 0.0, -0.8 * NM)),
    # background_eps scales only the prefactor, which the octree does not see
    "anisotropic_background_eps": self_octree((SLAB,), ANISO, (0.1 * NM, -0.2 * NM, 0.0)),
    "two_regions": g1(DiluteBody(alpha=ANISO, regions=(SLAB, SIDE)),
                      (0.0, 0.0, 1 * NM), (2 * NM, 0.0, 1.5 * NM)),
    "half_space_self": half_space_octree((0.0, 0.0, 1 * NM), (0.0, 0.0, 1 * NM)),
    "half_space_pair": half_space_octree((0.0, 0.0, 1 * NM), (0.5 * NM, -0.2 * NM, 1.4 * NM)),
    # the two boxes of a charge_body_energy at one level of the octree
    "charge_body_energy": self_octree((SLAB, SIDE), ANISO, (0.0, 0.0, 1 * NM)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_cell_by_cell_octree(monkeypatch, name):
    new, new_cells = run_counted(monkeypatch, born._adaptive_boxes, CASES[name])
    old, old_cells = run_counted(monkeypatch, reference_adaptive_boxes, CASES[name])
    assert new.value != 0.0 and new_cells > 0
    assert abs(new.value - old.value) <= old.abs_err
    # same nodes, weights, kernel and summation order: equal to the last bit
    assert (new.value, new.abs_err) == (old.value, old.abs_err)
    assert new_cells == old_cells


@pytest.mark.parametrize("name", sorted(CASES))
def test_within_the_error_of_the_order_5_octree(monkeypatch, name):
    # the rule before Gauss order 7: 5 nodes per axis, with the same budget
    new = CASES[name]()
    old, _ = run_counted(monkeypatch, functools.partial(reference_adaptive_boxes, order=5),
                         CASES[name])
    assert abs(new.value - old.value) <= old.abs_err


@pytest.mark.parametrize("name", ["box_self_0.2nm_above_face", "half_space_pair",
                                  "charge_body_energy"])
def test_bit_reproducible(name):
    a, b = CASES[name](), CASES[name]()
    assert (a.value, a.abs_err) == (b.value, b.abs_err)


def test_non_finite_integrand_stops_refinement(monkeypatch):
    # a body of 1e150 m overflows the weights; refining would never accept.
    # Box admits no such coordinates (MAX_BOX_COORD), so the octree, which
    # reads only the corners, takes them from a stand-in
    monkeypatch.setattr(born, "_MAX_DEPTH", 2)
    huge = SimpleNamespace(x0=-1e150, x1=1e150, y0=-1e150, y1=1e150, z0=-1e150, z1=-1.0)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="depth 0"):
        born._adaptive_boxes(lambda pts, w: kernels.alpha_chain_sum(
            pts, w, np.zeros(3), np.zeros(3), np.eye(3)), [huge], 1e-6, 0.0)


def test_alpha_chain_sum_per_cell_matches_flat_calls():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, (6 * 125, 3))
    w = rng.uniform(0.0, 1.0, (6, 125))
    r, rp = np.array([0.0, 0.1, 2.0]), np.array([0.2, -0.3, 1.5])
    alpha = ANISO.matrix / ALPHA
    sums = kernels.alpha_chain_sum(pts, w, r, rp, alpha)
    assert sums.shape == (6,)
    for i in range(6):
        one = kernels.alpha_chain_sum(pts[125 * i:125 * (i + 1)], w[i:i + 1], r, rp, alpha)
        assert one.shape == (1,)
        assert abs(sums[i] - one[0]) <= 1e-14 * abs(one[0])
