import ast
import math
from pathlib import Path

import numpy as np
import pytest

from greens_coulomb import poisson_fd, validate
from greens_coulomb.cavity import cavity_g_general
from greens_coulomb.core import (
    PERFECT_CONDUCTOR,
    DomainError,
    HalfSpace,
    Point3,
    SourceOnInterfaceError,
    ThreeLayerCavity,
    UnsupportedGeometryError,
)
from greens_coulomb.poisson_fd import GridSpec, aligned_grid, solve_scattering_g1

H = 1.0
HS = HalfSpace(1.0, 4.0)
HS_G1_EXACT = -(1.0 / (4 * math.pi)) * (3.0 / 5.0) / (2.0 * H)


def small_grid(n=64):
    return aligned_grid(n, H, (0.0,), 20 * H, 40 * H)


def hs_solution(n=64):
    """HS with the source at height H on small_grid(n): validate's cached solve,
    which its oracle suite reads too."""
    return validate._half_space_fd(n)


class TestGridSpec:
    def test_minimum_size(self):
        with pytest.raises(DomainError):
            GridSpec(16, 64, 1.0, -1.0, 1.0)

    def test_margin_enforced(self):
        grid = GridSpec(64, 64, 10.0, -1.0, 1.05)
        with pytest.raises(DomainError):
            solve_scattering_g1(HS, Point3(0, 0, 1.0), grid)


class TestHalfSpaceOracle:
    def test_uniform_eps_gives_zero(self):
        sol = solve_scattering_g1(HalfSpace(2.0, 2.0), Point3(0, 0, H), small_grid())
        assert np.max(np.abs(sol.g1)) == 0.0

    def test_matches_image_value_at_source(self):
        sol = hs_solution(256)
        assert abs(sol.source_g1() - HS_G1_EXACT) / abs(HS_G1_EXACT) < 0.02

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128, 256):
            sol = hs_solution(n)
            errs.append(abs(sol.source_g1() - HS_G1_EXACT))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_eps_scaling_inverse(self):
        sol1 = hs_solution()
        sol3 = solve_scattering_g1(HalfSpace(3.0, 12.0), Point3(0, 0, H),
                                   small_grid())
        err = np.max(np.abs(3.0 * sol3.g1 - sol1.g1)) / np.max(np.abs(sol1.g1))
        assert err < 1e-10

    def test_gauss_law_flux(self):
        sol = hs_solution(128)
        assert abs(sol.gauss_flux(24) - 1.0) < 0.01

    def test_off_axis_source_translates(self):
        sol0 = hs_solution()
        sol1 = solve_scattering_g1(HS, Point3(0.7, -0.3, H), small_grid())
        p = Point3(1.0, 0.5, 2.0)
        shifted = Point3(p.x + 0.7, p.y - 0.3, p.z)
        assert math.isclose(sol0.g1_at(p), sol1.g1_at(shifted), rel_tol=1e-12)

    def test_source_on_interface_rejected(self):
        with pytest.raises(SourceOnInterfaceError):
            solve_scattering_g1(HS, Point3(0, 0, 1e-3), small_grid())

    def test_conductor_rejected(self):
        with pytest.raises(UnsupportedGeometryError):
            solve_scattering_g1(HalfSpace(1.0, PERFECT_CONDUCTOR),
                                Point3(0, 0, H), small_grid())


class TestCavityOracle:
    def test_matches_quadrature_midpoint(self):
        d = 1.0
        sol = validate._cavity_fd(8.0, 8.0, 0.0)  # ThreeLayerCavity(8, 1, 8, d)
        got = sol.g_total_at(Point3(d, 0, 0))
        ref = cavity_g_general(ThreeLayerCavity(8.0, 1.0, 8.0, d), 0.0, 0.0, d).value
        assert abs(got - ref) / ref < 0.02

    def test_matches_quadrature_general_heights(self):
        d = 1.0
        sol = validate._cavity_fd(4.0, 8.0, 0.2 * d)  # ThreeLayerCavity(4, 1, 8, d)
        got = sol.g_total_at(Point3(0.5 * d, 0, 0.2 * d))
        ref = cavity_g_general(ThreeLayerCavity(4.0, 1.0, 8.0, d), 0.2 * d, 0.2 * d,
                               0.5 * d).value
        assert abs(got - ref) / ref < 0.02


def assembled(monkeypatch, geom, src, grid):
    """The (matrix, right side) pair that solve_scattering_g1 hands to spsolve."""
    captured = []
    spsolve = poisson_fd.spla.spsolve

    def spy(M, rhs):
        captured.append((M, rhs))
        return spsolve(M, rhs)
    monkeypatch.setattr(poisson_fd.spla, "spsolve", spy)
    poisson_fd.solve_scattering_g1(geom, src, grid)
    (M, rhs), = captured
    return M.tocsr(), rhs


class TestOperator:
    @pytest.mark.parametrize("geom,src,grid", [
        (HS, Point3(0, 0, H), small_grid()),
        (ThreeLayerCavity(4.0, 1.0, 8.0, 1.0), Point3(0, 0, 0.2),
         aligned_grid(64, 0.2, (-0.5, 0.5), 3.0, 8.0)),
    ], ids=["half_space", "gap"])
    def test_symmetric_five_point_conservative(self, monkeypatch, geom, src, grid):
        M, _ = assembled(monkeypatch, geom, src, grid)
        n_rho, n_z = grid.n_rho, grid.n_z
        assert (M != M.T).nnz == 0
        assert np.diff(M.indptr).max() <= 5
        # every entry couples a cell to itself or to a grid neighbour, so none
        # joins the top of one column, (i, n_z - 1), to the bottom of the next
        coo = M.tocoo()
        ri, rj = np.divmod(coo.row, n_z)
        ci, cj = np.divmod(coo.col, n_z)
        assert np.all(np.abs(ri - ci) + np.abs(rj - cj) <= 1)
        tops = np.arange(n_rho - 1) * n_z + n_z - 1
        assert not np.any(M[tops, tops + 1])
        # interior rows conserve flux; the 1/s outer faces add to the diagonal
        row_sum = np.asarray(M.sum(axis=1)).reshape(n_rho, n_z)
        diag = M.diagonal().reshape(n_rho, n_z)
        outer = np.zeros((n_rho, n_z), dtype=bool)
        outer[-1, :] = outer[:, 0] = outer[:, -1] = True
        assert np.all(np.abs(row_sum[~outer]) <= 1e-14 * diag[~outer])
        assert np.all(row_sum[outer] > 0.0)


def test_shares_no_code_with_the_routes_it_checks():
    # the oracle's imports: the standard library, numpy, scipy's sparse
    # solver and interpolator, and the package's core types
    allowed = {"__future__", "math", "dataclasses", "typing", "numpy", "scipy.sparse",
               "scipy.sparse.linalg", "scipy.interpolate", ".core"}
    tree = ast.parse(Path(poisson_fd.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= allowed

