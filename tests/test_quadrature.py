import math
import warnings

import numpy as np
import pytest
from scipy.special import j0, j1

from greens_coulomb import cavity, quadrature
from greens_coulomb.core import (
    DEFAULT_QUADRATURE,
    PERFECT_CONDUCTOR,
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    ThreeLayerCavity,
)
from greens_coulomb.quadrature import euler_limit, hankel_integral
from greens_coulomb.validate import sine_integral


def test_exponential_kernel_identity():
    # int_0^inf e^{-k a} J0(k rho) dk = 1/sqrt(rho^2 + a^2)
    for a, rho in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.7)):
        got = hankel_integral(lambda k: np.exp(-a * k), rho)
        exact = 1.0 / math.hypot(rho, a)
        assert abs(got.value - exact) <= max(1e-10 * exact, got.abs_err)
        assert abs(got.value - exact) / exact < 1e-10


def test_closure_identity():
    got = hankel_integral(lambda k: np.ones_like(k), 2.0)
    assert abs(got.value - 0.5) < 1e-10


def test_geometric_series_integrand():
    # sum of exponential images, summable independently term by term
    d = 1.0
    got = hankel_integral(
        lambda k: np.exp(-2 * k * d) / (1 - 0.25 * np.exp(-2 * k * d)),
        1.0, k_scale=0.5)
    n = np.arange(1, 300)
    oracle = float(np.sum(0.25 ** (n - 1) / np.sqrt(4.0 * n * n * d * d + 1.0)))
    assert abs(got.value - oracle) < 1e-10


def test_fast_decay_inside_first_lobe():
    got = hankel_integral(lambda k: np.exp(-100.0 * k), 1.0)
    exact = 1.0 / math.sqrt(1.0 + 100.0 ** 2)
    assert abs(got.value - exact) / exact < 1e-10


def test_rho_zero_halfline():
    got = hankel_integral(lambda k: np.exp(-k), 0.0, k_scale=1.0)
    assert abs(got.value - 1.0) < 1e-12


@pytest.mark.parametrize("rho", [1e-300, 1e-308])
def test_tiny_rho_without_k_scale(rho):
    # the first Bessel cut lies far beyond the decay of exp(-k) (at 1e-308 it
    # is inf), so the panels must start from the default decay scale 1
    got = hankel_integral(lambda k: np.exp(-k), rho)
    assert abs(got.value - 1.0) < 1e-12
    assert abs(got.value - 1.0) <= got.abs_err


@pytest.mark.parametrize("a,rho", [(1.0, 1.0), (0.3, 2.0), (5.0, 0.7), (0.05, 10.0)])
def test_order_one_exponential_identities(a, rho):
    # int e^{-ak} J1(k rho) dk = (1 - a/r)/rho and int k e^{-ak} J1(k rho) dk = rho/r^3
    r = math.hypot(a, rho)
    for f, exact in ((lambda k: np.exp(-a * k), (1.0 - a / r) / rho),
                     (lambda k: k * np.exp(-a * k), rho / r ** 3)):
        got = hankel_integral(f, rho, order=1)
        assert abs(got.value - exact) <= max(1e-10 * exact, got.abs_err)
        assert abs(got.value - exact) / exact < 1e-10


def test_order_one_cuts_at_j1_zeros():
    n = np.arange(1, 600)
    zeros = np.array([quadrature._bessel_zero(1, int(i)) for i in n])
    assert np.all(np.diff(zeros) > 0.0) and zeros.size > quadrature._BESSEL_ZEROS[0].size
    assert np.max(np.abs(j1(zeros))) < 1e-12
    assert hankel_integral(lambda k: np.exp(-k), 0.0, order=1).value == 0.0


def test_rho_negative_rejected():
    with pytest.raises(DomainError):
        hankel_integral(lambda k: np.exp(-k), -1.0)
    with pytest.raises(DomainError):
        hankel_integral(lambda k: np.exp(-k), 1.0, order=2)


def test_sine_dirichlet_identity():
    for r in (0.5, 1.0, 3.0):
        got = sine_integral(lambda k: 1.0 / np.maximum(k, 1e-300), r)
        assert abs(got.value - math.pi / 2) < 1e-10


def test_reported_error_bounds_true_error():
    for rho in (0.5, 1.0, 4.0):
        got = hankel_integral(lambda k: np.exp(-k), rho)
        exact = 1.0 / math.hypot(rho, 1.0)
        assert abs(got.value - exact) <= 10.0 * got.abs_err + 1e-14


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-14, 3e-15, 1e-15])
@pytest.mark.parametrize("rho", [0.0, 0.5, 4.0])
def test_returned_abs_err_meets_the_tolerance(rel_tol, rho):
    # the stop test counts the roundoff that abs_err reports, so a result
    # comes back within its tolerance, or at the first check as an error that
    # names the roundoff (about 3.6e-15 of the value here)
    spec = QuadratureSpec(rel_tol=rel_tol)
    try:
        got = hankel_integral(lambda k: np.exp(-k), rho, spec, k_scale=1.0)
    except ConvergenceError as exc:
        assert rel_tol < 1e-14 and "roundoff" in str(exc) and "after 8 panels" in str(exc)
    else:
        assert got.abs_err <= rel_tol * abs(got.value)


def test_nonconvergent_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(ConvergenceError):
        hankel_integral(lambda k: np.ones_like(k) / (1.0 + k), 0.3, QuadratureSpec(rel_tol=1e-10))


def test_halfline_unreachable_tolerance_stops_early():
    # bisection leaves a jump at k = 1.3 about 5e-11 of panel error, far above
    # a 1e-12 target: the rho = 0 case stops at panel 8, as the transforms do
    f = lambda k: np.where(k < 1.3, 1.0, 0.5) * np.exp(-k)  # noqa: E731
    with pytest.raises(ConvergenceError, match=r"^half-line integral: the accumulated "
                       r"panel error .* after 8 panels \(best value 8\.6\d*e-01, "
                       r"estimated error"):
        hankel_integral(f, 0.0, QuadratureSpec(rel_tol=1e-12), k_scale=1.0)


def test_halfline_edges_end_before_overflow(monkeypatch):
    # 1/(1 + k) never decays: the doubling panels reach [2^1022, 2^1023], and
    # the next edge would be inf, so the driver runs out of panels at 1024
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 1100)
    with pytest.raises(ConvergenceError, match=r"^half-line integral: tolerance not "
                       r"reached after 1024 panels"):
        hankel_integral(lambda k: 1.0 / (1.0 + k), 0.0)


def test_euler_limit_alternating():
    # partial sums of sum (-1)^(n+1)/n -> ln 2
    n = np.arange(1, 25, dtype=float)
    s = np.cumsum((-1.0) ** (n + 1) / n)
    val, err = euler_limit(s, 12)
    assert abs(val - math.log(2.0)) < 1e-10
    assert err < 1e-8



def _ref_alternating_start(p, tiny):
    """The scalar loop that `_alternating_start` replaced."""
    start = p.size
    for i in range(p.size - 1, 0, -1):
        if abs(p[i]) <= tiny or abs(p[i - 1]) <= tiny:
            break
        if p[i] * p[i - 1] < 0.0:
            start = i - 1
        else:
            break
    return start


def test_alternating_start_matches_loop():
    rng = np.random.default_rng(7)
    cases = [np.array([]), np.array([1.0]), np.array([1.0, -1.0]), np.array([0.0, 0.0]),
             np.array([1e-300, -1e-300, 1e-300]), np.array([np.nan, 1.0, -1.0])]
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        mag = 10.0 ** rng.uniform(-20, 3, n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if rng.random() < 0.5:  # a long alternating run with a random prefix
            sign[n // 3:] = np.where(np.arange(n - n // 3) % 2, -1.0, 1.0)
        p = sign * mag
        p[rng.random(n) < 0.1] = 0.0
        p[rng.random(n) < 0.05] *= 1e-17  # tiny panels
        cases.append(p)
    for p in cases:
        scale = float(np.max(np.abs(p))) if p.size else 0.0
        for tiny in (1e-16 * scale, 0.0):
            assert quadrature._alternating_start(p, tiny) == _ref_alternating_start(p, tiny)


@pytest.mark.parametrize("e", [520, 1000])
def test_huge_integrand_scales_exactly_without_warning(e):
    # neighbouring panels near 2^520 multiply past float64's range in the
    # alternation scan; the overflowed product keeps its sign
    base = hankel_integral(lambda k: np.exp(-k), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hankel_integral(lambda k: 2.0 ** e * np.exp(-k), 1.0)
    assert got.value == 2.0 ** e * base.value
    assert got.abs_err == 2.0 ** e * base.abs_err


def test_tail_estimate_covers_a_growing_panel_ratio():
    # positive panels q^n / n^2: their ratio q (n/(n + 1))^2 grows towards q,
    # so the last ratio alone underestimates what is left
    p = [0.1 ** n / n ** 2 for n in range(1, 40)]
    for n in (4, 8, 12):
        value, tail = quadrature._estimate_limit(p[:n])
        assert math.isclose(value, math.fsum(p[:n]), rel_tol=1e-15)
        rest = math.fsum(p[n:])
        assert rest <= tail <= 1.2 * rest


# ---------------------------------------------------------------------------
# The batched panel integrator against the one-panel loop it replaced. The
# reference applies the same rules (accept test, tolerance halving, depth cap
# 26, convergence check every 4 panels from panel 8, counting the roundoff
# 16 eps sum |w f|) with one 16-node rule per kernel call; only the order of
# the floating-point sums differs.
# ---------------------------------------------------------------------------

def _ref_gl_panel(f, a, b):
    """The rule's integrals of f and of |f| on [a, b]."""
    h = 0.5 * (b - a)
    vals = f(0.5 * (a + b) + h * quadrature._GL_X)
    return h * float(np.dot(vals, quadrature._GL_W)), h * float(np.dot(np.abs(vals),
                                                                        quadrature._GL_W))


def _ref_panel_adaptive(f, a, b, tol, rel_tol, max_depth=26):
    total = 0.0
    err = 0.0
    mass = 0.0
    stack = [(a, b, _ref_gl_panel(f, a, b)[0], tol, 0)]
    while stack:
        a0, b0, coarse, tol0, depth = stack.pop()
        m = 0.5 * (a0 + b0)
        left, left_abs = _ref_gl_panel(f, a0, m)
        right, right_abs = _ref_gl_panel(f, m, b0)
        fine = left + right
        if depth == 0 and tol0 == 0.0:  # a panel with no scale yet scales by itself
            tol0 = 0.02 * rel_tol * abs(fine)
        diff = abs(fine - coarse)
        if diff <= max(tol0, 1e-15 * (abs(fine) + abs(coarse))) or depth >= max_depth:
            total += fine
            err += diff
            mass += left_abs + right_abs
        else:
            stack.append((a0, m, left, 0.5 * tol0, depth + 1))
            stack.append((m, b0, right, 0.5 * tol0, depth + 1))
    return total, err, mass


def _ref_panels(f, edges, spec, subtracted=0.0):
    panels = []
    panel_errs = 0.0
    mass = 0.0
    scale = 0.0
    for count, (a, b) in enumerate(edges, start=1):
        ptol = 0.02 * max(spec.abs_tol, spec.rel_tol * scale)
        val, perr, pmass = _ref_panel_adaptive(f, a, b, ptol, spec.rel_tol)
        panels.append(val)
        panel_errs += perr
        mass += pmass
        scale = max(scale, abs(val))
        if count >= 8 and count % 4 == 0:
            value, tail = quadrature._estimate_limit(panels)
            roundoff = quadrature._ROUNDOFF * mass
            if (tail + panel_errs + roundoff
                    <= max(spec.abs_tol, spec.rel_tol * abs(value + subtracted))):
                return value
            if scale == 0.0:
                return 0.0
        if count >= quadrature._MAX_PANELS:
            raise ConvergenceError("reference: tolerance not reached")


def _reference(transform, f, x, spec, k_scale, subtracted=0.0):
    if transform is sine_integral:
        return _ref_panels(lambda k: f(k) * np.sin(k * x),
                           quadrature._oscillatory_edges(lambda n: n * math.pi / x, k_scale),
                           spec)
    if x == 0.0:
        return _ref_panels(f, quadrature._halfline_edges(k_scale), spec, subtracted)
    return _ref_panels(lambda k: f(k) * j0(k * x),
                       quadrature._oscillatory_edges(
                           lambda n: quadrature._bessel_zero(0, n) / x, k_scale),
                       spec, subtracted)


def _counted(f):
    nodes = [0]

    def g(k):
        nodes[0] += k.size
        return f(k)
    return g, nodes


def _check_against_reference(transform, f, x, spec=DEFAULT_QUADRATURE, k_scale=None,
                             **subtracted):
    g, nodes = _counted(f)
    got = transform(g, x, spec, k_scale=k_scale, **subtracted)
    g_ref, ref_nodes = _counted(f)
    want = _reference(transform, g_ref, x, spec, k_scale, **subtracted)
    assert abs(got.value - want) <= got.abs_err
    assert nodes[0] == ref_nodes[0]
    again = transform(f, x, spec, k_scale=k_scale, **subtracted)
    assert (again.value, again.abs_err) == (got.value, got.abs_err)


def _gap_calls(monkeypatch, run):
    """The (f, rho, spec, k_scale, subtracted) of every order-0 Hankel
    integral `run` makes in cavity."""
    calls = []

    def record(f, rho, spec=DEFAULT_QUADRATURE, k_scale=None, order=0, subtracted=0.0):
        assert order == 0
        calls.append((f, rho, spec, k_scale, subtracted))
        return hankel_integral(f, rho, spec, k_scale, order, subtracted)
    monkeypatch.setattr(cavity, "hankel_integral", record)
    run()
    monkeypatch.undo()
    return calls


PC = PERFECT_CONDUCTOR
WALLS = [(PC, PC), (4.0, 8.0), (4.0, PC)]


@pytest.mark.parametrize("a,rho", [(1.0, 1.0), (0.3, 2.0), (5.0, 0.7)])
def test_batched_matches_reference_exponential(a, rho):
    _check_against_reference(hankel_integral, lambda k: np.exp(-a * k), rho)


@pytest.mark.parametrize("eps1,eps3", WALLS)
def test_batched_matches_reference_gap(monkeypatch, eps1, eps3):
    def run():
        for z, z0 in ((0.0, 0.0), (0.2, -0.1)):
            for rho in np.geomspace(0.01, 20.0, 7):
                cavity.cavity_g_general(ThreeLayerCavity(eps1, 1.0, eps3, 1.0), z, z0, rho)
    calls = _gap_calls(monkeypatch, run)
    assert all(subtracted > 0.0 for *_, subtracted in calls)
    for f, rho, spec, k_scale, subtracted in calls:
        _check_against_reference(hankel_integral, f, rho, spec, k_scale, subtracted=subtracted)


# (1, 19, conductor) has r1 = -0.9, r3 = 1: a self-kernel that changes sign
@pytest.mark.parametrize("eps1,eps2,eps3",
                         [pytest.param(e1, 1.0, e3, id=f"{e1}-{e3}") for e1, e3 in WALLS]
                         + [(1.0, 19.0, PC)])
def test_batched_matches_reference_halfline(monkeypatch, eps1, eps2, eps3):
    def run():
        for z0 in (-0.45, -0.1, 0.0, 0.3):
            cavity.cavity_scattering_g1(ThreeLayerCavity(eps1, eps2, eps3, 1.0), z0)
            cavity.cavity_grad_general(ThreeLayerCavity(eps1, eps2, eps3, 1.0), z0, z0, 0.0)
    calls = _gap_calls(monkeypatch, run)
    assert len(calls) == 8 and all(rho == 0.0 and subtracted == 0.0
                                   for _, rho, _, _, subtracted in calls)
    for f, rho, spec, k_scale, _ in calls:
        _check_against_reference(hankel_integral, f, rho, spec, k_scale)


@pytest.mark.parametrize("eps1,eps3", WALLS + [(1.0, 19.0)])
def test_gap_self_term_kernel_calls(monkeypatch, eps1, eps3):
    # the rho = 0 half-line takes four panels per kernel call and stops at
    # panel 8 once the geometric tail estimate meets the tolerance
    calls = []
    kernel = cavity.kernels.cavity_integrand

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    monkeypatch.setattr(cavity.kernels, "cavity_integrand", counted)
    for z0 in (-0.3, 0.0, 0.15, 0.35):
        calls.clear()
        got = cavity.cavity_scattering_g1(ThreeLayerCavity(eps1, 1.0, eps3, 1.0), z0)
        assert got.abs_err <= 1e-13 * abs(got.value)
        assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("r", [0.5, 3.0])
def test_batched_matches_reference_sine(r):
    # the hydrodynamic screening factor, decaying like 1/k
    _check_against_reference(sine_integral, lambda k: k / (r * (2.0 * k * k + 1.0)), r,
                             k_scale=1.0)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_batched_matches_reference_deep_refinement(rho):
    # a kink at k = 1.3 is bisected to the 1e-15 floor, halving the
    # tolerance level by level
    _check_against_reference(hankel_integral, lambda k: np.exp(-np.abs(k - 1.3)), rho,
                             QuadratureSpec(abs_tol=1e-13), k_scale=1.0)


def test_batched_matches_reference_short_last_block(monkeypatch):
    # _MAX_PANELS = 10: blocks of 4, 4 and 2 panels, then no convergence
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 10)
    spec = QuadratureSpec(rel_tol=1e-10)
    f = lambda k: 1.0 / (1.0 + k)  # noqa: E731
    g, nodes = _counted(f)
    with pytest.raises(ConvergenceError, match="after 10 panels"):
        hankel_integral(g, 0.3, spec)
    g_ref, ref_nodes = _counted(f)
    with pytest.raises(ConvergenceError):
        _reference(hankel_integral, g_ref, 0.3, spec, None)
    assert nodes[0] == ref_nodes[0]
    # a converging case under the same odd budget stops at panel 8 as before
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 11)
    _check_against_reference(hankel_integral, lambda k: np.exp(-k), 1.0, QuadratureSpec())


def test_kernel_call_sizes_stay_bounded():
    # exp(-100 k) J0(k) on its first panel has tolerance 2e-302 and sits at
    # the roundoff floor: millions of nodes, evaluated a bounded chunk at a time
    sizes = []

    def f(k):
        sizes.append(k.size)
        return np.exp(-100.0 * k)
    got = hankel_integral(f, 1.0, QuadratureSpec(abs_tol=1e-300))
    assert abs(got.value - 1.0 / math.hypot(1.0, 100.0)) <= got.abs_err
    assert sum(sizes) > 1e6
    assert max(sizes) <= 2 * quadrature._MAX_CALL_CELLS * quadrature._GL_X.size


@pytest.mark.parametrize("rho,exact", [(1.0, 1.0 / math.hypot(1.0, 100.0)), (0.0, 0.01)])
def test_abs_tol_zero_first_panel_scales_by_itself(rho, exact):
    # with abs_tol = 0 the first panel has no scale but its own estimate;
    # a tolerance of 0 would refine it at the roundoff floor (millions of nodes)
    g, nodes = _counted(lambda k: np.exp(-100.0 * k))
    got = hankel_integral(g, rho)
    assert abs(got.value - exact) <= got.abs_err
    assert nodes[0] <= 1000


def test_non_finite_integrand_raises():
    with pytest.raises(ConvergenceError, match="not finite"):
        hankel_integral(lambda k: np.where(k > 3.0, np.nan, np.exp(-k)), 1.0)
    with pytest.raises(ConvergenceError, match="not finite"):
        hankel_integral(lambda k: np.full_like(k, np.inf), 0.0)
