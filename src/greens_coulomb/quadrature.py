"""Semi-infinite oscillatory integrals: Hankel transforms of order 0 and 1.

The integration interval is partitioned at successive zeros of the
oscillating factor. Panels are integrated in blocks of four by adaptive
16-point Gauss-Legendre bisection: one integrand call evaluates the coarse
rule and both halves of every panel in the block, and each further call
evaluates one whole bisection level of the subintervals that failed. The
alternating sequence of partial sums is extrapolated to its limit by
repeated averaging (Euler transformation) up to 12 levels, and
convergence is checked after every block from panel 8 on; partial sums
that do not alternate take a geometric tail estimate from the last panel
ratio instead, or from the next one where the last two ratios grow. The
rho = 0 case runs the same driver, blocks and stop rules on geometrically
growing panels [0, kc], [kc, 2 kc], [2 kc, 4 kc], ... of a decaying
integrand. The returned abs_err bounds the extrapolation residual
plus the accumulated panel errors, plus the roundoff of the rule sums,
16 eps sum |w f| over the accepted subintervals, and the convergence test
counts all three. An integral that has not converged after _MAX_PANELS
panels, or whose panel errors and roundoff alone pass any tolerance it
could still reach, is a ConvergenceError.

Integrand callables receive a 1-D numpy array of wavenumbers and must
return the array of integrand values (the oscillating factor included,
so the same machinery serves both orders, the non-oscillatory rho = 0
case, and `validate`'s sine transform).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    DEFAULT_QUADRATURE,
    MIN_REL_TOL,
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    ValueWithError,
)

_GL_X, _GL_W = leggauss(16)

_PANEL_BLOCK = 4  # panels per first kernel call; the convergence check runs every 4
_MAX_PANELS = 400  # panels per integral before the driver reports non-convergence
_MAX_DEPTH = 26  # bisection depth at which a subinterval is accepted regardless
# Subintervals refined per kernel call. A level with more is split into
# chunks finished depth first, so memory stays bounded when the number of
# failing subintervals keeps doubling (an integrand at its roundoff floor).
_MAX_CALL_CELLS = 4096
# Roundoff of a rule sum, relative to its integral of |f|, added to abs_err.
_ROUNDOFF = 16.0 * np.finfo(float).eps
_ACCEL_ORDER = 12  # averaging levels of the Euler extrapolation

# J0 and J1, and a table of the positive zeros of each, 256 at first; filled
# by _load_bessel on first use, so that importing the package loads no scipy
_BESSEL = {}
_BESSEL_ZEROS = {}


def _load_bessel() -> None:
    from scipy.special import j0, j1, jn_zeros
    _BESSEL_ZEROS.update({order: jn_zeros(order, 256) for order in (0, 1)})
    _BESSEL.update({0: j0, 1: j1})


def _bessel_zero(order: int, n: int) -> float:
    """n-th positive zero of J_order (1-based), growing the table as needed."""
    if not _BESSEL:
        _load_bessel()
    zeros = _BESSEL_ZEROS[order]
    if n > zeros.size:
        from scipy.special import jn_zeros
        zeros = _BESSEL_ZEROS[order] = jn_zeros(order, max(n, 2 * zeros.size))
    return zeros[n - 1]


def _gl(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
        hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre rule on every interval [lo[i], hi[i]], one call of f.

    Returns the integrals of f and of |f| by that rule; the second sets the
    roundoff scale of the first. Where their total is not finite, a
    ConvergenceError names its cause: the first interval with an integrand
    value that is not finite, or else the first whose rule sum overflows,
    or else the span of the intervals, whose finite sums overflow in total.
    """
    h = 0.5 * (hi - lo)
    k = (0.5 * (lo + hi))[:, np.newaxis] + h[:, np.newaxis] * _GL_X
    vals = np.asarray(f(k.ravel()), dtype=float).reshape(k.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        q_abs = (np.abs(vals) @ _GL_W) * h
        q = (vals @ _GL_W) * h
        total = q_abs.sum()
    if not math.isfinite(total):
        finite_vals = np.isfinite(vals).all(axis=1)
        if not finite_vals.all():
            bad = int(np.argmin(finite_vals))
            raise ConvergenceError(f"integrand not finite on [{lo[bad]:.6e}, {hi[bad]:.6e}]")
        if not np.isfinite(q_abs).all():
            bad = int(np.argmin(np.isfinite(q_abs)))
            raise ConvergenceError(
                f"the Gauss-Legendre sum overflows float64 on [{lo[bad]:.6e}, {hi[bad]:.6e}], "
                f"though every integrand value there is finite")
        raise ConvergenceError(
            f"the Gauss-Legendre sums of {lo.size} intervals on [{lo.min():.6e}, "
            f"{hi.max():.6e}] are each finite, but their total overflows float64")
    return q, q_abs


def _panels_adaptive(f, lo: np.ndarray, hi: np.ndarray, scale: float,
                     spec: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray, float]:
    """Integrate the panels [lo[i], hi[i]] by bisection, one call of f per level.

    The first call evaluates the coarse rule and both halves of every panel;
    each later call evaluates the halves of every child of the subintervals
    that failed (a level of more than _MAX_CALL_CELLS children goes in
    chunks of that size, each refined to the end before the next). A
    subinterval is accepted when |fine - coarse| is at most its tolerance or
    MIN_REL_TOL (|fine| + |coarse|), or at depth 26; its children get half its
    tolerance. Panel i starts at 0.02 max(abs_tol, rel_tol s_i), where s_i is
    the larger of `scale` and the first-level estimates |left + right| of
    panels 0..i-1; where that tolerance is 0 (abs_tol = 0 and s_i = 0), s_i
    is panel i's own first-level estimate.

    Returns the panel integrals, the summed halving corrections |fine - coarse|
    of each panel, and the sum of |w f| over all accepted subintervals.
    """
    n = lo.size
    mid = 0.5 * (lo + hi)
    q, q_abs = _gl(f, np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)))
    coarse, left, right = q[:n], q[n:2 * n], q[2 * n:]
    fine_abs = q_abs[n:2 * n] + q_abs[2 * n:]
    running = np.maximum.accumulate(np.concatenate(([scale], np.abs(left + right)[:-1])))
    tol = 0.02 * np.maximum(spec.abs_tol, spec.rel_tol * running)
    if not tol[0] > 0.0:  # abs_tol = 0 and nothing seen yet: panels scale by themselves
        tol = np.where(tol > 0.0, tol, 0.02 * spec.rel_tol * np.abs(left + right))
    owner = np.arange(n)
    depth = 0
    values = np.zeros(n)
    errs = np.zeros(n)
    mass = 0.0
    pending = []
    while True:
        fine = left + right
        diff = np.abs(fine - coarse)
        done = diff <= np.maximum(tol, MIN_REL_TOL * (np.abs(fine) + np.abs(coarse)))
        if depth >= _MAX_DEPTH:
            done[:] = True
        values += np.bincount(owner, fine * done, n)
        errs += np.bincount(owner, diff * done, n)
        mass += float(fine_abs @ done)
        if not done.all():
            # children (lo, mid) and (mid, hi), whose coarse rules are left and right
            split = ~done
            lo, hi = (np.concatenate((lo[split], mid[split])),
                      np.concatenate((mid[split], hi[split])))
            coarse = np.concatenate((left[split], right[split]))
            tol = np.tile(0.5 * tol[split], 2)
            owner = np.tile(owner[split], 2)
            for s in reversed(range(0, lo.size, _MAX_CALL_CELLS)):
                part = slice(s, s + _MAX_CALL_CELLS)
                pending.append((lo[part], hi[part], coarse[part], tol[part], owner[part],
                                depth + 1))
        if not pending:
            return values, errs, mass
        lo, hi, coarse, tol, owner, depth = pending.pop()
        m = lo.size
        mid = 0.5 * (lo + hi)
        q, q_abs = _gl(f, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = q[:m], q[m:]
        fine_abs = q_abs[:m] + q_abs[m:]


def euler_limit(partial_sums, depth: int) -> Tuple[float, float]:
    """Limit of an (eventually) alternating sequence of partial sums.

    Repeated pairwise averaging, in Python floats; returns the most stable
    row's last entry and a two-sided difference as the error estimate.
    """
    t = list(map(float, partial_sums))
    if len(t) == 1:
        return t[-1], abs(t[-1])
    best, best_err = t[-1], abs(t[-1] - t[-2])
    for _ in range(min(depth, len(t) - 1)):
        prev_last = t[-1]
        t = [0.5 * (a + b) for a, b in zip(t, t[1:])]
        move = abs(t[-1] - prev_last)
        err = move + (abs(t[-1] - t[-2]) if len(t) >= 2 else move)
        if err <= best_err:
            best, best_err = t[-1], err
    return best, best_err


def _alternating_start(p, tiny: float) -> int:
    """Index from which the panel signs strictly alternate up to the last panel,
    len(p) if the last two do not; a panel of size <= tiny breaks the run."""
    start = len(p)
    for i in range(len(p) - 1, 0, -1):
        if abs(p[i]) <= tiny or abs(p[i - 1]) <= tiny or not p[i] * p[i - 1] < 0.0:
            break
        start = i - 1
    return start


def _estimate_limit(panels) -> Tuple[float, float]:
    """Value and tail-error estimate from the panel integrals seen so far, in
    Python floats: 8 to 40 panels, too few to repay numpy's per-call cost."""
    p = list(map(float, panels))
    scale = max(map(abs, p), default=0.0)
    if scale == 0.0:
        return 0.0, 0.0

    s = list(itertools.accumulate(p))
    tiny = 1e-16 * scale
    start = _alternating_start(p, tiny)

    if len(p) - start >= 6:
        window = s[start:][-80:]
        return euler_limit(window, min(_ACCEL_ORDER, len(window) - 1))

    # Non-alternating: direct sum with a geometric tail estimate, at the
    # ratio of the last two panels, or where that ratio grew over the one
    # before, at the next ratio the growth gives.
    value = s[-1]
    a = [abs(x) for x in p[-3:]]
    if a[-1] <= tiny:
        return value, 0.0
    if len(a) < 2 or not (0.0 < a[-1] < a[-2]):
        return value, math.inf
    ratio = a[-1] / a[-2]
    if len(a) == 3 and a[-1] * a[0] > a[-2] * a[-2]:
        ratio *= ratio * a[0] / a[-2]
    return value, (a[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf)


def _decay_scale(k_scale: Optional[float]) -> float:
    """kc, the decay scale the panels start from: k_scale if it is > 0, else 1."""
    return k_scale if (k_scale is not None and k_scale > 0.0) else 1.0


def _ladder_edges(first_cut: float, k_scale: Optional[float]) -> Iterator[float]:
    """Geometric pre-panels resolving integrand decay faster than the oscillation."""
    yield 0.0
    kc = _decay_scale(k_scale)
    if kc < 0.25 * first_cut:
        e = 0.25 * kc
        while e < 0.5 * first_cut:
            yield e
            e *= 2.0
    yield first_cut


def _integrate_panels(f, edges_iter: Iterator[Tuple[float, float]], spec: QuadratureSpec,
                      context: str, subtracted: float = 0.0) -> Tuple[float, float]:
    panels = []
    panel_errs = 0.0
    mass = 0.0
    scale = 0.0
    last = (0.0, math.inf)
    count = 0
    while count < _MAX_PANELS:
        block = np.array(list(itertools.islice(
            edges_iter, min(_PANEL_BLOCK, _MAX_PANELS - count))))
        if not block.size:  # no panel left below the largest float
            break
        vals, errs, block_mass = _panels_adaptive(f, block[:, 0], block[:, 1], scale, spec)
        panels.extend(vals.tolist())
        panel_errs += float(np.sum(errs))
        mass += block_mass
        scale = max(scale, float(np.max(np.abs(vals))))
        count += vals.size
        if count >= 8 and count % 4 == 0:
            value, tail = _estimate_limit(panels)
            roundoff = _ROUNDOFF * mass
            total_err = tail + panel_errs + roundoff
            last = (value, total_err)
            if total_err <= max(spec.abs_tol, spec.rel_tol * abs(value + subtracted)):
                return value, total_err
            if scale == 0.0:
                return 0.0, panel_errs + roundoff
            # panel_errs and the roundoff never decrease, so once they are well
            # past any tolerance the value could still reach, or the roundoff,
            # a bound rather than an estimate, is past it, no panel can meet it
            reachable = max(spec.abs_tol, spec.rel_tol * (abs(value + subtracted) + tail))
            if panel_errs + roundoff > 2.0 * reachable or roundoff > reachable:
                raise ConvergenceError(
                    f"{context}: the accumulated panel error {panel_errs:.3e} plus the "
                    f"roundoff {roundoff:.3e} alone exceeds the tolerance {reachable:.3e} "
                    f"after {count} panels (best value {value:.6e}, estimated error "
                    f"{total_err:.3e})")
    raise ConvergenceError(
        f"{context}: tolerance not reached after {count} panels "
        f"(best value {last[0]:.6e}, estimated error {last[1]:.3e})"
    )


# The edge generators stop before a panel whose midpoint 0.5 (a + b)
# overflows, so every rule node is finite; past it the driver has no panels
# left and reports that the tolerance was not reached.

def _oscillatory_edges(cuts_fn, k_scale):
    points = itertools.chain(_ladder_edges(cuts_fn(1), k_scale),
                             map(cuts_fn, itertools.count(2)))
    a = next(points)
    for b in points:
        if not math.isfinite(a + b):
            return
        yield a, b
        a = b


def _halfline_edges(k_scale):
    """Panels [0, kc], [kc, 2 kc], [2 kc, 4 kc], ... with kc = k_scale, or 1."""
    a, b = 0.0, _decay_scale(k_scale)
    while math.isfinite(a + b):
        yield a, b
        a, b = b, 2.0 * b


def hankel_integral(f: Callable[[np.ndarray], np.ndarray], rho: float,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE,
                    k_scale: Optional[float] = None, order: int = 0,
                    subtracted: float = 0.0) -> ValueWithError:
    """integral_0^inf f(k) J_order(k rho) dk with an abs_err estimate, order 0 or 1.

    `k_scale` hints at the decay scale of f: panels below the first Bessel
    zero are pre-split around kc = k_scale, or 1 without it. At rho = 0 the
    order-1 integral is 0, and the order-0 one runs the same panel driver on
    geometrically growing panels [0, kc], [kc, 2 kc], ..., instead of the zeros.
    `subtracted` is a part of the caller's integral taken out of f in closed
    form: rel_tol then applies to the value plus that part, which is not
    returned.
    """
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    if order not in (0, 1):
        raise DomainError(f"order must be 0 or 1, got {order!r}")
    if rho == 0.0:
        if order == 1:
            return ValueWithError(0.0)
        return ValueWithError(*_integrate_panels(f, _halfline_edges(k_scale), spec,
                                              "half-line integral", subtracted))
    if not _BESSEL:
        _load_bessel()
    bessel = _BESSEL[order]

    def integrand(k: np.ndarray) -> np.ndarray:
        return np.asarray(f(k), dtype=float) * bessel(k * rho)

    edges = _oscillatory_edges(lambda n: float(_bessel_zero(order, n)) / rho, k_scale)
    value, err = _integrate_panels(integrand, edges, spec, "hankel_integral", subtracted)
    return ValueWithError(value, err)

