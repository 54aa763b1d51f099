"""Semi-infinite oscillatory integrals: Hankel (J0 and J1) and sine transforms.

The integration interval is partitioned at successive zeros of the
oscillating factor. Panels are integrated in blocks of four by adaptive
16-point Gauss-Legendre bisection: one integrand call evaluates the coarse
rule and both halves of every panel in the block, and each further call
evaluates one whole bisection level of the subintervals that failed. The
alternating sequence of partial sums is extrapolated to its limit by
repeated averaging (Euler transformation) up to 12 levels, and
convergence is checked after every block from panel 8 on; partial sums
that do not alternate take a geometric tail estimate from the last two
panels instead. The rho = 0 case runs the same driver, blocks and stop rules
on geometrically growing panels [0, kc], [kc, 2 kc], [2 kc, 4 kc], ... of a
decaying integrand. The returned abs_err bounds the extrapolation residual
plus the accumulated panel errors, plus the roundoff of the rule sums,
16 eps sum |w f| over the accepted subintervals; the convergence test
uses the first two terms only.

Integrand callables receive a 1-D numpy array of wavenumbers and must
return the array of integrand values (the oscillating factor included,
so the same machinery serves both transforms and the non-oscillatory
rho = 0 case).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0, j1, jn_zeros

from .core import (
    DEFAULT_QUADRATURE,
    MIN_REL_TOL,
    ConvergenceError,
    DomainError,
    GreensValue,
    QuadratureSpec,
)

_GL_X, _GL_W = leggauss(16)

_PANEL_BLOCK = 4  # panels per first kernel call; the convergence check runs every 4
_MAX_DEPTH = 26  # bisection depth at which a subinterval is accepted regardless
# Subintervals refined per kernel call. A level with more is split into
# chunks finished depth first, so memory stays bounded when the number of
# failing subintervals keeps doubling (an integrand at its roundoff floor).
_MAX_CALL_CELLS = 4096
# Roundoff of a rule sum, relative to its integral of |f|, added to abs_err.
_ROUNDOFF = 16.0 * np.finfo(float).eps
_ACCEL_ORDER = 12  # averaging levels of the Euler extrapolation

_BESSEL = {0: j0, 1: j1}
_BESSEL_ZEROS = {order: jn_zeros(order, 256) for order in _BESSEL}


def _bessel_zero(order: int, n: int) -> float:
    """n-th positive zero of J_order (1-based), growing the table as needed."""
    zeros = _BESSEL_ZEROS[order]
    if n > zeros.size:
        zeros = _BESSEL_ZEROS[order] = jn_zeros(order, max(n, 2 * zeros.size))
    return zeros[n - 1]


def _gl(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
        hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre rule on every interval [lo[i], hi[i]], one call of f.

    Returns the integrals of f and of |f| by that rule; the second sets the
    roundoff scale of the first.
    """
    h = 0.5 * (hi - lo)
    k = (0.5 * (lo + hi))[:, np.newaxis] + h[:, np.newaxis] * _GL_X
    vals = np.asarray(f(k.ravel()), dtype=float).reshape(k.shape)
    q_abs = (np.abs(vals) @ _GL_W) * h
    if not math.isfinite(q_abs.sum()):
        bad = int(np.argmin(np.isfinite(q_abs)))
        raise ConvergenceError(
            f"integrand not finite on [{lo[bad]:.6e}, {hi[bad]:.6e}]")
    return (vals @ _GL_W) * h, q_abs


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


def euler_limit(partial_sums: np.ndarray, depth: int) -> Tuple[float, float]:
    """Limit of an (eventually) alternating sequence of partial sums.

    Repeated pairwise averaging; returns the most stable row's last entry and
    a two-sided difference as the error estimate.
    """
    t = np.asarray(partial_sums, dtype=float)
    if t.size == 1:
        return float(t[-1]), abs(float(t[-1]))
    best = float(t[-1])
    best_err = abs(t[-1] - t[-2])
    prev_last = float(t[-1])
    for _ in range(depth):
        if t.size < 2:
            break
        t = 0.5 * (t[:-1] + t[1:])
        last = float(t[-1])
        move = abs(last - prev_last)
        row = abs(last - float(t[-2])) if t.size >= 2 else move
        err = move + row
        if err <= best_err:
            best_err = err
            best = last
        prev_last = last
    return best, best_err


def _alternating_start(p: np.ndarray, tiny: float) -> int:
    """Index from which the panel signs strictly alternate up to the last panel,
    p.size if the last two do not; a panel of size <= tiny breaks the run."""
    big = ~(np.abs(p) <= tiny)  # the scalar scan's test, so NaN compares alike
    # alternates[j]: panels j and j + 1 are both above tiny and of opposite sign
    alternates = big[1:] & big[:-1] & (p[1:] * p[:-1] < 0.0)
    if not (alternates.size and alternates[-1]):
        return p.size
    broken = np.flatnonzero(~alternates)
    return int(broken[-1]) + 1 if broken.size else 0


def _estimate_limit(panels) -> Tuple[float, float]:
    """Value and tail-error estimate from the panel integrals seen so far."""
    p = np.asarray(panels, dtype=float)
    s = np.cumsum(p)
    scale = float(np.max(np.abs(p))) if p.size else 0.0
    if scale == 0.0:
        return 0.0, 0.0

    tiny = 1e-16 * scale
    start = _alternating_start(p, tiny)
    n_alt = p.size - start

    if n_alt >= 6:
        window = s[start:]
        if window.size > 80:
            window = window[-80:]
        return euler_limit(window, min(_ACCEL_ORDER, window.size - 1))

    # Non-alternating: direct sum with a geometric tail estimate.
    value = float(s[-1])
    a2 = abs(p[-1])
    a1 = abs(p[-2]) if p.size >= 2 else a2
    if a2 <= tiny:
        return value, 0.0
    if a1 > 0.0 and a2 < a1:
        ratio = a2 / a1
        return value, a2 * ratio / (1.0 - ratio)
    return value, math.inf


def _ladder_edges(first_cut: float, k_scale: Optional[float]) -> list:
    """Geometric pre-panels resolving integrand decay faster than the oscillation."""
    edges = [0.0]
    if k_scale is not None and k_scale > 0.0 and k_scale < 0.25 * first_cut:
        e = 0.25 * k_scale
        while e < 0.5 * first_cut:
            edges.append(e)
            e *= 2.0
    edges.append(first_cut)
    return edges


def _integrate_panels(f, edges_iter: Iterator[Tuple[float, float]],
                      spec: QuadratureSpec, context: str) -> Tuple[float, float]:
    panels = []
    panel_errs = 0.0
    mass = 0.0
    scale = 0.0
    last = (0.0, math.inf)
    count = 0
    while count < spec.max_panels:
        block = np.array(list(itertools.islice(
            edges_iter, min(_PANEL_BLOCK, spec.max_panels - count))))
        vals, errs, block_mass = _panels_adaptive(f, block[:, 0], block[:, 1], scale, spec)
        panels.extend(vals.tolist())
        panel_errs += float(np.sum(errs))
        mass += block_mass
        scale = max(scale, float(np.max(np.abs(vals))))
        count += vals.size
        if count >= 8 and count % 4 == 0:
            value, tail = _estimate_limit(panels)
            total_err = tail + panel_errs
            last = (value, total_err)
            if total_err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                return value, total_err + _ROUNDOFF * mass
            if scale == 0.0:
                return 0.0, panel_errs + _ROUNDOFF * mass
            # panel_errs never decreases, so once it is well past any tolerance
            # the value could still reach, no further panel can meet it
            reachable = max(spec.abs_tol, spec.rel_tol * (abs(value) + tail))
            if panel_errs > 2.0 * reachable:
                raise ConvergenceError(
                    f"{context}: the accumulated panel error {panel_errs:.3e} alone "
                    f"exceeds the tolerance {reachable:.3e} after {count} panels "
                    f"(best value {value:.6e}, estimated error {total_err:.3e})")
    raise ConvergenceError(
        f"{context}: tolerance not reached after {count} panels "
        f"(best value {last[0]:.6e}, estimated error {last[1]:.3e})"
    )


def _oscillatory_edges(cuts_fn, k_scale):
    edges = _ladder_edges(cuts_fn(1), k_scale)
    for a, b in zip(edges[:-1], edges[1:]):
        yield a, b
    prev = edges[-1]
    n = 2
    while True:
        cur = cuts_fn(n)
        yield prev, cur
        prev = cur
        n += 1


def _halfline_edges(k_scale):
    """Panels [0, kc], [kc, 2 kc], [2 kc, 4 kc], ... with kc = k_scale, or 1."""
    a, b = 0.0, (k_scale if (k_scale is not None and k_scale > 0.0) else 1.0)
    while True:
        yield a, b
        a, b = b, 2.0 * b


def hankel_integral(f: Callable[[np.ndarray], np.ndarray], rho: float,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE,
                    k_scale: Optional[float] = None, order: int = 0) -> GreensValue:
    """integral_0^inf f(k) J_order(k rho) dk with an abs_err estimate, order 0 or 1.

    `k_scale` hints at the decay scale of f (panels below the first Bessel
    zero are pre-split around it). At rho = 0 the order-1 integral is 0, and
    the order-0 one runs the same panel driver on geometrically growing
    panels [0, kc], [kc, 2 kc], ..., kc = k_scale or 1, instead of the zeros.
    """
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho!r}")
    if order not in _BESSEL:
        raise DomainError(f"order must be 0 or 1, got {order!r}")
    bessel = _BESSEL[order]
    if rho == 0.0:
        if order == 1:
            return GreensValue(0.0)
        return GreensValue(*_integrate_panels(f, _halfline_edges(k_scale), spec,
                                              "half-line integral"))

    def integrand(k: np.ndarray) -> np.ndarray:
        return np.asarray(f(k), dtype=float) * bessel(k * rho)

    edges = _oscillatory_edges(lambda n: _bessel_zero(order, n) / rho, k_scale)
    value, err = _integrate_panels(integrand, edges, spec, "hankel_integral")
    return GreensValue(value, err)


def sine_integral(f: Callable[[np.ndarray], np.ndarray], r: float,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE,
                  k_scale: Optional[float] = None) -> GreensValue:
    """integral_0^inf f(k) sin(k r) dk with an abs_err estimate."""
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r!r}")

    def integrand(k: np.ndarray) -> np.ndarray:
        return np.asarray(f(k), dtype=float) * np.sin(k * r)

    edges = _oscillatory_edges(lambda n: n * math.pi / r, k_scale)
    value, err = _integrate_panels(integrand, edges, spec, "sine_integral")
    return GreensValue(value, err)
