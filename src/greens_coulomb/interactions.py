"""Physical observables from the Green's function of a geometry.

Every geometry supplies g, g1 and their gradients (`core.Geometry`); the
three entry points here are the only place in the program where charges
and eps0 enter (the energies also for many charges or pairs in one call,
as a sweep evaluates them):

* self-energy U1 = q^2/(2 eps0) g1(r, r), the interaction of one charge
  with the polarization it induces on the surfaces;
* pair energy U = qA qB/eps0 g(rA, rB);
* force F = -grad_A U, from the gradient of g (pair) or of r -> g1(r, r)
  (self).

Forces are therefore exact up to roundoff in closed form and follow `spec`
where the Green's function is a quadrature or an octree sum. Energies are
reported uncorrected; the real-cavity local-field factor 3 eps/(2 eps + 1)
multiplies forces only, and only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

from .core import (
    DEFAULT_QUADRATURE,
    EPSILON_0,
    Charge,
    DomainError,
    Geometry,
    OutOfRegionError,
    QuadratureSpec,
    ValueWithError,
    distance,
    finite_eps,
)

if TYPE_CHECKING:
    import numpy as np

FOUR_PI_EPS0 = 4.0 * math.pi * EPSILON_0


@dataclass(frozen=True)
class InteractionResult:
    """Energy in joules, its numerical abs_err, and ratio_to_free = U / U_free.

    U_free = qA qB / (4 pi eps0 eps |rA - rB|) is the energy of the pair in a
    uniform medium of the permittivity eps that hosts both charges. The ratio
    is defined when host_eps(rA) == host_eps(rB), that value is not None (no
    charge sits in a conductor), the distance is finite and qA qB != 0;
    otherwise, and for self-energies, it is None.
    """

    energy: float
    ratio_to_free: Optional[float]
    abs_err: float = 0.0


@dataclass(frozen=True)
class ForceResult:
    force: np.ndarray  # newtons, shape (3,)
    local_field_factor_applied: float = 1.0


def local_field_factor(eps_host: float) -> float:
    """Real-cavity enhancement 3 eps / (2 eps + 1) for fields acting on a charge.

    Derived for a small vacuum cavity around the charge; treated here as
    exact for all eps >= 1 (no validity radius is imposed). Water's eps of
    about 80 gives roughly 1.49.
    """
    e = finite_eps(eps_host, "eps_host")
    return 3.0 * e / (2.0 * e + 1.0)


def self_energy(geom: Geometry, a: Charge,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InteractionResult:
    """U1 = q^2/(2 eps0) * g1(r, r); the free-space divergence is subtracted."""
    return _self_result(a, geom.g1(a.position, spec))


def self_energies(geom: Geometry, charges: Iterable[Charge],
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Iterator[InteractionResult]:
    """self_energy of each charge, in order, from one call to geom.g1_many;
    a charge whose g1 raises does so once the charges before it were yielded."""
    charges = list(charges)
    for a, g1 in zip(charges, geom.g1_many([a.position for a in charges], spec)):
        yield _self_result(a, g1)


def _self_result(a: Charge, g1: ValueWithError) -> InteractionResult:
    pref = a.q * a.q / (2.0 * EPSILON_0)
    return InteractionResult(pref * g1.value, None, abs(pref) * g1.abs_err)


def pair_energy(geom: Geometry, a: Charge, b: Charge,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InteractionResult:
    """U = qA qB / eps0 * g(rA, rB) for distinct points.

    `Geometry.g` admits both points and rejects coincident ones; a pair too
    far apart for float64 has U = 0 in every geometry.
    """
    return _pair_result(geom, a, b, geom.g(a.position, b.position, spec))


def pair_energies(geom: Geometry, pairs: Iterable[Tuple[Charge, Charge]],
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Iterator[InteractionResult]:
    """pair_energy of each (a, b) of `pairs`, in order, from one call to
    geom.g_many; a pair whose g raises does so once the pairs before it
    were yielded."""
    pairs = list(pairs)
    for (a, b), g in zip(pairs, geom.g_many([(a.position, b.position) for a, b in pairs],
                                            spec)):
        yield _pair_result(geom, a, b, g)


def _pair_result(geom: Geometry, a: Charge, b: Charge, g: ValueWithError) -> InteractionResult:
    ra, rb = a.position, b.position
    dist = distance(ra, rb)
    if dist == math.inf:
        # g = 0 there, and U_free = 0 leaves the ratio undefined
        return InteractionResult(0.0, None, 0.0)
    qq = a.q * b.q
    pref = qq / EPSILON_0
    # here and in the ratio, + 0.0 turns the -0.0 of a screened pair of
    # opposite charges into 0.0
    energy = pref * g.value + 0.0
    ratio = None
    eps_a = geom.host_eps(ra)
    # U_free = 0 at a zero (or underflowing) product of charges
    if eps_a is not None and eps_a == geom.host_eps(rb) and qq != 0.0:
        ratio = energy * FOUR_PI_EPS0 * eps_a * dist / qq + 0.0
    return InteractionResult(energy, ratio, abs(pref) * g.abs_err)


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def force_on_A(geom: Geometry, a: Charge, b: Optional[Charge] = None,
               apply_local_field: bool = False,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Force on charge A: -grad_A of the pair energy (b given) or self-energy.

    The gradient comes from the geometry's Green's function (`grad_g`, or
    `grad_g1` for the self-force), to the tolerances of `spec`, and with it
    the rules every geometry shares (`core.Geometry`); a force that
    overflows float64 is a DomainError.
    """
    import numpy as np  # here alone, so that the energies load no numpy
    p = a.position
    if b is None:
        pref = a.q * a.q / (2.0 * EPSILON_0)
        grad = geom.grad_g1(p, spec)
    else:
        pref = a.q * b.q / EPSILON_0
        grad = geom.grad_g(p, b.position, spec)
    # 0.0 - x rather than -x, so that a component that vanishes is +0.0
    force = np.array([0.0 - pref * c for c in grad])
    factor = 1.0
    if apply_local_field:
        eps_here = geom.host_eps(p)
        if eps_here is None:
            raise OutOfRegionError("force_on_A: charge inside a conductor")
        factor = local_field_factor(eps_here)
    overflow = [axis for axis, c in zip("xyz", force) if not math.isfinite(c)]
    if overflow:
        # inf - inf makes a NaN, so name the components rather than print them
        raise DomainError(f"force_on_A: the force overflows float64 in its "
                          f"{', '.join(overflow)} component{'s' if len(overflow) > 1 else ''}")
    return ForceResult(force=factor * force, local_field_factor_applied=factor)
