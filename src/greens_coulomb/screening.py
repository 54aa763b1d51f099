"""Screened Coulomb interaction in a spatially dispersive bulk medium.

The static longitudinal permittivity of the hydrodynamic Drude model is

    eps(k, 0) = 1 + (omega_p_bound / omega_0)^2 + omega_p^2 / (beta k)^2,

bound electrons contributing the constant eps_b and free carriers the
1/k^2 term that screens completely at long wavelength. The Green's function
is the Yukawa form exp(-k_s r) / (4 pi eps_b r) with k_s = omega_p / (beta
sqrt(eps_b)), written once, in `NonlocalBulk._g`; its coincident limit less
the free term is the closed form g1 = -k_s / (4 pi eps_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import free_space_grad
from .core import (
    DomainError,
    Geometry,
    Gradient,
    Point3,
    QuadratureSpec,
    ValueWithError,
    _require_finite,
    distance,
)


@dataclass(frozen=True)
class DrudeStatic:
    """Static-limit hydrodynamic Drude parameters (all rad/s except beta in m/s).

    Damping drops out at zero frequency, so it takes no parameter.
    """

    omega_p: float
    omega_p_bound: float
    omega_0: float
    beta: float

    def __post_init__(self):
        for name in ("omega_p", "omega_p_bound", "omega_0", "beta"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
        if self.omega_p < 0.0:
            raise DomainError(f"omega_p must be >= 0, got {self.omega_p!r}")
        if self.omega_p_bound < 0.0:
            raise DomainError(f"omega_p_bound must be >= 0, got {self.omega_p_bound!r}")
        if not (self.omega_0 > 0.0):
            raise DomainError(f"omega_0 must be > 0, got {self.omega_0!r}")
        if not (self.beta > 0.0):
            raise DomainError(f"beta must be > 0, got {self.beta!r}")
        if not math.isfinite(self.eps_b):
            raise DomainError(
                f"eps_b = 1 + (omega_p_bound / omega_0)^2 overflows float64 at omega_p_bound = "
                f"{self.omega_p_bound!r}, omega_0 = {self.omega_0!r}")

    @property
    def eps_b(self) -> float:
        """Bound-electron background permittivity, >= 1."""
        ratio = self.omega_p_bound / self.omega_0
        return 1.0 + ratio * ratio

    @property
    def k_s(self) -> float:
        """Inverse screening length omega_p / (beta sqrt(eps_b)), in 1/m."""
        return self.omega_p / (self.beta * math.sqrt(self.eps_b))


@dataclass(frozen=True)
class NonlocalBulk(Geometry):
    """Homogeneous spatially dispersive medium."""

    drude: DrudeStatic

    def host_eps(self, p: Point3) -> float:
        return self.drude.eps_b

    def _g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> ValueWithError:
        """exp(-k_s r) / (4 pi eps_b r), the Yukawa form."""
        dist = distance(r, r_src)
        return ValueWithError(math.exp(-self.drude.k_s * dist)
                              / (4.0 * math.pi * self.drude.eps_b * dist))

    def _g1(self, r: Point3, spec: QuadratureSpec) -> ValueWithError:
        """-k_s / (4 pi eps_b), the limit of g - 1/(4 pi eps_b r) = (exp(-k_s r) - 1)
        / (4 pi eps_b r) at r = 0: the Debye-Huckel self-energy."""
        return ValueWithError(-self.drude.k_s / (4.0 * math.pi * self.drude.eps_b))

    def _grad_g(self, r: Point3, r_src: Point3, spec: QuadratureSpec) -> Gradient:
        ksr = self.drude.k_s * distance(r, r_src)
        return free_space_grad(r, r_src, self.drude.eps_b, math.exp(-ksr) * (1.0 + ksr))

    def _grad_g1(self, r: Point3, spec: QuadratureSpec) -> Gradient:
        """0: g1 is the same at every point of the homogeneous medium."""
        return 0.0, 0.0, 0.0
