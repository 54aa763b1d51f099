"""Hot numeric kernels, written in numpy (see `_ref`).

The quadrature integrands take a 1-D array of wavenumbers, so the panel
integrator evaluates a block of panels, or a whole bisection level, in one
call; `alpha_chain_sum` takes a block of Born cells. `hole_greens` is scalar.
Callers look the kernels up on this module at call time.
"""

from ._ref import (
    alpha_chain_sum,
    cavity_integrand,
    cavity_scatter_integrand,
    hole_greens,
    screening_integrand,
)

__all__ = [
    "hole_greens",
    "cavity_integrand",
    "cavity_scatter_integrand",
    "screening_integrand",
    "alpha_chain_sum",
]
