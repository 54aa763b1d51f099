"""Hot numeric kernels with a compiled core and a pure fallback.

At import time the Cython extension `_fast` is preferred for the quadrature
and closed-form kernels; if it was not built (or GREENS_COULOMB_PURE is set)
the numpy reference `_ref` is used. Both expose the same API and agree to
roundoff. `alpha_chain_sum` is always the numpy one: the Born octree calls
it on blocks of whole cells (2-D weights, one sum per cell), a shape the
compiled kernel does not take.
"""

import os

from . import _ref

if os.environ.get("GREENS_COULOMB_PURE"):
    _impl = _ref
else:
    try:
        from . import _fast as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _ref

BACKEND = _impl.BACKEND_NAME

hole_greens = _impl.hole_greens
cavity_integrand = _impl.cavity_integrand
cavity_scatter_integrand = _impl.cavity_scatter_integrand
screening_integrand = _impl.screening_integrand
alpha_chain_sum = _ref.alpha_chain_sum

__all__ = [
    "BACKEND",
    "hole_greens",
    "cavity_integrand",
    "cavity_scatter_integrand",
    "screening_integrand",
    "alpha_chain_sum",
]
