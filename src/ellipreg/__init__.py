"""Numerical regularity diagnostics for divergence-form elliptic operators.

The toolkit decides, from a coefficient field A(x) normalized to A(0) = I,
whether weak solutions of div(A grad u) = 0 are Lipschitz continuous or
differentiable at the origin.  The decision is made by reducing the question
to the asymptotics of a linear dynamical system in log-time, evaluating a
family of analytic integral criteria on the radial moment matrices of the
field, and (in two dimensions) cross-checking the verdict against a direct
finite-volume solve of the Dirichlet problem.

Submodules load on import (``from ellipreg import criteria``), not with
the package, so a run loads only what it uses: the grid verifier,
:mod:`ellipreg.pde_verify`, loads only for runs that solve on the grid,
the scalar generators of :mod:`ellipreg.gilbarg_serrin` only for runs that
read one, and :mod:`ellipreg.appendix_system` only for the appendix tables.
Every submodule needs numpy alone.
"""

__version__ = "0.1.0"

__all__ = [
    "coeff",
    "sphmean",
    "dyadic",
    "dynsys",
    "appendix_system",
    "gilbarg_serrin",
    "criteria",
    "pde_verify",
]
