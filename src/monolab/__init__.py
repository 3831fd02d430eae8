"""Numerical lab for curvature inequalities on periodic 4-manifolds.

Finite-difference geometry on 4-torus charts: curvature of arbitrary
smooth periodic metrics, Hodge theory of self-dual 2-forms, spin
structures with a U(1) twist on flat charts, a spectral quotient for
circle-valued angle fields, perturbed monopole residuals, and the
curvature inequalities that tie them together.

The package namespace re-exports nothing and imports no submodule: import
from the module that defines a name (`monolab.grid`, `monolab.curvature`,
`monolab.selfdual`, `monolab.spinc`, `monolab.rayleigh`,
`monolab.functionals`, `monolab.presets`, `monolab.io`), so a process loads
only the layers it uses.
"""

__version__ = "0.1.0"
