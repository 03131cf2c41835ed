"""Sturm-Liouville spectra, fractional-power spaces, and modal semigroups.

The library solves regular Sturm-Liouville eigenproblems with Robin
boundary conditions by scaled Prüfer shooting, builds the fractional
spaces X_alpha with their rescaled orthonormal bases, simulates the
generated semigroup modally, and cross-validates everything against an
independent finite-difference oracle.  A diffusion-convection-reaction
case study exercises the whole stack with closed-form references.
"""

# each module's __all__ is the one declaration of its public names; cli is
# not imported, so that importing the package loads neither scipy nor jsonschema
from . import casestudy, core, eigensolve, expressions, fracspace, oracle, semigroup
from .core import *
from .expressions import *
from .eigensolve import *
from .fracspace import *
from .semigroup import *
from .oracle import *
from .casestudy import *

_MODULES = (core, expressions, eigensolve, fracspace, semigroup, oracle, casestudy)
__all__ = [name for module in _MODULES for name in module.__all__]

__version__ = "0.1.0"
