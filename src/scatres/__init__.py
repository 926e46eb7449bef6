"""Numerics for scattering resonances as the spectrum of a decay semigroup.

The package discretizes the upper Hardy class of the line, realizes the
characteristic (compressed shift) semigroup and its scattering-matrix-dependent
invariant subspaces, locates resonances as poles of analytically continued
scattering matrices, and exposes survival-probability curves plus a CLI.
"""

# each module's __all__ is the package's export list
from .hardy import *
from .semigroup import *
from .smatrix import *
from .finder import *
from .subspace import *

__version__ = "0.1.0"
