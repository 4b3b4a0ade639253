"""Closed-form solver for linear constant-coefficient ODEs.

The solver factors the characteristic polynomial, reads the homogeneous
basis off the root multiplicities, and builds particular solutions for
exponential-polynomial forcing one term at a time through the exponential
shift L[e^(lam*x) p] = e^(lam*x) P(lam + D) p.  Every answer is checked by
substitution through the same shift.
"""

from . import cpoly, exppoly, operators, parsing, solve
from .cpoly import *
from .exppoly import *
from .operators import *
from .parsing import *
from .solve import *

__version__ = "0.1.0"

__all__ = sorted(cpoly.__all__ + exppoly.__all__ + operators.__all__
                 + parsing.__all__ + solve.__all__) + ["__version__"]
