"""hankellab: a numerical laboratory for Hankel operators, skewed
truncations, and bilinear Hilbert transforms on the circle.

The package works with finite trigonometric polynomials represented by
exact coefficient windows, so every algebraic identity can be checked
coefficientwise; quadrature and norm computations are layered on top with
explicit refinement and error reporting.
"""

from . import (bilinear, errors, experiments, hankel, opnorm, serialize,
               spaces, trigpoly)
from .errors import *
from .trigpoly import *
from .spaces import *
from .hankel import *
from .bilinear import *
from .opnorm import *
from .serialize import *
from .experiments import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *trigpoly.__all__,
           *spaces.__all__, *hankel.__all__, *bilinear.__all__,
           *opnorm.__all__, *serialize.__all__, *experiments.__all__]
