"""Quasi-arithmetic integral means on finite discrete measure spaces.

The package evaluates both partially mixed mean operators for a pair of
generators, reports their commutation residual, reduces the question to
scalar functional-equation diagnostics, and searches constructively for
simple functions witnessing non-commutation.

Every name in a submodule's ``__all__`` is exported here; the command
line (``qamlab.cli``) is not imported.
"""

from . import (errors, generators, means, measure_space, phi_reduction, residuals, suites,
               witness_search)
from .errors import *
from .generators import *
from .means import *
from .measure_space import *
from .phi_reduction import *
from .residuals import *
from .suites import *
from .witness_search import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, generators, means, measure_space, phi_reduction, residuals, suites,
                   witness_search)
    for name in module.__all__
]
