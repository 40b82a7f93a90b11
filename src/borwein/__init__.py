"""Exact-arithmetic verification toolkit for the Borwein sign conjectures.

The product ∏_{j=0}^n (1-q^{3j+1})(1-q^{3j+2}) is conjectured to have
coefficients that are nonnegative at exponents divisible by 3 and
nonpositive elsewhere. This package expands such products exactly at
desk scale (degrees into the millions), verifies the sign pattern and
the strict positivity of residue-class partial sums, cross-validates a
divisor-grouped closed form for signed subset-sum counts against
independent oracles, and checks the partition-theoretic structure of
the infinite-product analogs.

Everything is integer-exact: no floats, no fixed-width arithmetic.
"""

from . import exactmath, modcount, partitions, qpoly, report, series
from .exactmath import *
from .modcount import *
from .partitions import *
from .qpoly import *
from .report import *
from .series import *

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    *exactmath.__all__,
    *qpoly.__all__,
    *series.__all__,
    *modcount.__all__,
    *partitions.__all__,
    *report.__all__,
]
