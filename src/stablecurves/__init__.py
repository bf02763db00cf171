"""Exact combinatorics of the boundary of genus-zero moduli of labeled curves.

The package models boundary strata through stable dual trees, pairs
boundary divisors against one-dimensional boundary classes, and runs a
complete census of boundary curves, all in exact integer and rational
arithmetic.
"""

from . import census, intersect, partitions, trees
from .partitions import *  # noqa: F401,F403
from .trees import *  # noqa: F401,F403
from .intersect import *  # noqa: F401,F403
from .census import *  # noqa: F401,F403

__version__ = "0.1.0"

# Every public name of the four layers, each listed once, in its own module.
__all__ = [
    *partitions.__all__,
    *trees.__all__,
    *intersect.__all__,
    *census.__all__,
    "__version__",
]
