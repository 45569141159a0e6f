"""Exact census and asymptotic checks for distinct rationals built from
bounded integer powers a_1**b_1 * ... * a_n**b_n with 1 <= a_i <= A_i and
|b_i| <= B_i.

The library enumerates the set of distinct values exactly, constructs the
filtered set of unique representatives via three exclusion conditions, counts
each condition against its theoretical envelope, and evaluates the
block-decomposition main term the exact counts converge to.

Each module's ``__all__`` is its public API, and the package re-exports it.
"""

from . import asymptotics, census, conditions, core, smooth
from .core import *
from .conditions import *
from .smooth import *
from .asymptotics import *
from .census import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *conditions.__all__,
    *smooth.__all__,
    *asymptotics.__all__,
    *census.__all__,
    "__version__",
]
