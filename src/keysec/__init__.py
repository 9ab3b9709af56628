"""keysec: quantitative security analysis for imperfect cryptographic keys.

A key that is merely *close* to uniform (statistical distance eps > 0)
is not a uniform key, and the difference is not cosmetic: conditioning
on partial knowledge, reusing key material across primitives, or
feeding it to an authentication scheme can inflate that eps into a
full-scale failure.  This package makes the relevant quantities
computable — distances, entropies, extremal distributions, split-key
conditioning, authentication forgery odds, error-correction leakage,
log-domain failure budgets, and CV-QKD monitoring arithmetic — with an
exact rational backend next to the float one so every claimed identity
can be checked without tolerance games.

The package re-exports each module's ``__all__``; a module's ``__all__``
is the one list of its public names.
"""

from . import budget, cvqkd, dist, ecpa, extremal, kpa, mac, numerics, verify
from .budget import *
from .cvqkd import *
from .dist import *
from .ecpa import *
from .extremal import *
from .kpa import *
from .mac import *
from .numerics import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (budget, cvqkd, dist, ecpa, extremal, kpa, mac, numerics, verify)
    for name in module.__all__
]
