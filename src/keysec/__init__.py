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

``import keysec`` loads nothing else (PEP 562).  A submodule name such as
``keysec.budget`` imports that module alone, and with it only what the
module imports itself: ``budget``, ``cvqkd`` and ``numerics`` need no
numpy, and ``numerics`` holds the scalar formulas ``binary_entropy``,
``ec_leak`` and ``degraded_epsilon`` (also bound in ``dist``, ``ecpa`` and
``mac``).  The first other public name, ``__all__`` included, imports all
nine library modules and binds their names here.
"""

import importlib

__version__ = "0.1.0"

#: the library modules, whose ``__all__`` lists make up the package's in this order
_MODULES = ("budget", "cvqkd", "dist", "ecpa", "extremal", "kpa", "mac", "numerics", "verify")


def _load() -> None:
    """Import every library module and bind its public names, and ``__all__``, in the package."""
    modules = [importlib.import_module(f"{__name__}.{name}") for name in _MODULES]
    public = [(name, getattr(module, name)) for module in modules for name in module.__all__]
    globals().update(public, __all__=[name for name, _ in public])


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if not name.startswith("__") or name == "__all__":  # a probe such as __wrapped__ loads nothing
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    _load()
    return sorted(globals())
