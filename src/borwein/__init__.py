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

Importing the package loads none of its modules. Each export, and each
module by its name, loads on first use (a module-level __getattr__), so
a command line loads only the modules its command runs. Each module's
__all__ is the one list of its exports: a public name resolves from the
first module in _MODULES whose __all__ holds it, importing the modules
in that order only until it is found; __all__ is their lists joined in
that order, after __version__ (report.TOOL_VERSION). A name that starts
with an underscore imports nothing.
"""

import importlib

_MODULES = ("exactmath", "qpoly", "series", "modcount", "partitions", "report")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        return ["__version__", *(n for m in _MODULES for n in _module(m).__all__)]
    if name == "__version__":
        return _module("report").TOOL_VERSION
    if not name.startswith("_"):
        for module in map(_module, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    names = __getattr__("__all__")
    return sorted({*globals(), *_MODULES, "__all__", *names})
