"""Exact combinatorics of the boundary of genus-zero moduli of labeled curves.

The package models boundary strata through stable dual trees, pairs
boundary divisors against one-dimensional boundary classes, and runs a
complete census of boundary curves, all in exact integer and rational
arithmetic.

Every public name of the four layers is a package attribute, loaded on
first use (PEP 562): importing the package imports none of the layers.
"""

__version__ = "0.1.0"

# Each layer lists its public names once, in its own ``__all__``; a name is
# looked up in these layers in this order, and a layer is imported only
# when the lookup reaches it.  ``from stablecurves import cli`` asks for the
# other submodule as an attribute first, so it is named here too.
_LAYERS = ("partitions", "trees", "intersect", "census")


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAYERS or name == "cli":
        return import_module(f"{__name__}.{name}")
    # No layer exports a private name, so these import nothing.
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = []
    for layer in _LAYERS:
        module = import_module(f"{__name__}.{layer}")
        if name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
        names += module.__all__
    if name == "__all__":
        globals()[name] = value = [*names, "__version__"]
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *public})
