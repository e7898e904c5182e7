"""Equivariant rational homology of the tropical moduli spaces Delta_{2,n}."""

__version__ = "0.1.0"


def clear_caches():
    """Empty every in-process memo (each is a ``functools.cache``) of the
    delta2n modules loaded so far, so the next call recomputes; a module not
    yet imported holds none and stays unloaded.  Boundary files on disk are
    left alone."""
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__name__}.") and module is not None:
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
