"""Equivariant rational homology of the tropical moduli spaces Delta_{2,n}."""

__version__ = "0.1.0"


def clear_caches():
    """Empty every in-process memo (each is a ``functools.cache``), so the
    next call recomputes; boundary files on disk are left alone."""
    from . import chain_complex, d25_analysis, equivariant_homology, symmetric_group, theta_graphs

    modules = (chain_complex, equivariant_homology, d25_analysis, symmetric_group, theta_graphs)
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
