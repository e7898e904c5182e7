"""Equivariant rational homology of the tropical moduli spaces Delta_{2,n}."""

__version__ = "0.1.0"


# The failures the layers raise; the CLI maps each to exit status 2, except
# NotACharacterError, which only decompose raises and its command maps to 1.
# They live here, with no import, so that naming them loads no computing layer.


class InternalConsistencyError(RuntimeError):
    """A structural identity failed: points at an enumeration or sign bug."""


class RankCertificateError(RuntimeError):
    """Raised when the modular/exact certification loop cannot close."""


class NotACharacterError(ValueError):
    """A class function is not a nonnegative integer combination of irreducibles."""


class MalformedGraphError(ValueError):
    """A marked theta graph, or a permutation acting on one, is not well formed."""


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
