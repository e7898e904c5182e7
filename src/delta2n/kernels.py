"""Names kept only because the benchmark's tracer (perfbench/tracer.py)
traces them and its self-test requires each to exist; no module of the
package imports this one.  ``rref_modp`` is linalg's own object, which the
tracer wraps by identity, so linalg's elimination reports under this name;
``project_stream`` and ``sjt_swaps`` are left from a replaced algorithm.
"""

from __future__ import annotations

from functools import cache
from math import factorial

import numpy as np

from .linalg import rref_modp  # noqa: F401


@cache
def sjt_swaps(n: int) -> tuple[int, ...]:
    """Steinhaus-Johnson-Trotter position-swap sequence of length n!-1.

    Walking the sequence from the identity with sigma <- sigma o t_j visits
    every permutation of S_n exactly once.
    """
    perm = list(range(n))
    pos = list(range(n))  # pos[v] = current index of value v
    direction = [-1] * n
    swaps = []
    for _ in range(factorial(n) - 1):
        mobile = -1
        for v in range(n):
            i = pos[v]
            j = i + direction[v]
            if 0 <= j < n and perm[j] < v and v > mobile:
                mobile = v
        i = pos[mobile]
        j = i + direction[mobile]
        swaps.append(min(i, j))
        other = perm[j]
        perm[i], perm[j] = perm[j], perm[i]
        pos[mobile], pos[other] = j, i
        for v in range(mobile + 1, n):
            direction[v] = -direction[v]
    return tuple(swaps)


def project_stream(swaps, gidx, gsgn, rgen, x):
    """Exact sum_g r11(g^{-1}) * (A_g x) over S_n = (n!/d_lambda) p11 x, in
    Python ints: a brute-force reference for small n.

    The walk starts at the identity and follows ``swaps`` (adjacent
    transpositions covering S_n, such as ``sjt_swaps``); gidx/gsgn are the
    gather tables of the generators' signed basis action, and rgen the
    generators of the irreducible representation.
    """
    gidx = np.asarray(gidx, dtype=np.int64)
    gsgn, rgen, x = (np.asarray(a).astype(object) for a in (gsgn, rgen, x))
    n = gidx.shape[0] + 1
    if len(swaps) != factorial(n) - 1:
        raise ValueError("swap sequence does not cover S_n")
    idx = np.arange(gidx.shape[1])
    sgn = np.ones(idx.shape[0], dtype=object)
    c = np.zeros(rgen.shape[1], dtype=object)
    c[0] = 1
    acc = np.zeros(x.shape, dtype=object)
    for e in range(len(swaps) + 1):
        if e:
            # A <- A * A_{t_j}: route both tables through the current index map
            j = swaps[e - 1]
            sgn = sgn * gsgn[j, idx]
            idx = gidx[j, idx]
            c = rgen[j].dot(c)
        if c[0]:
            acc += c[0] * sgn[:, None] * x[idx]
    return acc
