"""Row reduction of an integer matrix modulo a word-sized prime (numpy), the
one elimination routine that every exact result in ``linalg`` rests on.

``project_stream`` is left from the replaced projection algorithm: no command
calls it, but perfbench/tracer.py still traces it by name, and the benchmark's
self-test requires every traced name to exist.
"""

from __future__ import annotations

from math import factorial

import numpy as np


def rref_modp(a: np.ndarray, p: int):
    """RREF of an int64 matrix mod p (in place).  Returns (rank, pivot columns)."""
    if a.dtype != np.int64:
        raise TypeError("expected int64 matrix")
    if not 1 < p < 1 << 31:
        raise ValueError("prime out of range")
    if a.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    a %= p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - col[hit, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return r, np.array(pivots, dtype=np.int64)


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
