"""Row reduction of an integer matrix modulo a word-sized prime, with numba
and pure-numpy implementations, and an exact n!-term group average kept as a
small-n reference.

The numba version is used when numba imports cleanly; set DELTA2N_NO_NUMBA=1
to force the numpy fallback.  Results are bit-identical either way.
"""

from __future__ import annotations

import os
from math import factorial

import numpy as np

if os.environ.get("DELTA2N_NO_NUMBA"):
    HAVE_NUMBA = False
else:
    try:
        import numba
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - exercised via the env flag
        HAVE_NUMBA = False


def _rref_modp_py(a, p):
    """In-place reduced row echelon form of `a` modulo p; returns (rank, pivots)."""
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


if HAVE_NUMBA:

    @njit(cache=True)
    def _modinv(a, p):
        # Fermat: a^(p-2) mod p
        result = 1
        base = a % p
        e = p - 2
        while e > 0:
            if e & 1:
                result = result * base % p
            base = base * base % p
            e >>= 1
        return result

    @njit(cache=True)
    def _rref_modp_nb(a, p):
        rows, cols = a.shape
        for i in range(rows):
            for j in range(cols):
                a[i, j] = a[i, j] % p
        cap = rows if rows < cols else cols
        pivots = np.empty(cap, dtype=np.int64)
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pr = -1
            for i in range(r, rows):
                if a[i, c] != 0:
                    pr = i
                    break
            if pr < 0:
                continue
            if pr != r:
                for j in range(c, cols):
                    tmp = a[r, j]
                    a[r, j] = a[pr, j]
                    a[pr, j] = tmp
            inv = _modinv(a[r, c], p)
            if inv != 1:
                for j in range(c, cols):
                    a[r, j] = a[r, j] * inv % p
            for i in range(rows):
                f = a[i, c]
                if i != r and f != 0:
                    for j in range(c, cols):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            pivots[r] = c
            r += 1
        return r, pivots[:r]


def rref_modp(a: np.ndarray, p: int):
    """RREF of an int64 matrix mod p (in place).  Returns (rank, pivot columns)."""
    if a.dtype != np.int64:
        raise TypeError("expected int64 matrix")
    if not 1 < p < 1 << 31:
        raise ValueError("prime out of range")
    if a.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    if HAVE_NUMBA:
        return _rref_modp_nb(a, p)
    return _rref_modp_py(a, p)


def set_threads(count: int) -> None:
    """Cap numba's thread pool (no kernel here is parallel at present)."""
    if HAVE_NUMBA and count > 0:
        numba.set_num_threads(min(count, numba.config.NUMBA_NUM_THREADS))


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
