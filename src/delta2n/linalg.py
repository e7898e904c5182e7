"""Exact linear algebra over the integers: a sparse integer matrix type for
the boundaries, and one certified elimination core.

Every exact result rests on ``rref_modp``, row reduction modulo word-sized
primes, whose rank is a lower bound on the rank over Q.
``kernel_exact`` glues the kernel residues with CRT, lifts them to rationals
cleared of their least common denominator L, and verifies that integer
matrix L K exactly, which gives the matching upper bound; callers take L K
and L as they come.  ``rank_exact`` is a thin layer over it (one prime
certifies full rank).
``independent_columns`` needs no kernel: its caller supplies the exact rank.
Their inputs are SparseIntMatrix or signed-integer arrays, taken as int64;
anything else raises ValueError.
Whether an int64 result fits is decided here alone, before the arithmetic
runs: ``signed_sum`` bounds a sum of multiples, ``int_matmul`` a product.
numpy wraps integer overflow without a warning, so every integer width here,
narrow ones included, is chosen from a bound and never checked afterwards.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

import numpy as np

from . import RankCertificateError

# primes just under 2**31 so mod-p products fit comfortably in int64
PRIMES = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
    2147483489,
    2147483477,
    2147483423,
    2147483399,
    2147483353,
    2147483323,
    2147483269,
    2147483249,
)


class SparseIntMatrix:
    """Sparse integer matrix held as one read-only array ``coords`` of shape
    (3, nnz): the row, column and value of each nonzero entry, sorted
    row-major, each cell at most once.  Its dtype is the narrowest of int16,
    int32 and int64 that holds rows, cols and every |value|
    (``_coord_dtype``), so one matrix has one form, and ``entries`` and
    ``to_int64`` read the same values whatever the width."""

    def __init__(self, rows: int, cols: int):
        """The zero matrix of this shape; ``from_terms`` and ``from_coords``
        build the others."""
        self._set(rows, cols, np.zeros((3, 0), dtype=_coord_dtype(rows, cols)))

    def _set(self, rows, cols, coords):
        self.rows, self.cols = rows, cols
        self.coords = coords.view()  # read-only here, whoever else holds the data
        self.coords.setflags(write=False)

    @classmethod
    def from_terms(cls, rows: int, cols: int, r, c, v) -> "SparseIntMatrix":
        """The sum of the terms v[k] at the cells (r[k], c[k]), in any order
        and repeats allowed; ValueError for a cell outside the shape or an
        array that does not hold integers, OverflowError unless
        rows * cols * (2M + 1) < 2**62 for the largest |v[k]| M.  The sums
        are taken in int64: the caller bounds them below 2**63."""
        mat = cls.__new__(cls)
        mat._set(rows, cols, _cell_sums(rows, cols, r, c, v))
        return mat

    @classmethod
    def from_coords(cls, rows: int, cols: int, coords) -> "SparseIntMatrix":
        """From an array already in the layout of ``coords``; ValueError for
        anything else (a dtype other than the one ``_coord_dtype`` gives for
        this shape and these values, another rank or shape, a cell out of
        range, out of order or repeated, a zero value): a foreign or damaged
        array is rejected, never repaired."""
        coords = np.asarray(coords)
        if coords.dtype not in _COORD_DTYPES or coords.ndim != 2 or coords.shape[0] != 3:
            raise ValueError(f"not a (3, nnz) int16/32/64 array: {coords.dtype} {coords.shape}")
        r, c, v = coords
        want = _coord_dtype(rows, cols, _max_abs(v))
        if coords.dtype != want:
            raise ValueError(f"{coords.dtype} coordinates where the rule gives {want}")
        _check_range(rows, cols, r, c)
        # compared lexicographically: r * cols + c could wrap in a narrow dtype
        if np.any((r[1:] < r[:-1]) | ((r[1:] == r[:-1]) & (c[1:] <= c[:-1]))):
            raise ValueError("entries are not in strictly increasing row-major order")
        if not v.all():
            raise ValueError("a stored value is zero")
        mat = cls.__new__(cls)
        mat._set(rows, cols, coords)
        return mat

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return self.coords.shape[1]

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.coords, other.coords)

    def is_zero(self):
        return self.nnz == 0

    def entries(self):
        """The entries as ((row, col), value) pairs of Python ints, row-major."""
        r, c, v = self.coords.tolist()
        return list(zip(zip(r, c), v))

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        """The exact product, with no dense array: entry (i, j, a) of self
        meets other's row j, a contiguous run of other's entries.  A cell
        gets at most as many terms as self's row and other's column have
        entries, so the product runs only when max|a| * max|b| times the
        fewer of those is below 2**62; OverflowError otherwise, before any
        product is formed.  Each term a * b is formed in the narrowest dtype
        that holds max|a| * max|b|, and ``_cell_sums`` sums them.

        Every term of cell (i, j) comes from row i of self, so the terms are
        formed and summed over whole rows of self, at most ``_PRODUCT_CHUNK``
        at a time (a row with more in one piece), and the row-major sums of
        successive pieces concatenate into the product's ``coords``, in the
        widest dtype a piece needed."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        (ar, ac, av), (br, bc, bv) = self.coords, other.coords
        if not (av.size and bv.size):
            return SparseIntMatrix(self.rows, other.cols)
        terms = min(np.bincount(ar).max(), np.bincount(bc).max())
        top = _max_abs(av) * _max_abs(bv)
        bound = top * int(terms)
        if bound >= _INT64_SAFE:
            raise OverflowError(f"a sum of products may reach {bound}, beyond int64")
        term_dtype = _coord_dtype(top)
        # a piece has at most the larger of _PRODUCT_CHUNK and other's nnz
        # terms, so its positions and offsets fit the dtype that holds those
        index_dtype = _coord_dtype(av.size, bv.size, _PRODUCT_CHUNK)
        # entries in each row of other
        length = np.bincount(br, minlength=other.rows).astype(index_dtype)
        first = np.cumsum(length, dtype=index_dtype) - length  # where each row of other starts
        row_end = np.flatnonzero(np.r_[ar[1:] != ar[:-1], True]) + 1  # past each row of self
        through = np.cumsum(length[ac], dtype=np.int64)[row_end - 1]  # terms up to each row's end
        parts, k = [], 0
        while k < row_end.size:
            lo, done = (row_end[k - 1], through[k - 1]) if k else (0, 0)
            k = max(int(np.searchsorted(through, done + _PRODUCT_CHUNK, side="right")), k + 1)
            hi = row_end[k - 1]
            run, begin = length[ac[lo:hi]], first[ac[lo:hi]]
            left = np.repeat(np.arange(lo, hi, dtype=index_dtype), run)
            # index into other of each term: its run's start plus its place in the run
            right = np.repeat(begin - (np.cumsum(run, dtype=index_dtype) - run), run)
            right += np.arange(right.size, dtype=index_dtype)
            r, c = ar[left], bc[right]
            v = np.multiply(av[left], bv[right], dtype=term_dtype)
            del left, right
            parts.append(_cell_sums(self.rows, other.cols, r, c, v))
        mat = SparseIntMatrix.__new__(SparseIntMatrix)
        mat._set(self.rows, other.cols, np.concatenate(parts, axis=1))
        return mat

    def to_int64(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        r, c, v = self.coords
        out[r, c] = v
        return out


def _check_range(rows, cols, r, c):
    if r.size and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
        raise ValueError(f"an entry lies outside the shape {(rows, cols)}")


def _cell_sums(rows, cols, r, c, v) -> np.ndarray:
    """The nonzero sums of the terms v at the cells (r, c), in the layout of
    ``SparseIntMatrix.coords``; ValueError for a cell outside the shape or an
    array whose dtype does not cast to int64 exactly (floats, objects and
    uint64 do not), an empty array excepted, and OverflowError unless
    rows * cols * (2M + 1) < 2^62, M = max|v|.  Each term is packed into one
    int64, its cell key r * cols + c times 2M + 1 plus v + M, so one in-place
    sort orders the cells with their terms and no permutation is made; the
    terms come back by divmod in their own dtype, those of a cell are summed
    in int32 or int64 (never int16), as max|v| times the number of terms
    requires, and the sums are written out in the dtype ``_coord_dtype``
    gives.  Each full-length temporary is dropped once the next is made."""
    r, c, v = (np.asarray(x) for x in (r, c, v))
    for x in (r, c, v):
        if x.size and not np.can_cast(x.dtype, np.int64):
            raise ValueError(f"not an integer array: {x.dtype}")
    _check_range(rows, cols, r, c)
    if not v.size:
        return np.empty((3, 0), dtype=_coord_dtype(rows, cols))
    bound = _max_abs(v)
    span = 2 * bound + 1
    if rows * cols * span >= _INT64_SAFE:
        raise OverflowError(
            f"{rows} x {cols} cells with terms up to {bound} overflow an int64 sort key"
        )
    cell = np.multiply(r, cols, dtype=np.int64)
    cell += c
    cell *= span
    cell += v
    cell += bound
    cell.sort()
    dtype = v.dtype
    v = np.remainder(cell, span)
    cell //= span
    v -= bound
    v = v.astype(dtype, copy=False)
    step = cell[1:] != cell[:-1]
    if not step.all():  # some cell has several terms: sum them
        heads = np.flatnonzero(np.r_[True, step])
        del step
        v = np.add.reduceat(v, heads, dtype=_coord_dtype(_max_abs(v) * v.size, 1 << 15))
        cell = cell[heads]
        del heads
    keep = v != 0
    if not keep.all():
        cell, v = cell[keep], v[keep]
    del keep
    out = np.empty((3, v.size), dtype=_coord_dtype(rows, cols, _max_abs(v)))
    np.divmod(cell, cols, out=(out[0], out[1]))
    out[2] = v
    return out


# the dtypes of SparseIntMatrix.coords, narrowest first
_COORD_DTYPES = tuple(map(np.dtype, (np.int16, np.int32, np.int64)))


def _coord_dtype(*bounds) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every bound (the
    last when none does).  For a sparse matrix the bounds are its rows, cols
    and largest |value|: its stored dtype follows from its data alone."""
    top = max(bounds)
    return next((t for t in _COORD_DTYPES if top <= np.iinfo(t).max), _COORD_DTYPES[-1])


def _max_abs(a) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _integer_array(mat) -> np.ndarray:
    """mat as a dense 2-D int64 array, from a SparseIntMatrix or a 2-D array
    or list of a signed integer dtype.  ValueError for anything else (object
    arrays, rationals, floats, Python ints beyond int64), before any
    elimination runs, so no certificate is ever checked against a truncated
    copy of the input."""
    if isinstance(mat, SparseIntMatrix):
        return mat.to_int64()
    arr = np.asarray(mat)
    if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.signedinteger):
        raise ValueError(f"not a 2-D signed integer matrix: {arr.dtype} {arr.shape}")
    return arr.astype(np.int64, copy=False)


# |entries| and partial sums below this fit int64 with room for a sign
_INT64_SAFE = 1 << 62
# terms of a sparse product formed and summed at a time
_PRODUCT_CHUNK = 1 << 14
# every integer of absolute value up to this is a float64
_FLOAT64_EXACT = 1 << 53


def _product_dtype(a, b):
    """The dtype ``int_matmul`` multiplies a and b in: float64 when the bound
    max|a| * max|b| * (inner dimension) on every partial sum is below 2**53,
    so each product and each partial sum is an integer that float64 holds
    exactly whatever order BLAS adds in; int64 when it is below 2**62; Python
    ints (object) otherwise.  One choice holds for every slice of a stack."""
    bound = max(a.shape[-1], 1) * max(_max_abs(a), 1) * max(_max_abs(b), 1)
    if bound < _FLOAT64_EXACT:
        return np.float64
    if bound < _INT64_SAFE:
        return np.int64
    return object


def signed_sum(weights, arrays) -> np.ndarray:
    """sum_k weights[k] arrays[k] in int64 for a stack of signed-integer arrays, one per row of 2-D
    weights; OverflowError before any sum unless each row's sum_k |w_k| max|arrays[k]| < 2**62."""
    arrays = np.asarray(arrays).astype(np.int64, copy=False)
    flat = arrays.reshape(len(arrays), prod(arrays.shape[1:]))
    weights = np.asarray(weights, dtype=np.int64)
    hi, lo = flat.max(axis=1, initial=0).tolist(), flat.min(axis=1, initial=0).tolist()
    bound = max((sum(abs(w) * max(h, -m) for w, h, m in zip(row, hi, lo))
                 for row in np.atleast_2d(weights).tolist()), default=0)
    if bound >= _INT64_SAFE:
        raise OverflowError(f"a sum of {len(arrays)} terms may reach {bound}, beyond int64")
    return np.einsum("...k,kj->...j", weights, flat).reshape(weights.shape[:-1] + arrays.shape[1:])


def _int64_matmul(a, b) -> np.ndarray:
    """Exact int64 product of integer matrices (or stacks), in the dtype that
    ``_product_dtype`` proves exact; OverflowError first when that is object."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = _product_dtype(a, b)
    if dtype is object:
        raise OverflowError(f"a {a.shape} by {b.shape} product may leave int64")
    return (a.astype(dtype) @ b.astype(dtype)).astype(np.int64, copy=False)


def int_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices (or stacks): ``_int64_matmul``, else in Python ints."""
    try:
        return _int64_matmul(a, b)
    except OverflowError:
        return np.asarray(a).astype(object) @ np.asarray(b).astype(object)


def rank_modp(mat, p: int) -> int:
    return _reduce(_integer_array(mat), p)[2]


def rational_reconstruction(a: int, m: int):
    """Wang's half-gcd lift of a residue to n/d with |n|, d <= sqrt(m/2): the
    pair (n, d) in lowest terms with d > 0, or None when there is none."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num = r1 if s1 > 0 else -r1
    den = abs(s1)
    if gcd(num, den) != 1 or (num - a * den) % m:
        return None
    return num, den


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


def _reduce(a: np.ndarray, p: int):
    """(p, the RREF of a mod p, its rank, its pivot columns): the one entry
    to the mod-p elimination, on one copy of a, reduced in place."""
    red = a.copy()
    return (p, red, *rref_modp(red, p))


class Kernel(NamedTuple):
    """The certified kernel ``kernel_exact`` returns."""

    rank: int
    lk: np.ndarray
    scale: int
    pivots: np.ndarray
    free: np.ndarray

    def coordinates(self, y):
        """L X for the X with K X = Y, given y = L Y an integer matrix;
        None unless Y lies in the column space of K.  K[free] = I, so the
        free rows pin L X = y[free], and the pivot rows (L K)[pivots] (L X)
        = L y[pivots] are checked exactly, in integers."""
        lx, rhs = y[self.free], y[self.pivots]
        if rhs.dtype != object and self.scale * max(_max_abs(rhs), 1) >= _INT64_SAFE:
            rhs = rhs.astype(object)
        if not np.array_equal(int_matmul(self.lk[self.pivots], lx), rhs * self.scale):
            return None
        return lx


def kernel_exact(mat) -> Kernel:
    """Certified exact right kernel of an integer matrix.

    Returns a ``Kernel`` (rank, lk, scale, pivots, free), whose
    ``coordinates`` solves K X = Y.  The kernel K is a cols x
    nullity rational matrix in reduced echelon shape: K[free[j], i] is 1 when
    i == j and 0 otherwise, so rows at the free columns form an identity.  It
    comes as the integer matrix lk = L K with scale = L, the least common
    denominator of K's entries, so lk[free] = L I; lk is int64 when its
    entries fit, Python ints (object) otherwise.  The rank is exact: mod-p
    rank is a lower bound, and a @ lk == 0, checked in integers, certifies
    the nullity from above.  The pivots are exact too: they are independent
    mod p, hence over Q, and the verified kernel writes each free column as a
    combination of earlier pivot columns.  ValueError unless the input is
    an integer matrix (``_integer_array``).
    """
    a = _integer_array(mat)
    return _lift_kernel(a, (_reduce(a, p) for p in PRIMES))


def _lift_kernel(a, reductions):
    """``kernel_exact`` of the integer array a, from its reductions
    ``_reduce(a, p)`` over the primes in order, taken one at a time until the
    lifted kernel verifies."""
    nrows, ncols = a.shape
    if ncols == 0 or nrows == 0:
        return Kernel(0, np.eye(ncols, dtype=np.int64), 1, np.arange(0), np.arange(ncols))

    best = None  # (rank, pivots)
    residue = None
    modulus = 1
    for p, red, rank, pivots in reductions:
        # mod p, the rank can only drop and each pivot only move right, so
        # the highest rank with the least pivots is the one to lift
        if best is None or (rank, tuple(-pivots)) > (best[0], tuple(-best[1])):
            best = (rank, pivots)
            residue, modulus = None, 1  # restart accumulation at the better prime
        if rank < best[0] or not np.array_equal(pivots, best[1]):
            continue  # unlucky prime, skip it
        free = np.delete(np.arange(ncols), pivots)
        if rank == ncols:
            return Kernel(rank, np.zeros((ncols, 0), dtype=np.int64), 1, pivots, free)
        # kernel residues mod p from the reduced rows
        kp = np.zeros((ncols, free.size), dtype=np.int64)
        kp[free, np.arange(free.size)] = 1
        kp[pivots] = (-red[:rank, free]) % p
        if residue is None:
            residue, modulus = kp, p
        else:
            # CRT in Python ints (modulus * t overflows int64); the sum
            # stays below modulus * p since 0 <= residue < modulus, 0 <= t < p
            residue = residue.astype(object)
            t = (kp - residue) % p * pow(modulus % p, -1, p) % p
            residue = residue + modulus * t
            modulus *= p
        lifted = _lift_matrix(residue, modulus)
        if lifted is not None and not int_matmul(a, lifted[0]).any():
            return Kernel(best[0], *lifted, pivots, free)
    raise RankCertificateError("kernel reconstruction did not converge")


def _lift_matrix(residue, modulus):
    """(L K, L) for the rational lift K of a matrix of residues mod m, with L
    the least common denominator of K's entries, or None when an entry has
    no lift.  A residue whose centered value c has |c| <= sqrt(m/2) lifts to
    c itself (the lift within those bounds is unique, so Wang's algorithm
    returns c too); those are taken in one pass, and only the rest go through
    ``rational_reconstruction``, up to the first with no lift.  Every
    numerator is at most sqrt(m/2) in size, so L K is int64 when L sqrt(m/2)
    is below 2**62, and Python ints otherwise."""
    half = modulus // 2
    bound = isqrt(half)
    lk = np.where(residue > half, residue - modulus, residue)
    far = np.nonzero(np.abs(lk) > bound)
    dens = np.empty(far[0].size, dtype=np.int64 if bound < _INT64_SAFE else object)
    scale = 1
    for k, idx in enumerate(zip(*far)):
        lift = rational_reconstruction(int(residue[idx]), modulus)
        if lift is None:
            return None
        lk[idx], dens[k] = lift
        scale = lcm(scale, lift[1])
    lk = lk.astype(np.int64 if scale * bound < _INT64_SAFE else object, copy=False)
    if scale > 1:
        lk *= scale
        lk[far] //= dens  # exact: each denominator divides L
    return lk, scale


def independent_columns(mat, rank: int) -> np.ndarray:
    """Indices of ``rank`` columns of an integer matrix that span its column
    space over Q, given its exact rank: the pivot columns mod the first prime
    of PRIMES whose rank mod p reaches ``rank``.  Columns independent mod p
    are independent over Q, and ``rank`` independent columns span.
    RankCertificateError when a rank mod p exceeds ``rank``, which is then
    not the rank, or when every prime falls short of it."""
    a = _integer_array(mat)
    for p in PRIMES:
        _, _, r, pivots = _reduce(a, p)
        if r > rank:
            raise RankCertificateError(f"rank mod {p} is {r}, above the claimed rank {rank}")
        if r == rank:
            return pivots
    raise RankCertificateError(f"no prime reaches the rank {rank}")


def rank_exact(mat) -> int:
    """Exact rank.  One prime certifies full rank, as the rank mod p is a
    lower bound; otherwise the verified kernel of ``kernel_exact`` certifies
    it, starting from the same reduction mod the first prime.  ValueError
    unless the input is an integer matrix (``_integer_array``)."""
    a = _integer_array(mat)
    if 0 in a.shape:
        return 0
    first = _reduce(a, PRIMES[0])
    if first[2] == min(a.shape):
        return first[2]
    rest = (_reduce(a, p) for p in PRIMES[1:])
    return _lift_kernel(a, itertools.chain([first], rest))[0]


def is_surjective(mat) -> bool:
    """Whether the matrix has full row rank (one prime certifies 'yes')."""
    a = _integer_array(mat)
    return rank_exact(a) == a.shape[0]
