"""Exact linear algebra over the integers: a sparse integer matrix type for
the boundaries, and one certified elimination core.

Every exact result rests on ``kernels.rref_modp``, row reduction modulo
word-sized primes, whose rank is a lower bound on the rank over Q.
``kernel_exact`` glues the kernel residues with CRT, lifts them to rationals
and verifies the lifted kernel exactly in integers, which gives the matching
upper bound.  ``rank_exact`` is a thin layer over it (one prime certifies full
rank), and ``solve_exact``, which only ``d25_analysis`` uses, another.
``independent_columns`` needs no kernel: its caller supplies the exact rank.
Inputs must be integer matrices: a non-integer entry raises ValueError.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .kernels import rref_modp

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


class RankCertificateError(RuntimeError):
    """Raised when the modular/exact certification loop cannot close."""


class InternalConsistencyError(RuntimeError):
    """A structural identity failed: points at an enumeration or sign bug."""


class SparseIntMatrix:
    """Sparse integer matrix held as one read-only int64 array ``coords`` of
    shape (3, nnz): the row, column and value of each nonzero entry, sorted
    row-major, each cell at most once."""

    def __init__(self, rows: int, cols: int):
        """The zero matrix of this shape; ``from_terms`` and ``from_coords``
        build the others."""
        self._set(rows, cols, np.zeros((3, 0), dtype=np.int64))

    def _set(self, rows, cols, coords):
        self.rows, self.cols = rows, cols
        self.coords = coords.view()  # read-only here, whoever else holds the data
        self.coords.setflags(write=False)

    @classmethod
    def from_terms(cls, rows: int, cols: int, r, c, v) -> "SparseIntMatrix":
        """The sum of the terms v[k] at the cells (r[k], c[k]), in any order
        and repeats allowed; ValueError for a cell outside the shape or an
        array that does not hold integers.  The sums are taken in int64: the
        caller bounds them below 2**63."""
        mat = cls.__new__(cls)
        mat._set(rows, cols, _cell_sums(rows, cols, r, c, v))
        return mat

    @classmethod
    def from_coords(cls, rows: int, cols: int, coords) -> "SparseIntMatrix":
        """From an array already in the layout of ``coords``; ValueError for
        anything else (another dtype, rank or shape, a cell out of range,
        out of order or repeated, a zero value): a foreign or damaged array
        is rejected, never repaired."""
        coords = np.asarray(coords)
        if coords.dtype != np.int64 or coords.ndim != 2 or coords.shape[0] != 3:
            raise ValueError(f"not an int64 array of shape (3, nnz): {coords.dtype} {coords.shape}")
        r, c, v = coords
        _check_range(rows, cols, r, c)
        if np.any(r[1:] * cols + c[1:] <= r[:-1] * cols + c[:-1]):
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
        meets other's row j, a contiguous run of other's entries, and the
        terms of each cell are summed in int64.  A cell gets at most as many
        terms as self's row and other's column have entries, so the product
        runs only when max|a| * max|b| times the fewer of those is below
        2**62; OverflowError otherwise, before any product is formed."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        (ar, ac, av), (br, bc, bv) = self.coords, other.coords
        if not (av.size and bv.size):
            return SparseIntMatrix(self.rows, other.cols)
        terms = min(np.bincount(ar).max(), np.bincount(bc).max())
        bound = _max_abs(av) * _max_abs(bv) * int(terms)
        if bound >= _INT64_SAFE:
            raise OverflowError(f"a sum of products may reach {bound}, beyond int64")
        start = np.searchsorted(br, ac)
        count = np.searchsorted(br, ac, side="right") - start
        left = np.repeat(np.arange(av.size), count)
        # index into other of each term: its run's start plus its place in the run
        right = np.arange(left.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return SparseIntMatrix.from_terms(
            self.rows, other.cols, ar[left], bc[right], av[left] * bv[right]
        )

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
    ``SparseIntMatrix.coords``."""
    r, c, v = (_int64(x) for x in (r, c, v))
    _check_range(rows, cols, r, c)
    if not v.size:
        return np.stack([r, c, v])
    cell = r * cols + c
    order = np.argsort(cell)
    cell = cell[order]
    heads = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    sums = np.add.reduceat(v[order], heads)
    keep = sums != 0
    return np.stack([*np.divmod(cell[heads][keep], cols), sums[keep]])


def _int64(a) -> np.ndarray:
    """a as an int64 array; ValueError unless its dtype casts to int64
    exactly (floats, objects and uint64 do not), an empty array excepted."""
    a = np.asarray(a)
    if a.size and not np.can_cast(a.dtype, np.int64):
        raise ValueError(f"not an integer array: {a.dtype}")
    return a.astype(np.int64, copy=False)


def _max_abs(a) -> int:
    return max(int(a.max()), -int(a.min()))


def _as_int(v) -> int:
    """v as a Python int; ValueError unless its value is an integer."""
    try:
        out = int(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{v!r} is not an integer") from exc
    if out != v:
        raise ValueError(f"{v!r} is not an integer")
    return out


def _integer_array(mat) -> np.ndarray:
    """mat as a dense 2-D integer array: int64, or object holding Python ints.
    ValueError for any entry whose value is not an integer, so no certificate
    is ever checked against a truncated copy of the input."""
    if isinstance(mat, SparseIntMatrix):
        return mat.to_int64()
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if np.issubdtype(arr.dtype, np.signedinteger):
        return arr.astype(np.int64, copy=False)
    return np.array([_as_int(v) for v in arr.flat], dtype=object).reshape(arr.shape)


def clear_denominators(m):
    """(L m, L) for an array m of integers and Fractions, with L the lcm of
    the entries' denominators: L m holds Python ints, in m's shape."""
    m = np.asarray(m, dtype=object)
    scale = lcm(*(v.denominator for v in m.flat))
    cleared = [v.numerator * (scale // v.denominator) for v in m.flat]
    return np.array(cleared, dtype=object).reshape(m.shape), scale


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """An integer array reduced mod p, as a fresh int64 array."""
    return np.mod(a, p).astype(np.int64)


# |entries| and partial sums below this fit int64 with room for a sign
_INT64_SAFE = 1 << 62
# every integer of absolute value up to this is a float64
_FLOAT64_EXACT = 1 << 53


def _product_dtype(a, b):
    """The dtype ``int_matmul`` multiplies a and b in: float64 when the bound
    max|a| * max|b| * (inner dimension) on every partial sum is below 2**53,
    so each product and each partial sum is an integer that float64 holds
    exactly whatever order BLAS adds in; int64 when it is below 2**62; Python
    ints (object) otherwise."""
    bound = max(a.shape[1], 1)
    for m in (a, b):
        bound *= max(_max_abs(m) if m.size else 0, 1)
    if bound < _FLOAT64_EXACT:
        return np.float64
    if bound < _INT64_SAFE:
        return np.int64
    return object


def int_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices, in the narrowest of float64 (on
    BLAS), int64 and Python ints that ``_product_dtype`` proves exact before
    anything is multiplied.  The result is int64 unless it was taken in
    Python ints."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = _product_dtype(a, b)
    out = a.astype(dtype) @ b.astype(dtype)
    return out if dtype is object else out.astype(np.int64, copy=False)


def rank_modp(mat, p: int) -> int:
    r, _ = rref_modp(_residues(_integer_array(mat), p), p)
    return r


def rational_reconstruction(a: int, m: int):
    """Wang's half-gcd lift of a residue to n/d with |n|, d <= sqrt(m/2)."""
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
    return Fraction(num, den)


def _crt_pair(x1: int, m1: int, x2: int, m2: int):
    """Combine x mod m1 and x mod m2 (coprime moduli)."""
    inv = pow(m1 % m2, -1, m2)
    t = (x2 - x1) % m2 * inv % m2
    return (x1 + m1 * t) % (m1 * m2), m1 * m2


def _reduce(a: np.ndarray, p: int):
    """(p, the RREF of a mod p, its rank, its pivot columns)."""
    red = _residues(a, p)
    return (p, red, *rref_modp(red, p))


def kernel_exact(mat):
    """Certified exact right kernel of an integer matrix.

    Returns (rank, kernel, pivots, free) where kernel is a cols x nullity
    rational array (Python ints and Fractions) in reduced echelon shape:
    kernel[free[j], i] is 1 when i == j and 0 otherwise, so rows at the free
    columns form an identity.  The rank is exact: mod-p rank is a lower
    bound, and the verified kernel certifies the nullity from above.  The
    pivots are exact too: they are independent mod p, hence over Q, and the
    verified kernel writes each free column as a combination of earlier pivot
    columns.  ValueError for any non-integer entry.
    """
    a = _integer_array(mat)
    return _lift_kernel(a, (_reduce(a, p) for p in PRIMES))


def _lift_kernel(a, reductions):
    """``kernel_exact`` of the integer array a, from its reductions
    ``_reduce(a, p)`` over the primes in order, taken one at a time until the
    lifted kernel verifies."""
    nrows, ncols = a.shape
    if ncols == 0 or nrows == 0:
        free = np.arange(ncols)
        kern = np.zeros((ncols, ncols), dtype=object)
        for j in range(ncols):
            kern[j, j] = Fraction(1)
        return 0, kern, np.empty(0, dtype=np.int64), free

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
        if rank == ncols:
            return rank, np.zeros((ncols, 0), dtype=object), pivots, np.empty(0, dtype=np.int64)
        free = np.delete(np.arange(ncols), pivots)
        # kernel residues mod p from the reduced rows
        kp = np.zeros((ncols, free.size), dtype=np.int64)
        kp[free, np.arange(free.size)] = 1
        kp[pivots] = (-red[:rank, free]) % p
        if residue is None:
            residue, modulus = kp, p
        else:
            residue = residue.astype(object)
            for r in range(ncols):
                for c in range(free.size):
                    residue[r, c], _ = _crt_pair(
                        int(residue[r, c]), modulus, int(kp[r, c]), p
                    )
            modulus *= p
        lifted = _lift_matrix(residue, modulus)
        if lifted is None:
            continue
        if _verify_kernel(a, lifted):
            return best[0], lifted, pivots, free
    raise RankCertificateError("kernel reconstruction did not converge")


def _lift_matrix(residue, modulus):
    """Rational lifts of a matrix of residues mod m, or None when an entry has
    none.  A residue whose centered value c has |c| <= sqrt(m/2) lifts to c
    itself (the lift within those bounds is unique, so Wang's algorithm
    returns c too); those are taken in one pass, and only the rest go through
    ``rational_reconstruction``.  Entries are Python ints or Fractions."""
    half = modulus // 2
    centered = np.where(residue > half, residue - modulus, residue)
    out = centered.astype(object)
    for idx in zip(*np.nonzero(np.abs(centered) > isqrt(half))):
        v = rational_reconstruction(int(residue[idx]), modulus)
        if v is None:
            return None
        out[idx] = v
    return out


def _verify_kernel(a, kern) -> bool:
    """Whether a @ kern == 0 exactly: each column of kern is scaled by the lcm
    of its denominators, and the product is taken in integers."""
    scaled = np.empty(kern.shape, dtype=object)
    for j in range(kern.shape[1]):
        scaled[:, j], _ = clear_denominators(kern[:, j])
    return not int_matmul(a, scaled).any()


def independent_columns(mat, rank: int) -> np.ndarray:
    """Indices of ``rank`` columns of an integer matrix that span its column
    space over Q, given its exact rank: the pivot columns mod the first prime
    of PRIMES whose rank mod p reaches ``rank``.  Columns independent mod p
    are independent over Q, and ``rank`` independent columns span.
    RankCertificateError when a rank mod p exceeds ``rank``, which is then
    not the rank, or when every prime falls short of it."""
    a = _integer_array(mat)
    for p in PRIMES:
        r, pivots = rref_modp(_residues(a, p), p)
        if r > rank:
            raise RankCertificateError(f"rank mod {p} is {r}, above the claimed rank {rank}")
        if r == rank:
            return pivots
    raise RankCertificateError(f"no prime reaches the rank {rank}")


def solve_exact(a, b) -> np.ndarray:
    """The exact X with a[rows] @ X = b[rows], as a rational array, for an
    integer matrix a of full column rank.  rows are the pivot columns of a^T
    mod PRIMES[0]: a[rows] is invertible mod p, so its determinant is a
    nonzero integer.  X is the top block of the verified kernel [X; I] of
    [a[rows] | -b[rows]].  The other rows of a @ X = b are the caller's to
    check; ValueError when a has no invertible row block mod p.
    """
    a, b = _integer_array(a), _integer_array(b)
    width = a.shape[1]
    rank, rows = rref_modp(_residues(a.T, PRIMES[0]), PRIMES[0])
    if rank < width:
        raise ValueError("no row block of the matrix is invertible mod p")
    _, kern, _, _ = kernel_exact(np.hstack([a[rows].astype(object), -b[rows].astype(object)]))
    return kern[:width]


def rank_exact(mat) -> int:
    """Exact rank.  One prime certifies full rank, as the rank mod p is a
    lower bound; otherwise the verified kernel of ``kernel_exact`` certifies
    it, starting from the same reduction mod the first prime.  ValueError
    for any non-integer entry."""
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
