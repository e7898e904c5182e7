"""Exact linear algebra: sparse rational matrices, small exact and modular
rank computations, and certified integer kernels.

Large kernels are found modulo several word-sized primes, glued with CRT,
lifted to rationals, and then verified exactly, so every returned rank comes
with a proof: the modular rank is a lower bound and the verified kernel gives
the matching upper bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

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


class SparseRationalMatrix:
    """Dict-of-entries sparse matrix over Q with a plain text triplet format."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.data: dict = {}
        if entries:
            for (r, c), v in dict(entries).items():
                self[r, c] = v

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return len(self.data)

    def __getitem__(self, key):
        return self.data.get(key, Fraction(0))

    def __setitem__(self, key, value):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(key)
        v = Fraction(value)
        if v:
            self.data[r, c] = v
        else:
            self.data.pop(key, None)

    def __eq__(self, other):
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def is_zero(self):
        return not self.data

    def entries(self):
        return self.data.items()

    def columns(self):
        """Column-major view: {col: [(row, value), ...]}."""
        out: dict = {}
        for (r, c), v in self.data.items():
            out.setdefault(c, []).append((r, v))
        return out

    def transpose(self):
        t = SparseRationalMatrix(self.cols, self.rows)
        for (r, c), v in self.data.items():
            t.data[c, r] = v
        return t

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = SparseRationalMatrix(self.rows, other.cols)
        mine = self.columns()
        acc: dict = {}
        for (k, c), v in other.data.items():
            col = mine.get(k)
            if not col:
                continue
            for r, w in col:
                key = (r, c)
                acc[key] = acc.get(key, Fraction(0)) + w * v
        out.data = {k: v for k, v in acc.items() if v}
        return out

    def dot_dense(self, x: np.ndarray) -> np.ndarray:
        """Multiply by a dense object-dtype matrix of ints/Fractions."""
        if x.shape[0] != self.cols:
            raise ValueError("shape mismatch")
        out = np.zeros((self.rows,) + x.shape[1:], dtype=object)
        for (r, c), v in self.data.items():
            out[r] += v * x[c]
        return out

    def to_int64(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for (r, c), v in self.data.items():
            if v.denominator != 1:
                raise ValueError("matrix has non-integer entries")
            out[r, c] = int(v)
        return out

    def to_object(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=object)
        for (r, c), v in self.data.items():
            out[r, c] = int(v) if v.denominator == 1 else v
        return out

    def write(self, fh) -> None:
        fh.write(f"{self.rows} {self.cols} {self.nnz}\n")
        for (r, c) in sorted(self.data):
            v = self.data[r, c]
            fh.write(f"{r} {c} {v.numerator}/{v.denominator}\n")

    @classmethod
    def read(cls, fh) -> "SparseRationalMatrix":
        """Parse the format `write` emits; ValueError for any malformed file."""
        head = fh.readline().split()
        if len(head) != 3:
            raise ValueError("bad matrix header")
        rows, cols, nnz = map(int, head)
        m = cls(rows, cols)
        for _ in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValueError("truncated matrix data")
            try:
                r, c = int(parts[0]), int(parts[1])
                num, den = parts[2].split("/")
                m[r, c] = Fraction(int(num), int(den))
            except (IndexError, ZeroDivisionError) as exc:
                raise ValueError(f"bad matrix entry {parts!r}") from exc
        return m

    @classmethod
    def from_dense(cls, arr) -> "SparseRationalMatrix":
        arr = np.asarray(arr, dtype=object)
        m = cls(arr.shape[0], arr.shape[1])
        for r in range(arr.shape[0]):
            for c in range(arr.shape[1]):
                if arr[r, c]:
                    m.data[r, c] = Fraction(arr[r, c])
        return m


def rref_exact(rows):
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    ``rows`` is a 2-D array or a list of equal-length rows of ints or
    Fractions; numpy integers are widened to Python ints first.
    Returns (rank, pivot_cols, reduced): ``reduced`` holds the ``rank``
    nonzero rows of the RREF as Fraction lists, with a 1 at
    ``reduced[i][pivot_cols[i]]`` and zeros elsewhere in the pivot columns.
    Meant for small matrices: rows are dense Fraction lists, and zero
    multipliers and zero pivot-row entries are skipped.
    """
    dense = np.asarray(rows, dtype=object).tolist()
    work = [[Fraction(v) for v in row] for row in dense]
    ncols = len(work[0]) if work else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        pr = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        inv = 1 / work[rank][col]
        prow = [v * inv if v else v for v in work[rank]]
        work[rank] = prow
        support = [j for j, v in enumerate(prow) if v]
        for r, row in enumerate(work):
            f = row[col]
            if f and r != rank:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(col)
    return len(pivots), pivots, work[: len(pivots)]


# |entries| and partial sums below this fit int64 with room for a sign
_INT64_SAFE = 1 << 62


def int_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices: in int64 when max|a| * max|b| *
    (inner dimension), a bound on every partial sum, is below 2**62, else in
    Python ints.  Nothing can overflow."""
    a, b = np.asarray(a), np.asarray(b)
    bound = max(a.shape[1], 1)
    for m in (a, b):
        bound *= max(int(np.abs(m).max()) if m.size else 0, 1)
    if bound < _INT64_SAFE:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def rank_modp(mat, p: int) -> int:
    a = _as_int64_modp(mat, p)
    r, _ = rref_modp(a, p)
    return r


def _as_int64_modp(mat, p: int) -> np.ndarray:
    if isinstance(mat, SparseRationalMatrix):
        a = np.zeros((mat.rows, mat.cols), dtype=np.int64)
        for (r, c), v in mat.entries():
            if v.denominator % p == 0:
                raise ValueError("denominator not invertible mod p")
            a[r, c] = v.numerator * pow(v.denominator, -1, p) % p
        return a
    arr = np.asarray(mat)
    if arr.dtype == object:
        return np.array([[int(v) % p for v in row] for row in arr], dtype=np.int64)
    return arr.astype(np.int64) % p


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


def _sparse_rows(mat):
    """Rows of an integer matrix as (col, value) lists, for cheap exact products."""
    if isinstance(mat, SparseRationalMatrix):
        rows = [[] for _ in range(mat.rows)]
        for (r, c), v in mat.entries():
            rows[r].append((c, int(v)))
        return rows
    arr = np.asarray(mat)
    rows = []
    for r in range(arr.shape[0]):
        nz = [(int(c), int(arr[r, c])) for c in np.nonzero(arr[r])[0]]
        rows.append(nz)
    return rows


def kernel_exact(mat, max_primes: int = len(PRIMES)):
    """Certified exact right kernel of an integer matrix.

    Returns (rank, kernel, pivots, free) where kernel is a cols x nullity
    Fraction array in reduced echelon shape: kernel[free[j], i] is 1 when
    i == j and 0 otherwise, so rows at the free columns form an identity.
    The rank is exact: mod-p rank is a lower bound, and the verified kernel
    certifies the nullity from above.
    """
    if isinstance(mat, SparseRationalMatrix):
        nrows, ncols = mat.shape
    else:
        mat = np.asarray(mat)
        nrows, ncols = mat.shape
    if ncols == 0 or nrows == 0:
        free = np.arange(ncols)
        kern = np.zeros((ncols, ncols), dtype=object)
        for j in range(ncols):
            kern[j, j] = Fraction(1)
        return 0, kern, np.empty(0, dtype=np.int64), free

    best = None  # (rank, pivots)
    residue = None
    modulus = 1
    for p in PRIMES[:max_primes]:
        a = _as_int64_modp(mat, p)
        rank, pivots = rref_modp(a, p)
        if best is None or rank > best[0]:
            best = (rank, pivots)
            residue, modulus = None, 1  # restart accumulation at the higher rank
        if rank < best[0] or not np.array_equal(pivots, best[1]):
            continue  # unlucky prime, skip it
        if rank == ncols:
            return rank, np.zeros((ncols, 0), dtype=object), pivots, np.empty(0, dtype=np.int64)
        free = np.setdiff1d(np.arange(ncols), pivots)
        # kernel residues mod p from the reduced rows
        kp = np.zeros((ncols, free.size), dtype=np.int64)
        for j, f in enumerate(free):
            kp[f, j] = 1
            for i in range(rank):
                kp[pivots[i], j] = (-a[i, f]) % p
        if residue is None:
            residue = kp.astype(object)
            modulus = p
        else:
            for r in range(ncols):
                for c in range(free.size):
                    residue[r, c], _ = _crt_pair(
                        int(residue[r, c]), modulus, int(kp[r, c]), p
                    )
            modulus *= p
        lifted = _lift_matrix(residue, modulus)
        if lifted is None:
            continue
        if _verify_kernel(mat, lifted, nrows):
            return best[0], lifted, pivots, free
    raise RankCertificateError("kernel reconstruction did not converge")


def _lift_matrix(residue, modulus):
    out = np.empty(residue.shape, dtype=object)
    for r in range(residue.shape[0]):
        for c in range(residue.shape[1]):
            v = rational_reconstruction(int(residue[r, c]), modulus)
            if v is None:
                return None
            out[r, c] = v
    return out


def _verify_kernel(mat, kern, nrows) -> bool:
    rows = _sparse_rows(mat)
    width = kern.shape[1]
    for r in range(nrows):
        acc = [Fraction(0)] * width
        for c, v in rows[r]:
            kr = kern[c]
            for j in range(width):
                if kr[j]:
                    acc[j] += v * kr[j]
        if any(acc):
            return False
    return True


_SMALL_LIMIT = 48


def rank_exact(mat) -> int:
    """Exact rank.  Small matrices use exact Gauss-Jordan elimination
    cross-checked against two primes; large ones use the certified modular
    kernel."""
    if isinstance(mat, SparseRationalMatrix):
        nrows, ncols = mat.shape
    else:
        mat = np.asarray(mat)
        nrows, ncols = mat.shape
    if nrows == 0 or ncols == 0:
        return 0
    if min(nrows, ncols) <= _SMALL_LIMIT and nrows * ncols <= 20000:
        dense = mat.to_object() if isinstance(mat, SparseRationalMatrix) else mat
        r, _, _ = rref_exact(dense)
        for p in PRIMES[:2]:
            rp = rank_modp(mat, p)
            if rp != r:
                raise RankCertificateError("modular cross-check disagrees with exact rank")
        return r
    r = max(rank_modp(mat, p) for p in PRIMES[:2])
    if r == min(nrows, ncols):
        return r  # full rank is certified by a single prime already
    rank, _, _, _ = kernel_exact(mat)
    return rank


def is_surjective(mat) -> bool:
    """Whether the matrix has full row rank (one prime certifies 'yes')."""
    if isinstance(mat, SparseRationalMatrix):
        nrows = mat.rows
    else:
        mat = np.asarray(mat)
        nrows = mat.shape[0]
    if nrows == 0:
        return True
    if rank_modp(mat, PRIMES[0]) == nrows:
        return True
    return rank_exact(mat) == nrows
