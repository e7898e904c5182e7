import io
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from delta2n.linalg import (
    PRIMES,
    RankCertificateError,
    SparseIntMatrix,
    _lift_matrix,
    _product_dtype,
    independent_columns,
    int_matmul,
    is_surjective,
    kernel_exact,
    rank_exact,
    rank_modp,
    rational_reconstruction,
    solve_exact,
)

sympy = pytest.importorskip("sympy")


def _random_rank(rng, rows, cols, rank, lo=-4, hi=5):
    u = rng.integers(lo, hi, size=(rows, rank))
    v = rng.integers(lo, hi, size=(rank, cols))
    return (u @ v).astype(np.int64)


def _sympy_rank(a):
    return sympy.Matrix(np.asarray(a, dtype=object).tolist()).rank()


def _sparse(a):
    return SparseIntMatrix.from_terms(*a.shape, *np.nonzero(a), a[np.nonzero(a)])


def _matrix(rows, cols, entries):
    """The matrix with the entries {(row, col): value}."""
    r, c = ([cell[i] for cell in entries] for i in (0, 1))
    return SparseIntMatrix.from_terms(rows, cols, r, c, list(entries.values()))


def test_sparse_roundtrip():
    # coords survive the cache's .npy round trip unchanged
    m = _matrix(3, 4, {(0, 1): 2, (2, 0): -5, (1, 3): np.int64(-7)})
    buf = io.BytesIO()
    np.save(buf, m.coords, allow_pickle=False)
    buf.seek(0)
    back = SparseIntMatrix.from_coords(3, 4, np.load(buf, allow_pickle=False))
    assert back == m
    assert back.shape == (3, 4) and back.nnz == 3
    assert all(type(v) is int for _, v in back.entries())


def test_sparse_coords_layout():
    m = _matrix(2, 2, {(1, 1): -2, (0, 0): 1})
    assert m.coords.dtype == np.int64 and m.coords.shape == (3, 2)
    assert m.coords.tolist() == [[0, 1], [0, 1], [1, -2]]  # rows, cols, values
    assert m.entries() == [((0, 0), 1), ((1, 1), -2)]
    with pytest.raises(ValueError):
        m.coords[2, 0] = 5  # read-only: a cached matrix is shared


def test_sparse_constructor_drops_zero():
    assert SparseIntMatrix(2, 2).is_zero() and SparseIntMatrix(2, 2).shape == (2, 2)
    assert SparseIntMatrix.from_terms(2, 2, [0], [0], [0]).is_zero()
    assert SparseIntMatrix.from_terms(2, 2, [0, 1], [0, 0], [3, 0]).entries() == [((0, 0), 3)]
    with pytest.raises(ValueError):
        SparseIntMatrix.from_terms(2, 2, [5], [0], [1])
    with pytest.raises(ValueError):
        SparseIntMatrix.from_terms(2, 2, [0], [-1], [1])


def test_sparse_from_terms_sums_repeated_cells():
    m = SparseIntMatrix.from_terms(2, 3, [1, 0, 1, 1], [2, 1, 2, 0], [4, -1, -4, 7])
    assert m.entries() == [((0, 1), -1), ((1, 0), 7)]


@pytest.mark.parametrize(
    "coords",
    [
        np.array([[0], [0], [1]], dtype=np.int32),  # another dtype
        np.array([[0.0], [0.0], [1.0]]),
        np.array([0, 0, 1], dtype=np.int64),  # another rank
        np.array([[0], [0], [1], [1]], dtype=np.int64),  # another shape
        np.array([[2], [0], [1]], dtype=np.int64),  # row out of range
        np.array([[0], [-1], [1]], dtype=np.int64),  # col out of range
        np.array([[0, 0], [1, 1], [1, 2]], dtype=np.int64),  # repeated cell
        np.array([[1, 0], [0, 1], [1, 2]], dtype=np.int64),  # not row-major
        np.array([[0], [0], [0]], dtype=np.int64),  # zero value
        np.array([[0], [0], [1]], dtype=object),
    ],
)
def test_sparse_from_coords_rejects_foreign_arrays(coords):
    with pytest.raises(ValueError):
        SparseIntMatrix.from_coords(2, 2, coords)


def _dense_product(a, b):
    return int_matmul(a.to_int64(), b.to_int64())


def test_sparse_matmul_matches_dense():
    rng = np.random.default_rng(1)
    a = rng.integers(-3, 4, size=(4, 5))
    b = rng.integers(-3, 4, size=(5, 3))
    assert np.array_equal(_sparse(a).matmul(_sparse(b)).to_int64(), a @ b)


def test_sparse_matmul_matches_int_matmul_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows, inner, cols = (int(x) for x in rng.integers(1, 9, size=3))
        density = rng.uniform(0.1, 0.9)
        a = rng.integers(-9, 10, size=(rows, inner)) * (rng.random((rows, inner)) < density)
        b = rng.integers(-9, 10, size=(inner, cols)) * (rng.random((inner, cols)) < density)
        got = _sparse(a).matmul(_sparse(b))
        assert np.array_equal(got.to_int64(), _dense_product(_sparse(a), _sparse(b)))
        assert got == SparseIntMatrix.from_coords(rows, cols, got.coords)  # canonical layout


def test_sparse_matmul_cancels_to_zero():
    # every cell's terms cancel: no zero is stored
    a = np.array([[1, 1, 0], [2, 0, -2]])
    b = np.array([[1, 3], [-1, -3], [1, 3]])
    prod = _sparse(a).matmul(_sparse(b))
    assert prod.is_zero() and prod.shape == (2, 2)
    assert np.array_equal(prod.to_int64(), a @ b)


@pytest.mark.parametrize("rows,inner,cols", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)])
def test_sparse_matmul_empty_shapes(rows, inner, cols):
    a = _matrix(rows, inner, {(0, 0): 1} if rows and inner else {})
    b = _matrix(inner, cols, {(0, 0): 1} if inner and cols else {})
    prod = a.matmul(b)
    assert prod.shape == (rows, cols) and prod.is_zero()


def test_sparse_matmul_zero_factor():
    a = SparseIntMatrix(2, 3)
    b = _sparse(np.array([[1, 2], [3, 4], [5, 6]]))
    assert a.matmul(b) == SparseIntMatrix(2, 2)
    assert b.matmul(SparseIntMatrix(2, 4)) == SparseIntMatrix(3, 4)


def test_sparse_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 3).matmul(SparseIntMatrix(2, 3))


def test_sparse_matmul_rules_out_overflow_before_multiplying(monkeypatch):
    big = 1 << 40
    a = _matrix(1, 2, {(0, 0): big, (0, 1): -big})
    b = _matrix(2, 1, {(0, 0): big, (1, 0): big})
    edge = _matrix(1, 1, {(0, 0): 1 << 31})

    def no_product(*args):
        raise AssertionError("terms were summed before the overflow check")

    monkeypatch.setattr(SparseIntMatrix, "from_terms", no_product)
    with pytest.raises(OverflowError):
        a.matmul(b)
    # 2**31 * 2**31 * one term reaches 2**62: still refused
    with pytest.raises(OverflowError):
        edge.matmul(edge)
    monkeypatch.undo()
    # just below the bound the product runs, and is exact
    half = 1 << 30
    a = _matrix(1, 2, {(0, 0): half, (0, 1): half})
    b = _matrix(2, 1, {(0, 0): half - 1, (1, 0): half - 1})
    assert a.matmul(b).entries() == [((0, 0), 2 * half * (half - 1))]


def test_sparse_to_int64_rejects_fractions():
    # the matrix holds integers only, so no fraction can reach to_int64:
    # terms must come as an array that casts to int64 exactly
    for value in (Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, 1 << 63, np.uint64(1 << 63)):
        with pytest.raises(ValueError):
            SparseIntMatrix.from_terms(1, 1, [0], [0], [value])
        with pytest.raises(ValueError):
            SparseIntMatrix.from_coords(1, 1, np.array([[0], [0], [value]], dtype=object))
    m = SparseIntMatrix.from_terms(1, 1, [0], [0], np.array([2], dtype=np.int8))
    ((_, v),) = m.entries()
    assert type(v) is int and m.to_int64().tolist() == [[2]]


def test_kernel_exact_pivots_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(rows, cols) + 1))
        a = _random_rank(rng, rows, cols, r) if r else np.zeros((rows, cols), np.int64)
        pivots = kernel_exact(a)[2]
        assert len(pivots) == _sympy_rank(a)
        want, want_pivots = sympy.Matrix(a.tolist()).rref()
        assert tuple(pivots) == want_pivots
        # the kernel is read off the reduced rows: -R[i, f] at pivot i
        rank, kern, _, free = kernel_exact(a)
        for i in range(rank):
            for j, f in enumerate(free):
                v = want[i, int(f)]
                assert kern[pivots[i], j] == -Fraction(int(v.p), int(v.q))


def test_rank_exact_rejects_non_integer_entries():
    # a truncated copy would certify k = (1, 0) as a kernel of [[1/2, 1/2]]
    half = [[Fraction(1, 2), Fraction(1, 2)]]
    with pytest.raises(ValueError):
        kernel_exact(half)
    with pytest.raises(ValueError):
        rank_modp(half, PRIMES[0])
    # second row is three times the first
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    with pytest.raises(ValueError):
        rank_exact(m)
    with pytest.raises(ValueError):
        rank_exact(np.array([[0.5, 1.0]]))
    assert rank_exact([[Fraction(2, 1), 4], [1, 2]]) == 1


def test_rank_exact_single_prime_path_survives_an_unlucky_prime():
    # rank 1 mod PRIMES[0]: the one-prime shortcut fails, kernel_exact's
    # verification rejects the mod-p kernel, and the next prime gives rank 2
    assert rank_exact([[PRIMES[0], 0], [0, 1]]) == 2
    rank, kern, _, _ = kernel_exact([[PRIMES[0], 0], [0, 1]])
    assert rank == 2 and kern.shape == (2, 0)
    # the right rank mod PRIMES[0] but the wrong pivot (1, not 0): a later
    # prime with the lesser pivot must replace it
    assert list(kernel_exact([[PRIMES[0], 1, 1]])[2]) == [0]


def test_independent_columns_needs_the_exact_rank():
    rng = np.random.default_rng(13)
    a = _random_rank(rng, 7, 9, 4)
    cols = independent_columns(a, 4)
    assert len(cols) == 4 and _sympy_rank(a[:, cols]) == 4
    # a claimed rank that no prime reaches, or that one exceeds, is refused
    for wrong in (3, 5):
        with pytest.raises(RankCertificateError):
            independent_columns(a, wrong)


def test_solve_exact_uses_an_invertible_row_block():
    rng = np.random.default_rng(12)
    # the first two rows are zero, so the solve rows must skip them
    a = np.vstack([np.zeros((2, 4), np.int64), _random_rank(rng, 6, 4, 4)])
    x = np.array(
        [[Fraction(int(v), 7) for v in row] for row in rng.integers(-9, 10, size=(4, 3))]
    )
    b = a.astype(object).dot(7 * x)
    assert np.array_equal(solve_exact(7 * a, b), x)
    with pytest.raises(ValueError):
        solve_exact(np.ones((3, 2), np.int64), np.zeros((3, 1), np.int64))


def test_rank_modp_generic():
    rng = np.random.default_rng(4)
    for _ in range(6):
        a = _random_rank(rng, 8, 10, 4)
        assert rank_modp(a, PRIMES[0]) == _sympy_rank(a)


def test_rational_reconstruction_roundtrip():
    m = PRIMES[0] * PRIMES[1] * PRIMES[2]
    for num, den in [(3, 7), (-22, 5), (10**12 + 7, 10**10 + 19), (0, 1)]:
        f = Fraction(num, den)
        residue = f.numerator * pow(f.denominator, -1, m) % m
        assert rational_reconstruction(residue, m) == f


def test_rational_reconstruction_failure():
    # residues of huge fractions cannot be lifted from a single small prime
    assert rational_reconstruction(123456789, 101) is None


def _lift_entrywise(residue, modulus):
    """Reference for _lift_matrix: rational_reconstruction on every entry."""
    out = np.empty(residue.shape, dtype=object)
    for idx in np.ndindex(residue.shape):
        v = rational_reconstruction(int(residue[idx]), modulus)
        if v is None:
            return None
        out[idx] = v
    return out


def _same_lift(got, want):
    if want is None:
        return got is None
    return got is not None and all(Fraction(g) == w for g, w in zip(got.flat, want.flat))


@pytest.mark.parametrize("moduli", [(101,), (PRIMES[0],), PRIMES[:3]])
def test_lift_matrix_matches_entrywise_reconstruction(moduli):
    # the one-pass lift of residues within +-sqrt(m/2) must agree with Wang's
    # algorithm everywhere: on both sides of that threshold, on fractions,
    # and on residues with no lift at all
    rng = np.random.default_rng(17)
    m = 1
    for p in moduli:
        m *= p
    bound = isqrt(m // 2)
    if m < 1000:
        every = np.arange(m, dtype=np.int64).reshape(-1, 1)
        for r in every:
            assert _same_lift(_lift_matrix(r[None], m), _lift_entrywise(r[None], m))
    for _ in range(20):
        shape = tuple(int(k) for k in rng.integers(1, 6, size=2))
        size = shape[0] * shape[1]
        signs = rng.choice([-1, 1], size)
        near = [(bound - 2 + int(k)) * int(s) for k, s in zip(rng.integers(0, 5, size), signs)]
        small = [int(v) for v in rng.integers(-50, 51, size)]
        fracs = []
        for _ in range(size):
            den = int(rng.integers(1, min(bound, 10**6) + 1))
            num = int(rng.integers(-min(bound, 10**6), min(bound, 10**6) + 1))
            fracs.append(num * pow(den, -1, m) % m)
        for values in (near, small, fracs, small[:-1] + fracs[-1:]):
            residue = np.array([v % m for v in values], dtype=object).reshape(shape)
            if m < 1 << 62:
                residue = residue.astype(np.int64)
            assert _same_lift(_lift_matrix(residue, m), _lift_entrywise(residue, m))
    # one residue with no lift makes the whole matrix fail, as it must
    unliftable = next(
        r for r in (int(v) for v in rng.integers(0, min(m, 1 << 62), 1000))
        if rational_reconstruction(r, m) is None
    )
    residue = np.array([[1, unliftable]], dtype=object)
    assert _lift_matrix(residue, m) is None


def test_kernel_exact_basic():
    rng = np.random.default_rng(5)
    a = _random_rank(rng, 8, 12, 5)
    rank, kern, pivots, free = kernel_exact(a)
    assert rank == _sympy_rank(a)
    assert kern.shape == (12, 12 - rank)
    assert sorted(list(pivots) + list(free)) == list(range(12))
    # echelon shape: free rows form the identity
    eye = kern[free]
    for i in range(len(free)):
        for j in range(len(free)):
            assert eye[i, j] == (1 if i == j else 0)
    prod = a.astype(object) @ kern
    assert not prod.any()


def test_kernel_exact_large_entries_force_crt():
    rng = np.random.default_rng(6)
    u = rng.integers(-10**9, 10**9, size=(6, 4)).astype(object)
    v = rng.integers(-10**9, 10**9, size=(4, 9)).astype(object)
    a = u @ v
    rank, kern, _, free = kernel_exact(a)
    assert rank == _sympy_rank(a)
    assert not (a @ kern).any()


def test_kernel_exact_full_rank():
    a = np.diag([1, 2, 3]).astype(np.int64)
    rank, kern, pivots, free = kernel_exact(a)
    assert rank == 3 and kern.shape == (3, 0) and free.size == 0


def test_kernel_exact_zero_matrix():
    a = np.zeros((4, 3), dtype=np.int64)
    rank, kern, pivots, free = kernel_exact(a)
    assert rank == 0 and kern.shape == (3, 3)
    assert np.array_equal(free, np.arange(3))


def test_kernel_exact_sparse_input():
    m = _matrix(3, 4, {(0, 0): 1, (0, 3): -2, (1, 1): 1, (1, 3): 5})
    rank, kern, _, free = kernel_exact(m)
    assert rank == 2 and kern.shape == (4, 2)
    assert m.to_int64().astype(object).dot(kern).tolist() == [[0, 0], [0, 0], [0, 0]]


def test_rank_exact_small_and_large():
    rng = np.random.default_rng(7)
    small = _random_rank(rng, 10, 9, 6)
    assert rank_exact(small) == _sympy_rank(small)
    # rank known by construction: u and v both contain identity blocks
    r = 41
    u = np.vstack([np.eye(r, dtype=np.int64), rng.integers(-2, 3, size=(19, r))])
    v = np.hstack([np.eye(r, dtype=np.int64), rng.integers(-2, 3, size=(r, 29))])
    assert rank_exact(u @ v) == r


def test_rank_exact_full_rank_large():
    rng = np.random.default_rng(8)
    a = np.hstack([np.eye(55, dtype=np.int64), rng.integers(-2, 3, size=(55, 25))])
    assert rank_exact(a) == 55


def test_is_surjective():
    rng = np.random.default_rng(9)
    a = _random_rank(rng, 5, 9, 5)
    assert is_surjective(a)
    b = _random_rank(rng, 6, 9, 4)
    assert not is_surjective(b)
    assert is_surjective(np.zeros((0, 4), dtype=np.int64))


def test_int_matmul_leaves_int64_before_it_could_overflow():
    a = np.array([[2**40, 1], [0, 3]], dtype=np.int64)
    b = np.array([[2**30, 0], [5, 7]], dtype=np.int64)
    big = int_matmul(a, b)
    assert big.dtype == object
    assert big.tolist() == [[2**70 + 5, 7], [15, 21]]
    small = int_matmul(np.eye(2, dtype=np.int64), b.astype(object))
    assert small.dtype == np.int64 and np.array_equal(small, b)
    assert int_matmul(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3))).shape == (2, 3)



def test_int_matmul_takes_float64_only_below_2_53():
    # 2**53 - 1 = 441650591 * 20394401; odd entries near 2**27 have 54-bit
    # products, which float64 rounds, so only an exact path gets them right
    below = np.array([[441650591]]), np.array([[20394401]])
    at = np.array([[1 << 26]]), np.array([[1 << 27]])
    odd = np.array([[(1 << 27) + 1, (1 << 27) + 3]]), np.array([[(1 << 27) - 1], [(1 << 27) - 3]])
    for (a, b), dtype in ((below, np.float64), (at, np.int64), (odd, np.int64)):
        assert _product_dtype(a, b) is dtype
        got = int_matmul(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    a, b = odd
    rounded = (a.astype(np.float64) @ b.astype(np.float64)).astype(object)
    assert rounded.tolist() != (a.astype(object) @ b.astype(object)).tolist()
