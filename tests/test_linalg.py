import io
from fractions import Fraction

import numpy as np
import pytest

from delta2n.linalg import (
    PRIMES,
    SparseRationalMatrix,
    int_matmul,
    is_surjective,
    kernel_exact,
    rank_exact,
    rank_modp,
    rational_reconstruction,
    rref_exact,
)

sympy = pytest.importorskip("sympy")


def _random_rank(rng, rows, cols, rank, lo=-4, hi=5):
    u = rng.integers(lo, hi, size=(rows, rank))
    v = rng.integers(lo, hi, size=(rank, cols))
    return (u @ v).astype(np.int64)


def _sympy_rank(a):
    return sympy.Matrix(np.asarray(a, dtype=object).tolist()).rank()


def test_sparse_roundtrip():
    m = SparseRationalMatrix(3, 4)
    m[0, 1] = Fraction(2, 3)
    m[2, 0] = -5
    m[1, 3] = Fraction(-7, 11)
    buf = io.StringIO()
    m.write(buf)
    buf.seek(0)
    back = SparseRationalMatrix.read(buf)
    assert back == m
    assert back.shape == (3, 4) and back.nnz == 3


def test_sparse_header_format():
    m = SparseRationalMatrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    buf = io.StringIO()
    m.write(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1] == "0 0 1/1"
    assert lines[2] == "1 1 1/2"


def test_sparse_setitem_drops_zero():
    m = SparseRationalMatrix(2, 2, {(0, 0): 3})
    m[0, 0] = 0
    assert m.is_zero()
    with pytest.raises(IndexError):
        m[5, 0] = 1


def test_sparse_matmul_matches_dense():
    rng = np.random.default_rng(1)
    a = rng.integers(-3, 4, size=(4, 5))
    b = rng.integers(-3, 4, size=(5, 3))
    sa = SparseRationalMatrix.from_dense(a)
    sb = SparseRationalMatrix.from_dense(b)
    assert np.array_equal(sa.matmul(sb).to_object(), (a @ b).astype(object))


def test_sparse_dot_dense():
    rng = np.random.default_rng(2)
    a = rng.integers(-3, 4, size=(4, 6))
    x = rng.integers(-9, 10, size=(6, 2)).astype(object)
    sa = SparseRationalMatrix.from_dense(a)
    assert np.array_equal(sa.dot_dense(x), a.astype(object) @ x)


def test_sparse_to_int64_rejects_fractions():
    m = SparseRationalMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        m.to_int64()


def test_sparse_transpose():
    m = SparseRationalMatrix(2, 3, {(0, 2): 7, (1, 0): Fraction(1, 3)})
    t = m.transpose()
    assert t.shape == (3, 2)
    assert t[2, 0] == 7 and t[0, 1] == Fraction(1, 3)


def test_rref_exact_rank_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(rows, cols) + 1))
        a = _random_rank(rng, rows, cols, r) if r else np.zeros((rows, cols), np.int64)
        rank, pivots, reduced = rref_exact(a)
        assert rank == _sympy_rank(a)
        want, want_pivots = sympy.Matrix(a.tolist()).rref()
        assert tuple(pivots) == want_pivots
        want_rows = [[Fraction(int(v.p), int(v.q)) for v in want.row(i)] for i in range(rank)]
        assert reduced == want_rows


def test_rref_exact_rank_fractions():
    m = SparseRationalMatrix(2, 3)
    m[0, 0] = Fraction(1, 2)
    m[0, 1] = Fraction(1, 3)
    m[1, 0] = Fraction(3, 2)
    m[1, 1] = 1
    # second row is three times the first
    assert rref_exact(m.to_object())[0] == 1


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
    m = SparseRationalMatrix(3, 4)
    m[0, 0] = 1
    m[0, 3] = -2
    m[1, 1] = 1
    m[1, 3] = 5
    rank, kern, _, free = kernel_exact(m)
    assert rank == 2 and kern.shape == (4, 2)
    assert m.dot_dense(kern).tolist() == [[0, 0], [0, 0], [0, 0]]


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

