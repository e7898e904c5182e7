import io
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest

from delta2n import linalg
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
    signed_sum,
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
    assert m.coords.dtype == np.int16 and m.coords.shape == (3, 2)
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


@pytest.mark.parametrize(
    "top,dtype",
    [(32767, np.int16), (32768, np.int32), ((1 << 31) - 1, np.int32), (1 << 31, np.int64)],
)
def test_sparse_dtype_is_the_narrowest_that_holds_dims_and_values(top, dtype):
    # the bound as a dimension, as a value and as a negative value; the same
    # data in any other width is foreign
    for rows, cols, value in ((top, 1, 1), (1, top, 1), (1, 1, top), (1, 1, -top)):
        m = SparseIntMatrix.from_terms(rows, cols, [rows - 1], [cols - 1], [value])
        assert m.coords.dtype == dtype
        assert m.entries() == [((rows - 1, cols - 1), value)]
        assert SparseIntMatrix.from_coords(rows, cols, m.coords) == m
        for other in {np.int16, np.int32, np.int64} - {dtype}:
            if np.array_equal(m.coords.astype(other), m.coords):
                with pytest.raises(ValueError, match="the rule gives"):
                    SparseIntMatrix.from_coords(rows, cols, m.coords.astype(other))
        zero = dtype if max(rows, cols) == top else np.int16
        assert SparseIntMatrix(rows, cols).coords.dtype == zero


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.int64])
def test_sparse_from_terms_matches_a_dense_sum(dtype):
    # repeated cells with terms of both signs, in the terms' own dtype
    rng = np.random.default_rng(11)
    rows, cols, size = 7, 9, 400
    r, c = rng.integers(0, rows, size), rng.integers(0, cols, size)
    low = 0 if np.dtype(dtype).kind == "u" else -100
    v = rng.integers(low, 101, size).astype(dtype)
    dense = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(dense, (r, c), v.astype(np.int64))
    m = SparseIntMatrix.from_terms(rows, cols, r, c, v)
    assert np.array_equal(m.to_int64(), dense)
    assert m == SparseIntMatrix.from_coords(rows, cols, m.coords)  # canonical layout


def test_sparse_from_terms_refuses_a_sort_key_beyond_2_62():
    # each term is sorted as one int64, its cell key times 2M + 1 plus v + M:
    # 2**20 x 2**20 cells hold terms up to M = 2**20 (2**61 keys), not 2**21
    n = 1 << 20
    m = SparseIntMatrix.from_terms(n, n, [n - 1, 0], [n - 1, 0], [n, -n])
    assert m.entries() == [((0, 0), -n), ((n - 1, n - 1), n)]
    with pytest.raises(OverflowError):
        SparseIntMatrix.from_terms(n, n, [0], [0], [2 * n])


def test_sparse_sums_leaving_int16_are_not_wrapped():
    # int16 terms whose sums leave int16, and cancel to 0 in one cell
    big = np.array([20000, 20000, 30000, -30000], dtype=np.int16)
    m = SparseIntMatrix.from_terms(2, 2, [0, 0, 1, 1], [0, 0, 1, 1], big)
    assert m.entries() == [((0, 0), 40000)] and m.coords.dtype == np.int32


def test_sparse_keys_and_order_beyond_2_31_cells():
    # 50000 x 50000 has 2.5e9 cells: the key r * cols + c of the last ones
    # wraps in int32, and so would row-major order compared by key
    n = 50000
    r, c = [n - 1, 0, 1, 0, n - 1], [n - 1, n - 1, 0, 5, 0]
    m = SparseIntMatrix.from_terms(n, n, r, c, [1, 2, 3, 4, 5])
    assert m.coords.dtype == np.int32
    cells = [(0, 5), (0, n - 1), (1, 0), (n - 1, 0), (n - 1, n - 1)]
    assert m.entries() == list(zip(cells, [4, 2, 3, 5, 1]))
    assert SparseIntMatrix.from_coords(n, n, m.coords) == m
    swapped = m.coords[:, [0, 1, 3, 2, 4]]
    with pytest.raises(ValueError, match="row-major"):
        SparseIntMatrix.from_coords(n, n, swapped)
    prod = m.matmul(m)  # keys of the product's cells beyond 2**31 as well
    dense = {}
    for (i, j), a in m.entries():
        for (k, l), b in m.entries():
            if j == k:
                dense[i, l] = dense.get((i, l), 0) + a * b
    assert prod.entries() == sorted((cell, v) for cell, v in dense.items() if v)


def test_sparse_matmul_products_leaving_int16():
    # int16 coords whose pairwise products (up to 200 * 200) and sums leave
    # int16, checked against the dense product
    rng = np.random.default_rng(7)
    a = rng.integers(-200, 201, size=(200, 200)) * (rng.random((200, 200)) < 0.5)
    b = rng.integers(-200, 201, size=(200, 200)) * (rng.random((200, 200)) < 0.5)
    a[0, 0] = b[0, 0] = 200
    sa, sb = _sparse(a), _sparse(b)
    assert sa.coords.dtype == sb.coords.dtype == np.int16
    prod = sa.matmul(sb)
    assert prod.coords.dtype == np.int32
    assert np.array_equal(prod.to_int64(), a @ b)


def _dense_product(a, b):
    return int_matmul(a.to_int64(), b.to_int64())


def test_sparse_matmul_matches_dense():
    rng = np.random.default_rng(1)
    a = rng.integers(-3, 4, size=(4, 5))
    b = rng.integers(-3, 4, size=(5, 3))
    assert np.array_equal(_sparse(a).matmul(_sparse(b)).to_int64(), a @ b)


def test_sparse_matmul_matches_int_matmul_on_random_matrices(monkeypatch):
    # each case also summed 1, 2 and 3 terms at a time, so that the chunks
    # cut between most rows and through none
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows, inner, cols = (int(x) for x in rng.integers(1, 9, size=3))
        density = rng.uniform(0.1, 0.9)
        a = rng.integers(-9, 10, size=(rows, inner)) * (rng.random((rows, inner)) < density)
        b = rng.integers(-9, 10, size=(inner, cols)) * (rng.random((inner, cols)) < density)
        for chunk in (linalg._PRODUCT_CHUNK, 1, 2, 3):
            monkeypatch.setattr(linalg, "_PRODUCT_CHUNK", chunk)
            got = _sparse(a).matmul(_sparse(b))
            assert np.array_equal(got.to_int64(), _dense_product(_sparse(a), _sparse(b)))
            assert got == SparseIntMatrix.from_coords(rows, cols, got.coords)  # canonical layout
            monkeypatch.undo()


def _recording_cell_sums(monkeypatch):
    """Patch the product's summing routine to record the rows of each chunk."""
    calls, real = [], linalg._cell_sums

    def record(rows, cols, r, c, v):
        calls.append(sorted(set(np.asarray(r).tolist())))
        return real(rows, cols, r, c, v)

    monkeypatch.setattr(linalg, "_cell_sums", record)
    return calls


def test_sparse_matmul_keeps_a_long_row_in_one_chunk(monkeypatch):
    # row 1 of a meets all of b: 3 * 4 = 12 terms, four times the chunk
    a = np.array([[1, 0, 0], [2, -1, 3], [0, 0, 4]])
    b = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [-1, 0, 1, 2]])
    sa, sb = _sparse(a), _sparse(b)
    monkeypatch.setattr(linalg, "_PRODUCT_CHUNK", 3)
    calls = _recording_cell_sums(monkeypatch)
    prod = sa.matmul(sb)
    assert np.array_equal(prod.to_int64(), a @ b)
    assert calls == [[0], [1], [2]]  # whole rows, the long one alone


def test_sparse_matmul_cancels_in_one_chunk_only(monkeypatch):
    # row 0's terms cancel in the first chunk; row 1's do not in the second
    sa, sb = _sparse(np.array([[1, 1], [1, 2]])), _sparse(np.array([[1], [-1]]))
    monkeypatch.setattr(linalg, "_PRODUCT_CHUNK", 2)
    calls = _recording_cell_sums(monkeypatch)
    prod = sa.matmul(sb)
    assert calls == [[0], [1]]
    assert prod.entries() == [((1, 0), -1)]
    assert prod == SparseIntMatrix.from_coords(2, 1, prod.coords)  # canonical layout


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

    # the routine that matmul sums each chunk's terms through
    monkeypatch.setattr(linalg, "_cell_sums", no_product)
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
        rank, lk, scale, pivots, free = kernel_exact(a)
        assert len(pivots) == _sympy_rank(a)
        want, want_pivots = sympy.Matrix(a.tolist()).rref()
        assert tuple(pivots) == want_pivots
        # the kernel is read off the reduced rows: -R[i, f] at pivot i
        for i in range(rank):
            for j, f in enumerate(free):
                v = want[i, int(f)]
                assert Fraction(int(lk[pivots[i], j]), scale) == -Fraction(int(v.p), int(v.q))


def test_kernel_exact_returns_the_kernel_cleared_of_its_denominators():
    # K = [[-3/2, 0], [1, 0], [0, 1]] has least common denominator 2
    rank, lk, scale, pivots, free = kernel_exact([[2, 3, 0]])
    assert (rank, scale, pivots.tolist(), free.tolist()) == (1, 2, [0], [1, 2])
    assert lk.tolist() == [[-3, 0], [2, 0], [0, 2]]
    # a kernel that lifts from one prime with L = 1 comes back as int64
    rank, lk, scale, _, _ = kernel_exact([[1, -2, 0], [0, 0, 1]])
    assert (rank, scale, lk.dtype) == (2, 1, np.int64)
    assert lk.tolist() == [[2], [1], [0]]


def test_a_bad_lift_is_never_returned(shifted_lifts):
    # rank 1: the shifted kernel fails a @ (L K) == 0 at every prime
    a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    with pytest.raises(RankCertificateError):
        kernel_exact(a)
    assert len(shifted_lifts) == len(PRIMES)
    with pytest.raises(RankCertificateError):
        rank_exact(a)
    # full column rank needs no lift, so nothing there is shifted
    assert kernel_exact(np.eye(2, dtype=np.int64))[0] == 2


def test_exact_layer_takes_integer_arrays_only():
    # an object array, a Fraction list or a float array is refused before
    # any elimination, integer-valued or not: a truncated copy would certify
    # k = (1, 0) as a kernel of [[1/2, 1/2]]
    calls = {
        "kernel_exact": kernel_exact,
        "rank_exact": rank_exact,
        "rank_modp": lambda m: rank_modp(m, PRIMES[0]),
        "independent_columns": lambda m: independent_columns(m, 1),
    }
    refused = [
        np.array([[1, 2], [2, 4]], dtype=object),
        [[Fraction(1, 2), Fraction(1, 2)]],
        [[Fraction(2, 1), 4], [1, 2]],
        np.array([[0.5, 1.0]]),
        np.array([[2.0, 4.0], [1.0, 2.0]]),
        [[1 << 63, 1]],
        np.array([1, 2]),
    ]
    for name, call in calls.items():
        for mat in refused:
            with pytest.raises(ValueError):
                call(mat)
    # rank 1 in every accepted form: int8, int32 and int64 arrays, a list of
    # small Python ints and a SparseIntMatrix
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    accepted = [a.astype(np.int8), a.astype(np.int32), a, a.tolist(), _sparse(a)]
    for mat in accepted:
        rank, lk, scale, pivots, free = kernel_exact(mat)
        assert (rank, lk.tolist(), scale) == (1, [[-2], [1]], 1)
        assert (pivots.tolist(), free.tolist()) == ([0], [1])
        assert rank_exact(mat) == 1
        assert rank_modp(mat, PRIMES[0]) == 1
        assert independent_columns(mat, 1).tolist() == [0]


def test_rank_exact_single_prime_path_survives_an_unlucky_prime():
    # rank 1 mod PRIMES[0]: the one-prime shortcut fails, kernel_exact's
    # verification rejects the mod-p kernel, and the next prime gives rank 2
    assert rank_exact([[PRIMES[0], 0], [0, 1]]) == 2
    rank, lk, _, _, _ = kernel_exact([[PRIMES[0], 0], [0, 1]])
    assert rank == 2 and lk.shape == (2, 0)
    # the right rank mod PRIMES[0] but the wrong pivot (1, not 0): a later
    # prime with the lesser pivot must replace it
    assert list(kernel_exact([[PRIMES[0], 1, 1]])[3]) == [0]


def test_independent_columns_needs_the_exact_rank():
    rng = np.random.default_rng(13)
    a = _random_rank(rng, 7, 9, 4)
    cols = independent_columns(a, 4)
    assert len(cols) == 4 and _sympy_rank(a[:, cols]) == 4
    # a claimed rank that no prime reaches, or that one exceeds, is refused
    for wrong in (3, 5):
        with pytest.raises(RankCertificateError):
            independent_columns(a, wrong)


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
        assert rational_reconstruction(residue, m) == (f.numerator, f.denominator)


def test_rational_reconstruction_failure():
    # residues of huge fractions cannot be lifted from a single small prime
    assert rational_reconstruction(123456789, 101) is None


def _lift_entrywise(residue, modulus):
    """Reference for _lift_matrix: rational_reconstruction on every entry,
    as an array of Fractions."""
    out = np.empty(residue.shape, dtype=object)
    for idx in np.ndindex(residue.shape):
        v = rational_reconstruction(int(residue[idx]), modulus)
        if v is None:
            return None
        out[idx] = Fraction(*v)
    return out


def _same_lift(got, want):
    """Whether got = (L K, L) is the entrywise lift want, with L its least
    common denominator."""
    if want is None:
        return got is None
    if got is None:
        return False
    lk, scale = got
    return scale == lcm(*(w.denominator for w in want.flat)) and all(
        Fraction(int(g), scale) == w for g, w in zip(lk.flat, want.flat)
    )


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
    rank, lk, scale, pivots, free = kernel_exact(a)
    assert rank == _sympy_rank(a)
    assert lk.shape == (12, 12 - rank)
    assert sorted(list(pivots) + list(free)) == list(range(12))
    # echelon shape: free rows form L times the identity
    eye = lk[free]
    for i in range(len(free)):
        for j in range(len(free)):
            assert eye[i, j] == (scale if i == j else 0)
    prod = a.astype(object) @ lk
    assert not prod.any()


def test_kernel_exact_large_entries_force_crt():
    rng = np.random.default_rng(6)
    u = rng.integers(-10**9, 10**9, size=(6, 4)).astype(object)
    v = rng.integers(-10**9, 10**9, size=(4, 9)).astype(object)
    # four products of at most 10**18 each: the entries fit int64
    a = (u @ v).astype(np.int64)
    rank, lk, _, _, free = kernel_exact(a)
    assert rank == _sympy_rank(a)
    assert not (a.astype(object) @ lk).any()


def test_kernel_exact_full_rank():
    a = np.diag([1, 2, 3]).astype(np.int64)
    rank, lk, scale, pivots, free = kernel_exact(a)
    assert rank == 3 and lk.shape == (3, 0) and scale == 1 and free.size == 0


def test_kernel_exact_zero_matrix():
    a = np.zeros((4, 3), dtype=np.int64)
    rank, lk, scale, pivots, free = kernel_exact(a)
    assert rank == 0 and lk.shape == (3, 3)
    assert scale == 1 and np.array_equal(lk, np.eye(3, dtype=np.int64))
    assert np.array_equal(free, np.arange(3))


def test_kernel_exact_sparse_input():
    m = _matrix(3, 4, {(0, 0): 1, (0, 3): -2, (1, 1): 1, (1, 3): 5})
    rank, lk, _, _, free = kernel_exact(m)
    assert rank == 2 and lk.shape == (4, 2)
    assert m.to_int64().astype(object).dot(lk).tolist() == [[0, 0], [0, 0], [0, 0]]


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



def test_stacked_int_matmul_equals_its_slices():
    # float64, int64 and Python-int stacks, and a matrix broadcast over a stack
    rng = np.random.default_rng(5)
    for scale in (1 << 10, 1 << 29, 1 << 40):
        a = rng.integers(-scale, scale, size=(3, 2, 4))
        b = rng.integers(-scale, scale, size=(3, 4, 5))
        got = int_matmul(a, b)
        assert got.shape == (3, 2, 5)
        for i in range(3):
            assert got[i].tolist() == int_matmul(a[i], b[i]).tolist()
            assert int_matmul(a[0], b)[i].tolist() == int_matmul(a[0], b[i]).tolist()
            assert int_matmul(a, b[0])[i].tolist() == int_matmul(a[i], b[0]).tolist()


def test_stacked_int_matmul_bounds_by_the_inner_dimension():
    # one row against three terms of about 2**52 each: the partial sums pass
    # 2**53 and the product is odd, so float64 would round it; a bound read
    # from a.shape[1] (the one row) instead of the inner dimension takes it
    big = (1 << 26) + 1
    a = np.array([[[big, big, big, 1]]] * 2)
    b = np.array([[[big], [big], [big], [2]]] * 2)
    assert a.shape[1] < a.shape[-1]
    assert _product_dtype(a, b) is np.int64
    want = 3 * big * big + 2
    assert want > 1 << 53 and want % 2
    assert int_matmul(a, b).tolist() == [[[want]]] * 2
    assert int(np.float64(want)) != want


def test_signed_sum_refuses_the_2_62_bound():
    # sum |w| max|a| is the bound: two terms of 2**61 reach 2**62 and are
    # refused, even where they would cancel, as is a sum that int64 would
    # wrap to 0; one less in each and the sum is exact
    big = np.full((2, 3), 1 << 61, dtype=np.int64)
    for weights, arrays in (([1, 1], [big, big]), ([1, -1], [big, big]), ([2], [big]), ([4], [big])):
        with pytest.raises(OverflowError):
            signed_sum(weights, arrays)
    got = signed_sum([1, 1], [big - 1, big - 1])
    assert got.dtype == np.int64 and got.tolist() == [[(1 << 62) - 2] * 3] * 2
    # weights and narrow terms are widened to int64 before they multiply
    narrow = np.array([[100, -100]] * 2, dtype=np.int8)
    assert signed_sum([1000, -3], narrow).tolist() == [99700, -99700]
    assert signed_sum([], np.zeros((0, 2, 3), dtype=np.int64)).tolist() == [[0] * 3] * 2


def test_signed_sum_bounds_each_row_of_a_weight_matrix():
    # one sum per row, each row bounded on its own: a row reaching 2 * 2**61
    # is refused before any sum even when every other row is small, and a
    # row of 2 * (2**61 - 1) is summed exactly beside the others
    big = np.full((2, 3), 1 << 61, dtype=np.int64)
    small = np.ones((2, 3), dtype=np.int64)
    for row in ([1, 1, 0], [1, -1, 5], [2, 0, 0], [0, 0, 1 << 62]):
        with pytest.raises(OverflowError):
            signed_sum([[0, 0, 1], row, [0, 0, -1]], [big, big, small])
    got = signed_sum([[0, 0, 1], [1, 1, 0], [0, 0, -1]], [big - 1, big - 1, small])
    assert got.dtype == np.int64 and got.shape == (3, 2, 3)
    assert got.tolist() == [small.tolist(), [[(1 << 62) - 2] * 3] * 2, (-small).tolist()]
    # each row equals the 1-D form with its weights, and no row gives no sums
    arrays = np.arange(24, dtype=np.int8).reshape(4, 2, 3) - 12
    weights = np.array([[1, -2, 0, 3], [0, 0, 7, -1]])
    assert [signed_sum(w, arrays).tolist() for w in weights] == signed_sum(weights, arrays).tolist()
    assert signed_sum(np.zeros((0, 4), dtype=np.int64), arrays).shape == (0, 2, 3)


def test_kernel_coordinates_solve_inside_the_span_only():
    # K = [[-3/2, 0], [1, 0], [0, 1]] with L = 2: Y = K X comes back as L X,
    # a Y off the span of K as None; the kernel still unpacks as five values
    kernel = kernel_exact([[2, 3, 0]])
    rank, lk, scale, pivots, free = kernel
    assert (rank, scale, lk is kernel.lk) == (1, 2, True)
    x = np.array([[1, 0], [-4, 5]], dtype=np.int64)
    y = int_matmul(lk, x)  # L Y
    assert kernel.coordinates(y).tolist() == (scale * x).tolist()
    assert kernel.coordinates(np.array([[1], [0], [0]], dtype=np.int64)) is None


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
