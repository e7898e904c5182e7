import itertools
from math import factorial

import numpy as np
import pytest

from delta2n import linalg
from delta2n.kernels import project_stream, rref_modp, sjt_swaps
from delta2n.symmetric_group import specht_matrices


def _pairs_basis(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    return pairs, index


def _pairs_matrix(n, perm):
    # signed action on 2-subsets: sign flips when the pair gets reordered
    pairs, index = _pairs_basis(n)
    dim = len(pairs)
    mat = np.zeros((dim, dim), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        a, b = perm[i], perm[j]
        s = 1
        if a > b:
            a, b, s = b, a, -1
        mat[index[a, b], k] = s
    return mat


def _pairs_tables(n):
    """Generator lookup tables: (A_{t_j} x)[b] = gsgn[j,b] * x[gidx[j,b]]."""
    pairs, _ = _pairs_basis(n)
    dim = len(pairs)
    gidx = np.zeros((n - 1, dim), dtype=np.int64)
    gsgn = np.zeros((n - 1, dim), dtype=np.int64)
    for j in range(n - 1):
        t = list(range(n))
        t[j], t[j + 1] = t[j + 1], t[j]
        mat = _pairs_matrix(n, tuple(t))
        for r in range(dim):
            c = int(np.nonzero(mat[r])[0][0])
            gidx[j, r] = c
            gsgn[j, r] = mat[r, c]
    return gidx, gsgn


def _matrix_units(n, lam):
    """(g, r11(g^{-1}), rho(g)) over g in S_n."""
    perms = list(itertools.permutations(range(n)))
    inverses = [tuple(np.argsort(g).tolist()) for g in perms]
    rep = specht_matrices(lam)
    return zip(perms, (int(m[0, 0]) for m in rep.matrices(inverses)), rep.matrices(perms))


def _brute_stream(n, lam, x):
    acc = np.zeros_like(x)
    for perm, r11, _ in _matrix_units(n, lam):
        if r11:
            acc += r11 * (_pairs_matrix(n, perm) @ x)
    return acc


def _run_stream(n, lam, x):
    rep = specht_matrices(lam)
    swaps = np.array(sjt_swaps(n), dtype=np.int64)
    gidx, gsgn = _pairs_tables(n)
    rgen = np.stack(rep.generators)
    return project_stream(swaps, gidx, gsgn, rgen, x)


def test_rref_modp_is_the_linalg_core():
    # the same object, so a tracer that wraps it by identity times linalg's elimination
    assert rref_modp is linalg.rref_modp


def test_rref_rank_matches_exact():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(11)
    p = 2147483629
    for _ in range(8):
        u = rng.integers(-4, 5, size=(7, 3)).astype(np.int64)
        v = rng.integers(-4, 5, size=(3, 9)).astype(np.int64)
        a = u @ v
        want = sympy.Matrix(a.tolist()).rank()
        got, piv = rref_modp(a.copy(), p)
        assert got == want
        assert len(piv) == got


def test_rref_reduced_form():
    rng = np.random.default_rng(3)
    p = 2147483647
    a = rng.integers(-9, 9, size=(6, 8)).astype(np.int64)
    rank, piv = rref_modp(a, p)
    for i, c in enumerate(piv):
        assert a[i, c] == 1
        col = a[:, c].copy()
        col[i] = 0
        assert not col.any()


def test_sjt_covers_group():
    for n in (2, 3, 4, 5, 6):
        swaps = sjt_swaps(n)
        assert len(swaps) == factorial(n) - 1
        seen = set()
        cur = list(range(n))
        seen.add(tuple(cur))
        for j in swaps:
            cur[j], cur[j + 1] = cur[j + 1], cur[j]
            seen.add(tuple(cur))
        assert len(seen) == factorial(n)


def test_matrix_unit_identity():
    # sum_g r11(g^{-1}) rho(g) = (n!/d) E_11 for the natural irreducible
    for n, lam in [(3, (2, 1)), (4, (2, 2)), (4, (3, 1))]:
        rep = specht_matrices(lam)
        d = rep.dim
        total = np.zeros((d, d), dtype=object)
        for _, r11, rho in _matrix_units(n, lam):
            total += r11 * rho
        want = np.zeros((d, d), dtype=object)
        want[0, 0] = factorial(n) // d
        assert np.array_equal(total, want)


@pytest.mark.parametrize("lam", [(2, 2), (3, 1), (2, 1, 1), (4,), (1, 1, 1, 1)])
def test_stream_matches_bruteforce_n4(lam):
    rng = np.random.default_rng(sum(lam))
    x = rng.integers(-9, 10, size=(6, 3)).astype(np.int64)
    assert np.array_equal(_run_stream(4, lam, x), _brute_stream(4, lam, x))


def test_stream_matches_bruteforce_n5():
    rng = np.random.default_rng(17)
    x = rng.integers(-9, 10, size=(10, 2)).astype(np.int64)
    lam = (3, 1, 1)
    assert np.array_equal(_run_stream(5, lam, x), _brute_stream(5, lam, x))


def test_stream_idempotent_up_to_scale():
    # streaming twice multiplies by n!/d once more
    n, lam = 4, (2, 1, 1)
    scale = factorial(n) // specht_matrices(lam).dim
    rng = np.random.default_rng(23)
    x = rng.integers(-9, 10, size=(6, 4)).astype(np.int64)
    once = _run_stream(n, lam, x)
    twice = _run_stream(n, lam, once)
    assert np.array_equal(twice, scale * once)


def test_stream_trivial_rep_sums_action():
    n = 4
    swaps = np.array(sjt_swaps(n), dtype=np.int64)
    gidx, gsgn = _pairs_tables(n)
    rgen = np.ones((n - 1, 1, 1), dtype=np.int64)
    rng = np.random.default_rng(37)
    x = rng.integers(-9, 10, size=(6, 2)).astype(np.int64)
    acc = project_stream(swaps, gidx, gsgn, rgen, x)
    want = np.zeros_like(x)
    for perm in itertools.permutations(range(n)):
        want += _pairs_matrix(n, perm) @ x
    assert np.array_equal(acc, want)


def test_stream_rejects_short_walk():
    swaps = np.zeros(3, dtype=np.int64)
    gidx, gsgn = _pairs_tables(4)
    rgen = np.ones((3, 1, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        project_stream(swaps, gidx, gsgn, rgen, np.zeros((6, 1), dtype=np.int64))
