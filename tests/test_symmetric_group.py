import hashlib
import itertools
import random
from math import factorial

import numpy as np
import pytest

from delta2n import linalg, symmetric_group
from delta2n.linalg import InternalConsistencyError
from delta2n.symmetric_group import (
    NotACharacterError,
    SpechtRep,
    assemble_character,
    character_table,
    class_representative,
    class_size,
    cycle_type,
    decompose,
    hook_dimension,
    mn_character,
    partitions_of,
    specht_matrices,
    standard_tableaux,
    transposition_word,
    word_tree,
)


def _compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def test_partitions_order_and_count():
    assert partitions_of(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, c in counts.items():
        assert len(partitions_of(n)) == c


def test_class_sizes():
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((4,)) == 6
    for n in range(1, 8):
        assert sum(class_size(mu) for mu in partitions_of(n)) == factorial(n)
        # brute force against actual cycle types
        if n <= 5:
            census = {}
            for p in itertools.permutations(range(n)):
                t = cycle_type(p)
                census[t] = census.get(t, 0) + 1
            for mu in partitions_of(n):
                assert census[mu] == class_size(mu)


def test_trivial_and_sign_characters():
    for n in (3, 4, 5, 6):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1
            assert mn_character(tuple([1] * n), mu) == (-1) ** (n - len(mu))


def test_mn_against_s4_table():
    # reference character values for S_4 in class order 1111, 211, 22, 31, 4
    rows = {
        (1, 1, 1, 1): (1, -1, 1, 1, -1),
        (2, 1, 1): (3, -1, -1, 0, 1),
        (2, 2): (2, 0, 2, -1, 0),
        (3, 1): (3, 1, -1, 0, -1),
        (4,): (1, 1, 1, 1, 1),
    }
    table = character_table(4)
    for i, lam in enumerate(partitions_of(4)):
        assert tuple(table[i].tolist()) == rows[lam]


def test_orthogonality_and_dimensions():
    # rows lam, columns mu, both in partitions_of order: entry by entry the
    # border-strip value, the identity column the hook dimension, and the
    # rows orthogonal under the class sizes, each of norm n!
    for n in range(1, 9):
        parts = partitions_of(n)
        table = character_table(n)
        assert table.dtype == np.int64 and table.shape == (len(parts), len(parts))
        for i, lam in enumerate(parts):
            assert table[i, 0] == hook_dimension(lam)
            for j, mu in enumerate(parts):
                assert table[i, j] == mn_character(lam, mu)
        sizes = np.array([class_size(mu) for mu in parts], dtype=object)
        gram = table.astype(object) @ (sizes[:, None] * table.T.astype(object))
        assert np.array_equal(gram, factorial(n) * np.eye(len(parts), dtype=np.int64))
        assert sum(hook_dimension(lam) ** 2 for lam in parts) == factorial(n)


def test_character_table_is_read_only():
    table = character_table(5)
    with pytest.raises(ValueError):
        table[0, 0] = 7
    with pytest.raises(ValueError):
        table[1] += 1
    assert character_table(5) is table and table[0, 0] == 1


def test_specht_generators_are_read_only():
    # specht_matrices memoizes the module, so every caller shares its arrays
    gens = specht_matrices((3, 2)).generators
    with pytest.raises(ValueError):
        gens[0][0, 0] = 7
    with pytest.raises(ValueError):
        gens[1] += 1
    assert specht_matrices((3, 2)).generators is gens
    assert all(np.array_equal(g @ g, np.eye(5, dtype=np.int64)) for g in gens)


def test_hook_dimensions():
    assert hook_dimension((3, 1, 1)) == 6
    assert hook_dimension((3, 2)) == 5
    assert hook_dimension((8,)) == 1


def test_perm_helpers():
    rng = random.Random(3)
    for n in (4, 6):
        perms = list(itertools.permutations(range(n)))
        for _ in range(40):
            p = rng.choice(perms)
            assert sorted(cycle_type(p), reverse=True) == list(cycle_type(p))
            assert sum(cycle_type(p)) == n
    for mu in partitions_of(6):
        assert cycle_type(class_representative(mu)) == mu


def test_transposition_word():
    rng = random.Random(5)
    for n in (3, 5, 7):
        perms = list(itertools.permutations(range(n)))
        for _ in range(30):
            p = rng.choice(perms)
            word = transposition_word(p)
            rebuilt = tuple(range(n))
            for j in reversed(word):
                t = list(range(n))
                t[j], t[j + 1] = t[j + 1], t[j]
                rebuilt = _compose(rebuilt, tuple(t))
            assert rebuilt == p


def test_standard_tableaux_311_order():
    tabs = standard_tableaux((3, 1, 1))
    assert tabs == [
        ((0, 1, 2), (3,), (4,)),
        ((0, 1, 3), (2,), (4,)),
        ((0, 1, 4), (2,), (3,)),
        ((0, 2, 3), (1,), (4,)),
        ((0, 2, 4), (1,), (3,)),
        ((0, 3, 4), (1,), (2,)),
    ]
    for lam in partitions_of(5):
        assert len(standard_tableaux(lam)) == hook_dimension(lam)


def test_specht_generator_involutions():
    for lam in ((2, 1), (3, 1, 1), (2, 2, 1)):
        rep = specht_matrices(lam)
        eye = np.eye(rep.dim, dtype=np.int64)
        for g in rep.generators:
            assert np.array_equal(g @ g, eye)


# SHA-256 over the generators of every lambda |- n, computed with the
# Fraction Gauss-Jordan solve that re-expanded each moved polytabloid
SPECHT_DIGESTS = {
    4: "f209ea0a7cf34f8476caace0e47b1d275f7c87d456c8411b03f20d275b804eab",
    5: "4306fa39d7da6b14cfaa3bbae401bf99c44fce74b01f6b7a9b4bce7e4431757a",
    6: "ca5730b655c9e9eba400cbef211bf137fcf7e67b41656c05676d159eba54e441",
    7: "87db008b56b11b60572fc28e26a824e9b44321c0f782774a73d8f46003c2665c",
}


@pytest.mark.parametrize("n", sorted(SPECHT_DIGESTS))
def test_specht_generators_digest(n):
    h = hashlib.sha256()
    for lam in partitions_of(n):
        for g in specht_matrices(lam).generators:
            h.update(f"{lam} {g.dtype} {g.shape} {g.tolist()}\n".encode())
    assert h.hexdigest() == SPECHT_DIGESTS[n]


def _polytabloid(tab, n):
    """e_tab as {tabloid: coefficient}, a tabloid being the row of each
    entry, by summing over every column permutation: the full expansion that
    the Specht matrices are built without."""
    cols = [[row[c] for row in tab if len(row) > c] for c in range(len(tab[0]))]
    out = {}
    for images in itertools.product(*(itertools.permutations(col) for col in cols)):
        row_of = [0] * n
        sign = 1
        for col, image in zip(cols, images):
            for r, x in enumerate(image):
                row_of[x] = r
            index = [col.index(x) for x in image]
            for a, b in itertools.combinations(index, 2):
                sign = -sign if a > b else sign
        key = tuple(row_of)
        out[key] = out.get(key, 0) + sign
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_specht_generators_solve_every_tabloid_row(n):
    # the old all-tabloid certificate: with E and B over every tabloid of
    # every e_t (not the standard ones alone), E X_j = B_j for each generator
    for lam in partitions_of(n):
        rep = specht_matrices(lam)
        expansions = [_polytabloid(t, n) for t in rep.tableaux]
        tabloids = sorted(set().union(*expansions))
        index = {key: i for i, key in enumerate(tabloids)}
        e = np.zeros((len(tabloids), rep.dim), dtype=np.int64)
        for k, vec in enumerate(expansions):
            for key, v in vec.items():
                e[index[key], k] = v
        for j, g in enumerate(rep.generators):
            # s_j . e_t relabels j and j+1 in every tabloid of e_t
            b = np.zeros_like(e)
            for k, vec in enumerate(expansions):
                for key, v in vec.items():
                    moved = list(key)
                    moved[j], moved[j + 1] = moved[j + 1], moved[j]
                    b[index[tuple(moved)], k] = v
            assert np.array_equal(e @ g, b)


def test_tableau_order_with_e_not_unit_lower_triangular_is_rejected(monkeypatch):
    # reversed, the tableaux make E upper triangular, so forward
    # substitution would solve rows before the rows they depend on
    real = symmetric_group.standard_tableaux
    monkeypatch.setattr(symmetric_group, "standard_tableaux", lambda lam: real(lam)[::-1])
    with pytest.raises(InternalConsistencyError, match="unit lower triangular"):
        SpechtRep((3, 2))


def test_swapped_generator_row_fails_the_coxeter_check():
    rep = specht_matrices((3, 2))
    symmetric_group._check_coxeter((3, 2), rep.generators)
    bad = list(rep.generators)
    bad[1] = bad[1][[1, 0, *range(2, rep.dim)]]
    with pytest.raises(InternalConsistencyError, match="Coxeter"):
        symmetric_group._check_coxeter((3, 2), bad)


def _swap(i, j):
    """The permutation matrix of the transposition (i j) of four points."""
    out = np.eye(4, dtype=np.int64)
    out[[i, j]] = out[[j, i]]
    return out


def test_coxeter_check_needs_each_kind_of_relation():
    # three would-be generators of S_4, each set failing one kind of relation
    # only: s_0 s_2 = s_2 s_0, or (s_i s_{i+1})^3 = 1, or s_i^2 = 1
    g, g_inv = np.array([[1, 1], [0, 1]]), np.array([[1, -1], [0, 1]])
    symmetric_group._check_coxeter((2, 2), [_swap(0, 1), _swap(1, 2), _swap(2, 3)])
    for bad in (
        [_swap(0, 1), _swap(1, 2), _swap(0, 2)],
        [_swap(0, 1), _swap(2, 3), _swap(0, 1)],
        [g, g_inv, g],
    ):
        with pytest.raises(InternalConsistencyError, match="Coxeter"):
            symmetric_group._check_coxeter((2, 2), bad)


def test_sign_twisted_generators_fail_the_character_check():
    # -s_j satisfies every Coxeter relation that s_j does, but the twisted
    # representation is S^(2,2,1), not S^(3,2)
    rep = specht_matrices((3, 2))
    symmetric_group._check_character((3, 2), rep.generators)
    twisted = [-g for g in rep.generators]
    symmetric_group._check_coxeter((3, 2), twisted)
    with pytest.raises(InternalConsistencyError, match="trace"):
        symmetric_group._check_character((3, 2), twisted)


def test_specht_multiplicative_random_triples():
    rng = random.Random(9)
    for n, lam in ((4, (2, 2)), (5, (3, 1, 1)), (5, (2, 2, 1)), (6, (3, 2, 1))):
        rep = specht_matrices(lam)
        perms = list(itertools.permutations(range(n)))
        for _ in range(15):
            p, q = rng.choice(perms), rng.choice(perms)
            pq, rho_p, rho_q = rep.matrices([_compose(p, q), p, q])
            assert np.array_equal(pq, rho_p @ rho_q)


def _word_product(rep, perm):
    """rho(perm) as the plain product of the generators along its
    transposition word, in Python ints: the reference for the sweep."""
    out = np.eye(rep.dim, dtype=np.int64).astype(object)
    for j in reversed(transposition_word(perm)):
        out = out @ rep.generators[j].astype(object)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_specht_matrices_match_the_word_product(n):
    # every permutation in a shuffled batch with repeats, and
    # single-permutation calls
    rng = random.Random(n)
    perms = list(itertools.permutations(range(n)))
    for lam in partitions_of(n):
        rep = specht_matrices(lam)
        want = {p: _word_product(rep, p) for p in perms}
        batch = perms + rng.choices(perms, k=len(perms) // 2 + 1)
        rng.shuffle(batch)
        got = rep.matrices(batch)
        assert len(got) == len(batch)
        for p, mat in zip(batch, got):
            assert mat.dtype == np.int64 and mat.base is None  # no view of the sweep
            assert np.array_equal(mat, want[p])
        for p in rng.sample(perms, min(len(perms), 8)):
            assert np.array_equal(rep.matrices([p])[0], want[p])
    assert specht_matrices(partitions_of(n)[0]).matrices([]) == []


def test_sweep_refuses_levels_beyond_int64():
    # one-by-one generators g: rho(t_1 t_0) = g * g is at depth 2, and the
    # level bound g * g * 1 reaching 2**62 raises there, even where the entry
    # would still fit int64 (g = 2**31 + 1) and where it would wrap (2**32)
    tree = word_tree([(1, 2, 0)])
    assert len(tree.levels) == 2
    for g in ((1 << 31) + 1, 1 << 32):
        with pytest.raises(OverflowError):
            symmetric_group._sweep(np.full((2, 1, 1), g, dtype=np.int64), tree, 1)
    g = (1 << 31) - 1
    (got,) = symmetric_group._sweep(np.full((2, 1, 1), g, dtype=np.int64), tree, 1)
    assert got.dtype == np.int64 and got.tolist() == [[g * g]]


def test_substitute_refuses_a_level_beyond_int64(monkeypatch):
    # X = (1, -c) solves E X = B for E = [[1, 0], [c, 1]], B = (1, 0): its
    # second level is the product c * 1, refused once the bound reaches 2**62
    # even where the entry would fit int64 (c = 2**62), and before any
    # product in Python ints is formed; one less is solved exactly
    formed = []  # int_matmul is the one path to a product in Python ints
    real = linalg.int_matmul
    for owner in (linalg, symmetric_group):
        monkeypatch.setattr(owner, "int_matmul", lambda a, b: formed.append(1) or real(a, b))
    b = np.array([[1], [0]], dtype=np.int64)
    for c in (1 << 62, (1 << 63) - 1):
        e = np.array([[1, 0], [c, 1]], dtype=np.int64)
        with pytest.raises(OverflowError):
            symmetric_group._substitute(e, b)
    c = (1 << 62) - 1
    x = symmetric_group._substitute(np.array([[1, 0], [c, 1]], dtype=np.int64), b)
    assert x.dtype == np.int64 and x.tolist() == [[1], [-c]]
    assert formed == []


def test_specht_trace_equals_mn_exhaustive():
    for n in range(2, 6):
        for lam in partitions_of(n):
            perms = list(itertools.permutations(range(n)))
            for p, mat in zip(perms, specht_matrices(lam).matrices(perms)):
                assert np.trace(mat) == mn_character(lam, cycle_type(p))


def test_specht_character_classfunction():
    classes = [class_representative(mu) for mu in partitions_of(5)]
    traces = [int(np.trace(m)) for m in specht_matrices((3, 2)).matrices(classes)]
    assert traces == character_table(5)[partitions_of(5).index((3, 2))].tolist()


def test_decompose_roundtrip():
    rng = random.Random(11)
    for n in (4, 5, 6):
        parts = partitions_of(n)
        mults = {lam: rng.randrange(0, 4) for lam in rng.sample(parts, 3)}
        mults = {k: v for k, v in mults.items() if v}
        f = assemble_character(n, mults)
        assert decompose(n, f) == mults


def test_decompose_roundtrip_every_irreducible_of_8():
    parts = partitions_of(8)
    for lam in parts:
        assert decompose(8, assemble_character(8, {lam: 1})) == {lam: 1}
    every = dict.fromkeys(parts, 1)
    assert decompose(8, assemble_character(8, every)) == every


def test_decompose_rejects_non_characters():
    # a non-integer value is the CLI's to reject: see test_cli
    n = 4
    with pytest.raises(NotACharacterError):
        decompose(n, [1] + [0] * 4)
    g, h = (character_table(n)[partitions_of(n).index(lam)] for lam in ((2, 2), (4,)))
    diff = g - h - h
    with pytest.raises(NotACharacterError):
        decompose(n, diff)


def test_known_decomposition_example():
    f = (15, 3, -1, 0, 0, -1, 0)
    assert decompose(5, f) == {(3, 1, 1): 1, (3, 2): 1, (4, 1): 1}
