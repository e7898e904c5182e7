import itertools

import numpy as np
import pytest

from delta2n import equivariant_homology, linalg
from delta2n.chain_complex import betti, boundary_matrix, build_basis, chain_orbits
from delta2n.equivariant_homology import (
    act,
    chain_character,
    homology_character_next,
    homology_character_top,
    isotypic_block_ranks,
    kernel_character_oracle,
    kernel_multiplicity,
    multiplicity_space,
)
from delta2n.linalg import InternalConsistencyError, RankCertificateError, rank_exact
from delta2n.symmetric_group import (
    ClassFunction,
    class_representative,
    compose,
    decompose,
    hook_dimension,
    inverse,
    partitions_of,
    specht_matrices,
)
from delta2n.theta_graphs import (
    MalformedGraphError,
    canonical_form,
    canonicalize,
    make_graph,
    relabel,
    signed_stabilizer,
)

# golden character rows, classes in ascending-lex partition order
GOLDEN_TOP = {
    4: (3, -1, -1, 0, 1),
    5: (15, 3, -1, 0, 0, -1, 0),
    6: (86, 2, 10, 6, -1, -1, 2, 0, 0, 1, 0),
}
GOLDEN_NEXT = {
    4: (1, 1, 1, 1, 1),
    5: (5, 1, 1, -1, 1, -1, 0),
    6: (26, 2, -2, -2, -1, -1, -1, 0, 0, 1, 1),
}
GOLDEN_MULTS = {
    4: {(2, 1, 1): 1},
    5: {(3, 1, 1): 1, (3, 2): 1, (4, 1): 1},
    6: {
        (1, 1, 1, 1, 1, 1): 1,
        (2, 1, 1, 1, 1): 1,
        (2, 2, 1, 1): 1,
        (2, 2, 2): 2,
        (3, 2, 1): 2,
        (3, 3): 1,
        (4, 2): 2,
        (5, 1): 1,
        (6,): 1,
    },
}


def test_act_identity():
    for n, p in [(4, 6), (5, 7)]:
        a = act(tuple(range(n)), p)
        dim = build_basis(n, p).dim
        assert np.array_equal(a.image, np.arange(dim))
        assert np.all(a.sign == 1)


@pytest.mark.parametrize("n,p", [(4, 6), (5, 7), (6, 8)])
def test_act_is_homomorphism(n, p):
    rng = np.random.default_rng(5)
    for _ in range(4):
        sigma = tuple(rng.permutation(n).tolist())
        tau = tuple(rng.permutation(n).tolist())
        a_s, a_t = act(sigma, p), act(tau, p)
        a_st = act(compose(sigma, tau), p)
        assert np.array_equal(a_st.image, a_s.image[a_t.image])
        assert np.array_equal(a_st.sign, a_t.sign * a_s.sign[a_t.image])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_act_matches_per_graph_canonicalization(n):
    rng = np.random.default_rng(11)
    for p in (n, n + 1, n + 2):
        graphs = build_basis(n, p).graphs
        index = {g: i for i, g in enumerate(graphs)}
        for _ in range(3):
            sigma = tuple(rng.permutation(n).tolist())
            a = act(sigma, p)
            want = [canonicalize(relabel(g, sigma)) for g in graphs]
            assert a.image.tolist() == [index[t] for t, _ in want]
            assert a.sign.tolist() == [s for _, s in want]


def test_act_raises_on_a_key_missing_from_the_basis(monkeypatch):
    real = equivariant_homology.basis_arrays
    monkeypatch.setattr(
        equivariant_homology,
        "basis_arrays",
        lambda n, p: real(n, p)._replace(keys=np.delete(real(n, p).keys, 7)),
    )
    with pytest.raises(InternalConsistencyError, match="moves a graph out of C_7"):
        act((1, 0, 2, 3, 4), 7)


def test_kernel_trace_oracle_rejects_a_wrong_action_sign(monkeypatch):
    # one flipped sign in each non-identity action breaks kernel invariance
    real = equivariant_homology.act

    def flipped(sigma, p):
        a = real(sigma, p)
        if list(sigma) != sorted(sigma):
            a.sign[0] *= -1
        return a

    monkeypatch.setattr(equivariant_homology, "act", flipped)
    with pytest.raises(InternalConsistencyError, match="kernel is not invariant"):
        kernel_character_oracle(5)


@pytest.mark.parametrize("sigma", [(0, 0, 2, 3), (1, 2, 3, 4), (0, 1, 2, -1)])
def test_act_rejects_non_permutation(sigma):
    with pytest.raises(MalformedGraphError):
        act(sigma, 6)


def test_act_apply_matches_matrix():
    a = act((1, 0, 3, 2), 6)
    x = np.arange(1, build_basis(4, 6).dim + 1, dtype=np.int64)
    assert np.array_equal(a.apply(x), a.matrix() @ x)
    gidx, gsgn = a.gather_tables()
    assert np.array_equal(a.apply(x), gsgn * x[gidx])


def test_swap_fixes_two_marked_theta_evenly():
    # both markings subdividing distinct paths: the marking swap extends to
    # an even automorphism, so the cell is fixed with sign +1
    t1 = make_graph(None, None, [[], [0], [1]])
    iso = canonicalize(relabel(t1, (1, 0)))
    assert iso.target == canonicalize(t1).target
    assert iso.sign == canonicalize(t1).sign


def test_chain_character_identity_is_dim():
    for n in (4, 5, 6):
        for p in (n, n + 1, n + 2):
            ch = chain_character(n, p)
            assert ch.at((1,) * n) == build_basis(n, p).dim


def test_chain_character_n5_top_dim():
    assert chain_character(5, 7).at((1, 1, 1, 1, 1)) == 60


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chain_characters_decompose_integrally(n):
    for p in (n, n + 1, n + 2):
        mults = decompose(chain_character(n, p))
        assert all(k > 0 for k in mults.values())
        total = sum(k * hook_dimension(lam) for lam, k in mults.items())
        assert total == build_basis(n, p).dim


@pytest.mark.parametrize("n", [4, 5])
def test_boundary_equivariance(n):
    rng = np.random.default_rng(11)
    for p in (n + 1, n + 2):
        d = np.zeros((build_basis(n, p - 1).dim, build_basis(n, p).dim), dtype=np.int64)
        for (r, c), v in boundary_matrix(n, p).entries():
            d[r, c] = int(v)
        for _ in range(3):
            sigma = tuple(rng.permutation(n).tolist())
            lo = act(sigma, p - 1).matrix()
            hi = act(sigma, p).matrix()
            assert np.array_equal(lo @ d, d @ hi)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_induced_chain_character_matches_action_traces(n):
    for p in (n, n + 1, n + 2):
        traces = {mu: act(class_representative(mu), p).trace() for mu in partitions_of(n)}
        assert chain_character(n, p) == ClassFunction.from_dict(n, traces)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_multiplicity_spaces_are_fixed_and_full(n):
    # each column of W_o is an eps-eigenvector of every stabilizer element,
    # and dim W_o = <eps, Res chi_lam>_H by Frobenius reciprocity
    for p in (n, n + 1, n + 2):
        for rep in chain_orbits(n, p):
            stab = signed_stabilizer(rep)
            for lam in partitions_of(n):
                rho = specht_matrices(lam)
                w = multiplicity_space(lam, rep)
                for h, eps in stab:
                    assert np.array_equal(rho.matrix(h) @ w, eps * w)
                inner = sum(eps * int(np.trace(rho.matrix(h))) for h, eps in stab)
                assert w.shape[1] * len(stab) == inner
                assert rank_exact(w) == w.shape[1]


def test_specht_and_multiplicity_spaces_lift_no_kernel(monkeypatch):
    # the Specht matrices come from integer substitution and the
    # multiplicity spaces from rank P = tr P / |H|: no exact solve and no
    # kernel lift for any lambda |- 7
    calls = []

    def record(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for owner, name in [
        (linalg, "kernel_exact"),
        (linalg, "solve_exact"),
        (equivariant_homology, "kernel_exact"),
    ]:
        monkeypatch.setattr(owner, name, record(name, getattr(owner, name)))
    specht_matrices.cache_clear()
    multiplicity_space.cache_clear()
    for lam in partitions_of(7):
        specht_matrices(lam)
    assert calls == []
    for p in (7, 8, 9):
        for rep in chain_orbits(7, p):
            for lam in partitions_of(7):
                multiplicity_space(lam, rep)
    assert calls == []


def test_multiplicity_space_moves_past_a_rank_deficient_prime(monkeypatch):
    # eps is trivial on this order-2 stabilizer, so on the trivial module
    # P = (2): rank 1 over Q but 0 mod 2, and the prime 2 must be passed over
    n, lam = 5, (5,)
    rep = next(
        r
        for p in (n, n + 1, n + 2)
        for r in chain_orbits(n, p)
        if len(signed_stabilizer(r)) == 2 and all(eps == 1 for _, eps in signed_stabilizer(r))
    )
    multiplicity_space.cache_clear()
    want = multiplicity_space(lam, rep)
    assert want.shape == (1, 1)
    tried = []
    real = linalg.rref_modp
    monkeypatch.setattr(linalg, "rref_modp", lambda a, p: tried.append(p) or real(a, p))
    monkeypatch.setattr(linalg, "PRIMES", (2,) + linalg.PRIMES)
    multiplicity_space.cache_clear()
    assert np.array_equal(multiplicity_space(lam, rep), want)
    assert tried == [2, linalg.PRIMES[1]]
    monkeypatch.setattr(linalg, "PRIMES", (2,))
    multiplicity_space.cache_clear()
    with pytest.raises(RankCertificateError):
        multiplicity_space(lam, rep)
    multiplicity_space.cache_clear()


def test_block_assembly_refuses_entries_beyond_int64():
    # two terms of 2**61 in one cell would reach 2**62: refused before any
    # entry is written; one less in each and the sum is assembled exactly
    terms = (((0, 1, 0), (0, 1, 0)),)
    big = np.full((1, 1), 1 << 61, dtype=np.int64)
    with pytest.raises(OverflowError):
        equivariant_homology._precompose_block(terms, [big], 1)
    assert equivariant_homology._precompose_block(terms, [big - 1], 1).tolist() == [[(1 << 62) - 2]]


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicities_match_the_group_average(n):
    # rank of the brute-force n!-term average (n!/d) p11 over every basis
    # vector is m_lam(C_p), independently of stabilizers and Frobenius
    for p in (n, n + 1, n + 2):
        actions = {g: act(g, p).matrix() for g in itertools.permutations(range(n))}
        for lam in partitions_of(n):
            rho = specht_matrices(lam)
            image = sum(int(rho.matrix(inverse(g))[0, 0]) * a for g, a in actions.items())
            want = sum(multiplicity_space(lam, r).shape[1] for r in chain_orbits(n, p))
            assert rank_exact(image) == want


def test_block_ranks_independent_of_representatives():
    # replacing each orbit representative r by the canonical form of
    # sigma . r, for random sigma, leaves every block rank unchanged
    rng = np.random.default_rng(41)
    for n in (4, 5):
        for lam in partitions_of(n):
            moved = tuple(
                tuple(
                    canonical_form(relabel(r, tuple(rng.permutation(n).tolist())))
                    for r in chain_orbits(n, p)
                )
                for p in (n, n + 1, n + 2)
            )
            assert moved != tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2))
            assert isotypic_block_ranks(lam, n, moved) == isotypic_block_ranks(lam, n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_multiplicities(n):
    found = {}
    for lam in partitions_of(n):
        k = kernel_multiplicity(lam, n)
        assert k >= 0
        if k:
            found[lam] = k
    assert found == GOLDEN_MULTS[n]
    total = sum(k * hook_dimension(lam) for lam, k in found.items())
    assert total == betti(n)[0]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_homology_character_top(n):
    assert homology_character_top(n).as_ints() == GOLDEN_TOP[n]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_homology_character_next(n):
    ch = homology_character_next(n, homology_character_top(n))
    assert ch.as_ints() == GOLDEN_NEXT[n]
    mults = decompose(ch)
    assert all(k > 0 for k in mults.values())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_character_oracle_agrees(n):
    oracle = kernel_character_oracle(n)
    assert oracle.as_ints() == homology_character_top(n).as_ints()
    assert oracle.at((1,) * n) == betti(n)[0]
