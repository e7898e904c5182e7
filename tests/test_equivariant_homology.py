import numpy as np
import pytest

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
from delta2n.kernels import project_stream
from delta2n.linalg import rank_exact
from delta2n.symmetric_group import (
    ClassFunction,
    class_representative,
    compose,
    decompose,
    hook_dimension,
    identity_perm,
    partitions_of,
    sjt_swaps,
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
        a = act(identity_perm(n), p)
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


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicities_match_the_group_average(n):
    # rank of the brute-force n!-term average (n!/d) p11 over every basis
    # vector is m_lam(C_p), independently of stabilizers and Frobenius
    for p in (n, n + 1, n + 2):
        dim = build_basis(n, p).dim
        swaps = [list(range(n)) for _ in range(n - 1)]
        for j, t in enumerate(swaps):
            t[j], t[j + 1] = j + 1, j
        gidx, gsgn = (np.stack(t) for t in zip(*(act(t, p).gather_tables() for t in swaps)))
        for lam in partitions_of(n):
            rgen = np.stack(specht_matrices(lam).generators)
            image = project_stream(sjt_swaps(n), gidx, gsgn, rgen, np.eye(dim, dtype=np.int64))
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


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_character_oracle_agrees(n):
    oracle = kernel_character_oracle(n)
    assert oracle.as_ints() == homology_character_top(n).as_ints()
    assert oracle.at((1,) * n) == betti(n)[0]
