import numpy as np
import pytest

from delta2n.chain_complex import betti, boundary_matrix, build_basis
from delta2n.equivariant_homology import (
    DEFAULT_SEED,
    act,
    chain_character,
    chain_multiplicities,
    homology_character_next,
    homology_character_top,
    isotypic_seed_basis,
    kernel_character_oracle,
    kernel_multiplicity,
    project_columns,
    projection_scale,
)
from delta2n.symmetric_group import (
    compose,
    decompose,
    hook_dimension,
    identity_perm,
    partitions_of,
)
from delta2n.theta_graphs import MalformedGraphError, canonicalize, make_graph, relabel

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


def test_isotypic_seed_basis_shape_and_idempotence():
    n, p, lam = 5, 7, (3, 1, 1)
    c = chain_multiplicities(n, p)[lam]
    basis = isotypic_seed_basis(lam, n, p)
    assert basis.shape == (60, c)
    scale = projection_scale(lam, n)
    assert np.array_equal(project_columns(lam, n, p, basis), scale * basis)


def test_isotypic_seed_basis_absent_isotype():
    # the all-columns partition does not occur in the n=4 top chain group
    n, p = 4, 6
    mults = chain_multiplicities(n, p)
    missing = [lam for lam in partitions_of(n) if lam not in mults]
    assert missing, "expected at least one absent isotype"
    for lam in missing:
        basis = isotypic_seed_basis(lam, n, p)
        assert basis.shape == (6, 0)
        x = np.ones((6, 1), dtype=np.int64)
        assert not project_columns(lam, n, p, x).any()


def test_seed_determinism_and_independence():
    a = isotypic_seed_basis((3, 2), 5, 7, seed=DEFAULT_SEED)
    b = isotypic_seed_basis((3, 2), 5, 7, seed=DEFAULT_SEED)
    assert np.array_equal(a, b)
    assert kernel_multiplicity((3, 2), 5, seed=7) == kernel_multiplicity((3, 2), 5)


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
