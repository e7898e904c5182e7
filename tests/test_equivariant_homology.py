import itertools

import numpy as np
import pytest

from delta2n import (
    InternalConsistencyError,
    RankCertificateError,
    chain_complex,
    clear_caches,
    equivariant_homology,
    linalg,
    symmetric_group,
    theta_graphs,
)
from delta2n.chain_complex import betti, boundary_matrix, build_basis
from delta2n.equivariant_homology import (
    IsotypicRanks,
    act,
    chain_character,
    homology_character_next,
    homology_character_top,
    isotypic_block_ranks,
    isotypic_ranks,
    kernel_character_oracle,
    kernel_multiplicity,
)
from delta2n.linalg import rank_exact
from delta2n.symmetric_group import (
    class_representative,
    decompose,
    hook_dimension,
    partitions_of,
    specht_matrices,
)
from delta2n.theta_graphs import (
    UNMARKED,
    MalformedGraphError,
    ThetaGraph,
    canonicalize,
    chain_orbits,
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


def action_matrix(sigma, p):
    """act(sigma, p) as a dense matrix A, so that A x = gsgn * x[gidx]."""
    gidx, gsgn = act(sigma, p)
    out = np.zeros((gidx.size, gidx.size), dtype=np.int64)
    out[np.arange(gidx.size), gidx] = gsgn
    return out


def multiplicity_space(lam, rep):
    """W_o for the orbit of rep, as the blocks build it: ``_fixed_columns``
    of the projection of rep's orbit alone, with slot i the i-th element h of
    rep's signed stabilizer, each slot of sign 1."""
    stab = signed_stabilizer(rep)
    mats = np.array(specht_matrices(lam).matrices([h for h, _ in stab]))
    slots = tuple((eps, i) for i, (_, eps) in enumerate(stab))
    projection = equivariant_homology._projections((rep,), (slots,), mats, (1,) * len(stab))
    return equivariant_homology._fixed_columns(*projection)


def test_act_identity():
    for n, p in [(4, 6), (5, 7)]:
        gidx, gsgn = act(tuple(range(n)), p)
        dim = build_basis(n, p).dim
        assert np.array_equal(gidx, np.arange(dim))
        assert np.all(gsgn == 1)


@pytest.mark.parametrize("n,p", [(4, 6), (5, 7), (6, 8)])
def test_act_is_homomorphism(n, p):
    rng = np.random.default_rng(5)
    for _ in range(4):
        sigma = tuple(rng.permutation(n).tolist())
        tau = tuple(rng.permutation(n).tolist())
        (s_idx, s_sgn), (t_idx, t_sgn) = act(sigma, p), act(tau, p)
        st_idx, st_sgn = act(tuple(sigma[x] for x in tau), p)
        # (st . x)[b] = (s . (t . x))[b] = s_sgn[b] t_sgn[s_idx[b]] x[t_idx[s_idx[b]]]
        assert np.array_equal(st_idx, t_idx[s_idx])
        assert np.array_equal(st_sgn, s_sgn * t_sgn[s_idx])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_act_matches_per_graph_canonicalization(n):
    rng = np.random.default_rng(11)
    for p in (n, n + 1, n + 2):
        graphs = build_basis(n, p).graphs
        index = {g: i for i, g in enumerate(graphs)}
        for _ in range(3):
            sigma = tuple(rng.permutation(n).tolist())
            want = [canonicalize(relabel(g, sigma)) for g in graphs]
            # sigma . e_c = s e_t is column c of the action matrix
            expected = np.zeros((len(graphs), len(graphs)), dtype=np.int64)
            expected[[index[t] for t, _ in want], np.arange(len(graphs))] = [s for _, s in want]
            assert np.array_equal(action_matrix(sigma, p), expected)


def test_act_raises_on_a_key_missing_from_the_basis(monkeypatch):
    real = chain_complex.basis_arrays
    monkeypatch.setattr(
        chain_complex,
        "basis_arrays",
        lambda n, p: real(n, p)._replace(keys=np.delete(real(n, p).keys, 7)),
    )
    with pytest.raises(InternalConsistencyError, match="moves a graph out of C_7"):
        act((1, 0, 2, 3, 4), 7)


def test_kernel_trace_oracle_rejects_a_wrong_action_sign(monkeypatch):
    # one flipped sign in each non-identity action breaks kernel invariance
    real = equivariant_homology.act

    def flipped(sigma, p):
        gidx, gsgn = real(sigma, p)
        if list(sigma) != sorted(sigma):
            gsgn[0] *= -1
        return gidx, gsgn

    monkeypatch.setattr(equivariant_homology, "act", flipped)
    with pytest.raises(InternalConsistencyError, match="kernel is not invariant"):
        kernel_character_oracle(5)


@pytest.mark.parametrize("sigma", [(0, 0, 2, 3), (1, 2, 3, 4), (0, 1, 2, -1)])
def test_act_rejects_non_permutation(sigma):
    with pytest.raises(MalformedGraphError):
        act(sigma, 6)


def test_swap_fixes_two_marked_theta_evenly():
    # both markings subdividing distinct paths: the marking swap extends to
    # an even automorphism, so the cell is fixed with sign +1
    t1 = ThetaGraph(UNMARKED, UNMARKED, ((), (0,), (1,)))
    iso = canonicalize(relabel(t1, (1, 0)))
    assert iso.target == canonicalize(t1).target
    assert iso.sign == canonicalize(t1).sign


def test_chain_character_identity_is_dim():
    for n in (4, 5, 6):
        for p in (n, n + 1, n + 2):
            ch = chain_character(n, p)
            assert ch[0] == build_basis(n, p).dim


def test_chain_character_n5_top_dim():
    assert partitions_of(5)[0] == (1, 1, 1, 1, 1)
    assert chain_character(5, 7)[0] == 60


def test_chain_character_is_a_read_only_int64_row():
    ch = chain_character(5, 6)
    assert ch.dtype == np.int64 and ch.shape == (len(partitions_of(5)),)
    assert not ch.flags.writeable
    with pytest.raises(ValueError):
        ch[0] += 1
    assert chain_character(5, 6) is ch


def test_chain_character_rejects_a_wrong_stabilizer(monkeypatch):
    # with the last element of every stabilizer of 3 or more elements
    # dropped, the summed formula gives -16/3 on class (2, 2, 1) of C_7
    real = equivariant_homology.signed_stabilizer
    monkeypatch.setattr(
        equivariant_homology,
        "signed_stabilizer",
        lambda rep: real(rep)[:-1] if len(real(rep)) >= 3 else real(rep),
    )
    chain_character.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="non-integral value"):
            chain_character(5, 7)
    finally:
        chain_character.cache_clear()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chain_characters_decompose_integrally(n):
    for p in (n, n + 1, n + 2):
        mults = decompose(n, chain_character(n, p))
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
            lo, hi = action_matrix(sigma, p - 1), action_matrix(sigma, p)
            assert np.array_equal(lo @ d, d @ hi)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_induced_chain_character_matches_action_traces(n):
    for p in (n, n + 1, n + 2):
        traces = [
            int(np.trace(action_matrix(class_representative(mu), p))) for mu in partitions_of(n)
        ]
        assert chain_character(n, p).tolist() == traces


@pytest.mark.parametrize("n", [4, 5, 6])
def test_multiplicity_spaces_are_fixed_and_full(n):
    # each column of W_o is an eps-eigenvector of every stabilizer element,
    # and dim W_o = <eps, Res chi_lam>_H by Frobenius reciprocity
    for p in (n, n + 1, n + 2):
        for rep in chain_orbits(n, p):
            stab = signed_stabilizer(rep)
            for lam in partitions_of(n):
                mats = specht_matrices(lam).matrices([h for h, _ in stab])
                w = multiplicity_space(lam, rep)
                for (_, eps), rho_h in zip(stab, mats):
                    assert np.array_equal(rho_h @ w, eps * w)
                inner = sum(eps * int(np.trace(rho_h)) for (_, eps), rho_h in zip(stab, mats))
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
        (equivariant_homology, "kernel_exact"),
    ]:
        monkeypatch.setattr(owner, name, record(name, getattr(owner, name)))
    specht_matrices.cache_clear()
    for lam in partitions_of(7):
        specht_matrices(lam)
    assert calls == []
    for p in (7, 8, 9):
        for rep in chain_orbits(7, p):
            for lam in partitions_of(7):
                multiplicity_space(lam, rep)
    assert calls == []


def test_single_graph_forms_go_through_canonicalize(monkeypatch):
    # perfbench's theta_graphs.canonicalize.calls counts this name, so the
    # orbit representatives and boundary terms the blocks need must reach it
    calls = []
    real = theta_graphs.canonicalize
    monkeypatch.setattr(theta_graphs, "canonicalize", lambda g: calls.append(g) or real(g))
    clear_caches()
    equivariant_homology.isotypic_ranks(5)
    assert len(calls) > 0


def test_multiplicity_space_moves_past_a_rank_deficient_prime(monkeypatch):
    # the degree-6 orbit of n = 4 with |H| = 4 on S^(3,1): P has rank 1 of
    # d = 3 over Q but 0 mod 2, so only an elimination finds its column, and
    # the prime 2 must be passed over
    n, lam = 4, (3, 1)
    rep = next(r for r in chain_orbits(n, n + 2) if len(signed_stabilizer(r)) == 4)
    want = multiplicity_space(lam, rep)
    assert want.shape == (3, 1)
    tried = []
    real = linalg.rref_modp
    monkeypatch.setattr(linalg, "rref_modp", lambda a, p: tried.append(p) or real(a, p))
    monkeypatch.setattr(linalg, "PRIMES", (2,) + linalg.PRIMES)
    assert np.array_equal(multiplicity_space(lam, rep), want)
    assert tried == [2, linalg.PRIMES[1]]
    monkeypatch.setattr(linalg, "PRIMES", (2,))
    with pytest.raises(RankCertificateError):
        multiplicity_space(lam, rep)


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicity_spaces_the_trace_decides_run_no_elimination(n, monkeypatch):
    # tr P / |H| = 0 gives P = 0 and no column, and tr P / |H| = d gives
    # P = |H| I and every column of P, with no rref_modp; both occur here
    tried = []
    real = linalg.rref_modp
    monkeypatch.setattr(linalg, "rref_modp", lambda a, p: tried.append(p) or real(a, p))
    seen = set()
    for lam in partitions_of(n):
        d = hook_dimension(lam)
        for p in (n, n + 1, n + 2):
            for rep in chain_orbits(n, p):
                stab = signed_stabilizer(rep)
                mats = np.array(specht_matrices(lam).matrices([h for h, _ in stab]))
                proj = sum(eps * m for (_, eps), m in zip(stab, mats))
                r = int(np.trace(proj)) // len(stab)
                if r not in (0, d):
                    continue
                seen.add(r == d)
                space = multiplicity_space(lam, rep)
                assert np.array_equal(space, proj if r else np.zeros((d, 0), dtype=np.int64))
    assert seen == {False, True} and tried == []


def test_empty_stabilizer_gives_no_projection():
    # P = 0 and |H| = 0 pass P^2 = |H| P, but a stabilizer holds the identity
    rep = chain_orbits(5, 5)[0]
    mats = np.array(specht_matrices((3, 2)).matrices([tuple(range(5))]))
    with pytest.raises(InternalConsistencyError, match="does not give a projection"):
        equivariant_homology._projections((rep,), ((),), mats, (1,))


def test_projectors_refuse_entries_beyond_int64():
    # a stabilizer of two elements on rho = 2**61 could reach 2**62: refused
    # before any sum; one less passes the bound, and P^2 = |H| P then fails
    rep = chain_orbits(5, 5)[0]
    stab = ((1, 0), (1, 0))
    big = np.full((1, 1, 1), 1 << 61, dtype=np.int64)  # a stack of one slot
    with pytest.raises(OverflowError):
        equivariant_homology._projections((rep,), (stab,), big, (1,))
    with pytest.raises(InternalConsistencyError, match="does not give a projection"):
        equivariant_homology._projections((rep,), (stab,), big - 1, (1,))


def test_block_assembly_refuses_entries_beyond_int64():
    # two terms of 2**61 in one cell would reach 2**62: refused before any
    # sum or product is formed; one less in each and the sum is taken exactly
    terms = (((0, ((1, 0), (1, 0))),),)  # one upper orbit, two terms to orbit 0
    big = np.full((1, 1, 1), 1 << 61, dtype=np.int64)  # a stack of one slot
    x = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(OverflowError):
        equivariant_homology._precompose(terms, big, (1,), x)
    got, _ = equivariant_homology._precompose(terms, big - 1, (1,), x)
    assert got.tolist() == [[(1 << 62) - 2]]


def _orbit_boundary(terms, mats, signs, lower):
    """The orbit boundary F of one degree in S^lam coordinates, (d * upper
    orbits) x (d * lower orbits), its block (o, j) summing c s signs[k]
    rho(tau) over the terms of d(r_o) that reach orbit j, term by term."""
    d = mats[0].shape[0]
    out = np.zeros((d * len(terms), d * lower), dtype=np.int64)
    for i, upper in enumerate(terms):
        for j, pairs in upper:
            for coef, k in pairs:
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] += coef * signs[k] * mats[k]
    return out


@pytest.mark.parametrize("n", [5, 6, 7])
def test_precompose_is_the_assembled_boundary_times_x(n):
    # F x without F equals F, built from the plan, times x for the
    # multiplicity spaces of both lower degrees and for the next block, with
    # every slot of sign 1 and with the twist's slot signs
    precompose = equivariant_homology._precompose
    rng = np.random.default_rng(n)
    reps = tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2))
    plan = equivariant_homology._block_plan(reps)
    for lam in partitions_of(n):
        specht = specht_matrices(lam)
        mats = symmetric_group._sweep(specht.generators, plan.tree, specht.dim)
        for signs in ((1,) * len(plan.parity), plan.parity):
            proj, ranks = equivariant_homology._projections(
                sum(reps, ()), sum(plan.stabilizers, ()), mats, signs
            )
            a, b = len(reps[0]), len(reps[0]) + len(reps[1])
            spaces = [equivariant_homology._fixed_columns(proj[i:j], ranks[i:j])
                      for i, j in ((0, a), (a, b))]
            f_next, f_top = (
                _orbit_boundary(plan.terms[i], mats, signs, len(reps[i])) for i in (0, 1)
            )
            block_next, vanishes = precompose(plan.terms[0], mats, signs, spaces[0])
            assert vanishes and np.array_equal(block_next, linalg.int_matmul(f_next, spaces[0]))
            # F_top block_next is 0 by d^2 = 0: a dense x checks a nonzero product too
            x = rng.integers(-3, 4, size=(f_top.shape[1], 3))
            for a in (spaces[1], block_next, x):
                got, vanishes = precompose(plan.terms[1], mats, signs, a, block_next)
                assert vanishes and np.array_equal(got, linalg.int_matmul(f_top, a))
            vanishes = precompose(plan.terms[1], mats, signs, block_next, x)[1]
            assert vanishes == (not linalg.int_matmul(f_top, x).any())


def test_precompose_makes_one_sum_and_one_product_per_upper_orbit(monkeypatch):
    # all G_oj of an upper orbit o come from one checked sum and meet the x_j
    # in one product, and the top degree's sums also serve the d^2 check, with
    # one more product each: for one member at n = 6, 5 sums and 8 products,
    # where one sum and one product per (o, j) pair, a sum per row block and
    # a second pass for the check took 17 sums and 10 products
    n = 6
    plan = equivariant_homology._block_plan(tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2)))
    sums, products, counts = [], [], []
    real_sums, real_matmul = equivariant_homology._signed_sums, linalg._int64_matmul
    real_precompose = equivariant_homology._precompose

    def precompose(*args):
        before = len(sums), len(products)
        out = real_precompose(*args)
        counts.append((len(sums) - before[0], len(products) - before[1]))
        return out

    monkeypatch.setattr(
        equivariant_homology, "_signed_sums", lambda *a: sums.append(1) or real_sums(*a)
    )
    monkeypatch.setattr(
        equivariant_homology, "_int64_matmul", lambda *a: products.append(1) or real_matmul(*a)
    )
    monkeypatch.setattr(equivariant_homology, "_precompose", precompose)
    isotypic_block_ranks((6,), n)  # (6,) is built for itself: one member
    uppers = [sum(1 for upper in terms if upper) for terms in plan.terms]
    pairs = [sum(len(upper) for upper in terms) for terms in plan.terms]
    assert uppers == [2, 3] and pairs == [2, 4]
    # d_{n+1} on W_n, then d_{n+2} on W_{n+1}, checked on block_next
    assert counts == [(2, 2), (3, 6)]
    # and one sum for every P_o of the three degrees
    assert len(sums) == 5 + 1


@pytest.mark.parametrize("n", [5, 6, 7])
def test_blocks_read_a_read_only_rho_stack(n, monkeypatch):
    # neither member of a conjugate pair writes the shared stack: with the
    # sweep's result made read-only, every rank is unchanged
    want = isotypic_ranks(n)
    sweep = equivariant_homology._sweep

    def frozen(*args):
        stack = sweep(*args)
        stack.setflags(write=False)
        return stack

    monkeypatch.setattr(equivariant_homology, "_sweep", frozen)
    clear_caches()
    assert isotypic_ranks(n) == want


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicities_match_the_group_average(n):
    # rank of the brute-force n!-term average (n!/d) p11 over every basis
    # vector is m_lam(C_p), independently of stabilizers and Frobenius
    for p in (n, n + 1, n + 2):
        perms = list(itertools.permutations(range(n)))
        actions = [action_matrix(g, p) for g in perms]
        inverses = [tuple(np.argsort(g).tolist()) for g in perms]
        for lam in partitions_of(n):
            r11 = [int(m[0, 0]) for m in specht_matrices(lam).matrices(inverses)]
            image = sum(r * a for r, a in zip(r11, actions))
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
                    canonicalize(relabel(r, tuple(rng.permutation(n).tolist()))).target
                    for r in chain_orbits(n, p)
                )
                for p in (n, n + 1, n + 2)
            )
            assert moved != tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2))
            assert isotypic_block_ranks(lam, n, moved) == isotypic_block_ranks(lam, n)


def test_isotypic_ranks_build_one_specht_module_and_sweep_per_conjugate_pair(monkeypatch):
    # the 11 partitions of 6 form 6 conjugate pairs; the later member of each
    # is built, and the plan is swept once for it
    built, swept = [], []
    rep, sweep = symmetric_group.SpechtRep, equivariant_homology._sweep
    monkeypatch.setattr(symmetric_group, "SpechtRep", lambda lam: built.append(lam) or rep(lam))
    monkeypatch.setattr(equivariant_homology, "_sweep", lambda *a: swept.append(1) or sweep(*a))
    clear_caches()
    equivariant_homology.isotypic_ranks(6)
    assert built == [(3, 2, 1), (3, 3), (4, 1, 1), (4, 2), (5, 1), (6,)]
    assert len(swept) == 6


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_paired_ranks_match_each_lambda_built_alone(n, monkeypatch):
    # a conjugate pair shares one sweep, and a single lambda twists the
    # module of its conjugate when that comes later; with no conjugates,
    # every lambda reads Young's natural representation of itself
    paired = equivariant_homology.isotypic_ranks(n)
    assert list(paired) == list(partitions_of(n))
    single = {lam: isotypic_block_ranks(lam, n) for lam in partitions_of(n)}
    monkeypatch.setattr(equivariant_homology, "conjugate_partition", lambda lam: lam)
    alone = {lam: isotypic_block_ranks(lam, n) for lam in partitions_of(n)}
    assert paired == single == alone


def test_corrupted_conjugate_row_fails_the_twist_check(monkeypatch):
    # (2,1,1,1) reads the Specht module of (4,1) through the sign twist, so a
    # wrong value in its row of the character table stops it; (4,1) itself
    # does not read that row
    real = equivariant_homology.character_table

    def corrupt(n):
        table = real(n).copy()
        table[partitions_of(n).index((2, 1, 1, 1)), -1] += 1
        return table

    want = isotypic_block_ranks((4, 1), 5)
    monkeypatch.setattr(equivariant_homology, "character_table", corrupt)
    named = r"twist of \(4, 1\) does not give \(2, 1, 1, 1\)"
    with pytest.raises(InternalConsistencyError, match=named):
        isotypic_block_ranks((2, 1, 1, 1), 5)
    assert isotypic_block_ranks((4, 1), 5) == want


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
    assert tuple(homology_character_top(n).tolist()) == GOLDEN_TOP[n]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_homology_character_next(n):
    ch = homology_character_next(n)
    assert tuple(ch.tolist()) == GOLDEN_NEXT[n]
    mults = decompose(n, ch)
    assert all(k > 0 for k in mults.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_next_row_satisfies_the_euler_identity(n):
    # H_{n+1} is read from the block ranks; the equivariant Euler identity
    # chi(H_{n+1}) - chi(H_{n+2}) = chi(C_{n+1}) - chi(C_n) - chi(C_{n+2})
    # still holds of the two rows
    euler = chain_character(n, n + 1) - chain_character(n, n) - chain_character(n, n + 2)
    assert (homology_character_next(n) - homology_character_top(n)).tolist() == euler.tolist()


def test_isotypic_ranks_derive_both_homology_multiplicities():
    r = IsotypicRanks((1, 5, 7), (1, 3))
    assert (r.top, r.next) == (7 - 3, 5 - 1 - 3)
    assert tuple(r) == ((1, 5, 7), (1, 3))  # derived values, not fields


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kernel_character_oracle_agrees(n):
    oracle = kernel_character_oracle(n)
    assert oracle.tolist() == homology_character_top(n).tolist()
    assert oracle[0] == betti(n)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_isotypic_ranks_of_an_empty_theta_complex(n):
    # no orbit in any degree: the rho stack has no slot, and every lambda
    # gets zero multiplicities and ranks, so the top character is zero
    assert not any(chain_orbits(n, p) for p in (n, n + 1, n + 2))
    ranks = isotypic_ranks(n)
    assert tuple(ranks) == partitions_of(n)
    assert set(ranks.values()) == {IsotypicRanks((0, 0, 0), (0, 0))}
    assert homology_character_top(n).tolist() == [0] * len(partitions_of(n))
