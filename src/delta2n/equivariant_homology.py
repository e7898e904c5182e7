"""Chain and homology characters by orbit-level reduction, plus the signed
S_n-action on chain bases and an independent kernel-trace oracle.

C_p is a sum, over the S_n-orbits o of its basis, of signed induced modules
Ind_{H_o} eps_o, where H_o (at most 12 elements) fixes the representative r_o
up to the sign eps_o.  By Frobenius reciprocity an equivariant map
C_p -> S^lam is one w_o per orbit in W_o = {v : rho(h) v = eps_o(h) v on H_o},
the image of sum_h eps_o(h) rho(h); so m_lam(C_p) = sum_o dim W_o.  With the
terms of d(r_o) written c_j g_j, g_j = s_j tau_j . r_o', precomposing with d_p
gives the value sum_j c_j s_j rho(tau_j) w_o' at r_o: one small exact integer
block per lambda, whose rank is the multiplicity of S^lam in the image of d_p.
H_{n+2} then has k_lam = m_lam(C_{n+2}) - rank.  No global boundary, drawn
vector or group action enters, and every run checks d_{n+1} d_{n+2} = 0 and
d_{n+1} onto on each block, and sum_lam d_lam m_lam(C_p) = dim C_p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .chain_complex import (
    InternalConsistencyError,
    basis_arrays,
    boundary_matrix,
    boundary_terms,
    chain_dim,
    chain_orbits,
    vanishes,
)
from .linalg import (
    _INT64_SAFE,
    _max_abs,
    clear_denominators,
    independent_columns,
    int_matmul,
    kernel_exact,
    rank_exact,
)
from .symmetric_group import (
    ClassFunction,
    NotACharacterError,
    WordTree,
    assemble_character,
    class_representative,
    class_size,
    cycle_type,
    decompose,
    hook_dimension,
    partitions_of,
    specht_matrices,
    word_tree,
)
from .theta_graphs import (
    UNMARKED,
    MalformedGraphError,
    canonical_keys,
    orbit_normal_form,
    orbit_of,
    signed_stabilizer,
)


class SignedAction(NamedTuple):
    """sigma . e_c = sign[c] * e_[image[c]] on a chain basis."""

    degree: int
    image: np.ndarray
    sign: np.ndarray

    def apply(self, x):
        out = np.zeros_like(x)
        out[self.image] = self.sign * x.T if x.ndim == 1 else self.sign[:, None] * x
        return out

    def gather_tables(self):
        """Row form: (A x)[b] = gsgn[b] * x[gidx[b]]."""
        dim = self.image.shape[0]
        gidx = np.empty(dim, dtype=np.int64)
        gsgn = np.empty(dim, dtype=np.int64)
        gidx[self.image] = np.arange(dim)
        gsgn[self.image] = self.sign
        return gidx, gsgn

    def matrix(self):
        dim = self.image.shape[0]
        out = np.zeros((dim, dim), dtype=np.int64)
        out[self.image, np.arange(dim)] = self.sign
        return out

    def trace(self):
        fixed = self.image == np.arange(self.image.shape[0])
        return int(self.sign[fixed].sum())


def act(sigma, p) -> SignedAction:
    """Signed action of a permutation (one-line, 0-based) on the degree-p basis:
    the basis label rows relabeled by lookup, canonicalized by integer keys
    and found in the basis keys."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise MalformedGraphError(f"{sigma!r} is not a permutation of 0..{n - 1}")
    basis = basis_arrays(n, p)
    lookup = np.array([*sigma, UNMARKED], dtype=np.int8)  # an unmarked branch stays unmarked
    image = np.empty(len(basis.keys), dtype=np.int64)
    sign = np.empty(len(basis.keys), dtype=np.int64)
    for shape, index, rows in basis.blocks:
        keys, sign[index], _ = canonical_keys(lookup[rows], shape, n + 1)
        image[index], found = basis.locate(keys)
        if not found.all():
            raise InternalConsistencyError(f"{sigma!r} moves a graph out of C_{p}")
    return SignedAction(p, image, sign)


@cache
def chain_character(n, p) -> ClassFunction:
    """Character of C_p by the induced-character formula:
    chi(mu) = sum_o |C(mu)| / |H_o| * sum of eps_o(h) over h in H_o of type mu,
    where |C(mu)| = n! / |class mu| is the centralizer order."""
    values = dict.fromkeys(partitions_of(n), Fraction(0))
    for rep in chain_orbits(n, p):
        stab = signed_stabilizer(rep)
        for h, eps in stab:
            mu = cycle_type(h)
            values[mu] += Fraction(factorial(n), class_size(mu) * len(stab)) * eps
    return ClassFunction.from_dict(n, values)


@cache
def multiplicity_space(lam, rep) -> np.ndarray:
    """Integer columns spanning W = {v in S^lam : rho(h) v = eps(h) v on the
    stabilizer of rep}: independent columns of P = sum_h eps(h) rho(h).

    P^2 = |H| P is checked, so P / |H| is the projection onto W, and
    dim W = rank P = tr P / |H| exactly; no kernel is lifted.
    """
    stab = signed_stabilizer(rep)
    mats = specht_matrices(lam).matrices(h for h, _ in stab)
    return _fixed_columns(rep, [eps for _, eps in stab], mats)


def _fixed_columns(rep, signs, mats) -> np.ndarray:
    """``multiplicity_space`` from the signs eps(h) and the matrices rho(h)
    of rep's signed stabilizer."""
    d = mats[0].shape[0]
    proj = int_matmul(np.array([signs]), np.stack([m.ravel() for m in mats])).reshape(d, d)
    square = int_matmul(proj, proj)
    # an int64 square bounds |P| far below 2**62 / |H|, so |H| P fits as well
    if not np.array_equal(square, len(signs) * proj.astype(square.dtype)):
        raise InternalConsistencyError(f"stabilizer of {rep} does not give a projection")
    rank, rest = divmod(int(np.trace(proj)), len(signs))
    if rest:
        raise InternalConsistencyError(f"projection of the stabilizer of {rep} has trace not in |H| Z")
    return proj[:, independent_columns(proj, rank)]


# perfbench/tracer.py times the multiplicity spaces under this older name
# (equivariant_homology.isotypic_seed_basis.s); the tracer rebinds every
# reference to the function, so the blocks' calls of _fixed_columns are the
# ones it times.  The tracer itself only reports a missing name as absent,
# but test_tracer_survives_missing_and_private_targets in
# perfbench/test_gate.py requires the absent list to be exactly the names it
# injects, so every name the tracer traces has to exist
isotypic_seed_basis = _fixed_columns


def _orbit_terms(rep, lower):
    """d(rep) as (index into lower, c_j * s_j, tau_j) triples."""
    index = {orbit_of(r): j for j, r in enumerate(lower)}
    for target, coef in boundary_terms(rep):
        j = index.get(orbit_of(target))
        if j is None:
            if vanishes(target):
                continue
            raise InternalConsistencyError(f"contraction of {rep} left the basis")
        form = orbit_normal_form(target, lower[j])
        yield j, coef * form.sign, form.tau


class _BlockPlan(NamedTuple):
    """What every lambda block of one n reads.  Permutations are slots of
    ``tree``: stabilizers[i][o] lists (slot of h, eps(h)) over the signed
    stabilizer of orbit o of degree n + i, and terms[i][o] lists (lower
    orbit j, c_j s_j, slot of tau_j) over the terms of d(r_o), r_o of degree
    n + i + 1."""

    stabilizers: tuple
    terms: tuple
    tree: WordTree


@cache
def _block_plan(reps) -> _BlockPlan:
    """The plan of the orbits ``reps`` (degrees n, n+1, n+2): the lambda
    blocks share its stabilizers, boundary terms and the WordTree of every
    permutation they name."""
    perms = {}

    def slot(perm):
        return perms.setdefault(tuple(perm), len(perms))

    stabilizers = tuple(
        tuple(tuple((slot(h), eps) for h, eps in signed_stabilizer(rep)) for rep in degree)
        for degree in reps
    )
    terms = tuple(
        tuple(
            tuple((j, coef, slot(tau)) for j, coef, tau in _orbit_terms(rep, lower))
            for rep in upper
        )
        for lower, upper in zip(reps, reps[1:])
    )
    return _BlockPlan(stabilizers, terms, word_tree(perms))


def _precompose_block(terms, mats, lower):
    """The map (v_o') -> (sum_j c_j s_j rho(tau_j) v_o')_o over the upper
    orbits, in S^lam coordinates, in int64: ``terms`` are the plan's for one
    degree, ``mats`` the rho of its slots and ``lower`` the number of lower
    orbits.  OverflowError before assembly unless sum |c_j| max|rho(tau_j)|,
    a bound on every entry, is below 2**62."""
    d = mats[0].shape[0]
    bound = sum(abs(coef) * _max_abs(mats[k]) for upper in terms for _, coef, k in upper)
    if bound >= _INT64_SAFE:
        raise OverflowError(f"a block entry may reach {bound}, beyond int64")
    out = np.zeros((d * len(terms), d * lower), dtype=np.int64)
    for i, upper in enumerate(terms):
        for j, coef, k in upper:
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] += coef * mats[k]
    return out


def _stacked_spaces(reps, stabilizers, mats):
    """Block-diagonal int64 matrix of the multiplicity spaces of the given
    orbits, from the plan's stabilizers and the rho of its slots."""
    d = mats[0].shape[0]
    spaces = [
        _fixed_columns(rep, [eps for _, eps in stab], [mats[k] for k, _ in stab])
        for rep, stab in zip(reps, stabilizers)
    ]
    out = np.zeros((d * len(reps), sum(w.shape[1] for w in spaces)), dtype=np.int64)
    col = 0
    for i, w in enumerate(spaces):
        out[i * d : (i + 1) * d, col : col + w.shape[1]] = w
        col += w.shape[1]
    return out


class IsotypicRanks(NamedTuple):
    mults: tuple  # m_lam(C_p) for p = n, n+1, n+2
    ranks: tuple  # ranks of d_{n+1}, d_{n+2} on the lam blocks


def isotypic_block_ranks(lam, n, reps=None) -> IsotypicRanks:
    """Exact ranks of the lam blocks of d_{n+1} and d_{n+2}; raises
    InternalConsistencyError unless d_{n+1} d_{n+2} = 0 and d_{n+1} is onto on
    them.  ``reps`` holds representatives of the orbits of degrees n, n+1, n+2
    (default ``chain_orbits``); any canonical graphs of those orbits will do."""
    if reps is None:
        reps = tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2))
    plan = _block_plan(reps)
    mats = specht_matrices(lam).matrices(plan.tree)
    spaces = [_stacked_spaces(r, s, mats) for r, s in zip(reps, plan.stabilizers)]
    mults = tuple(w.shape[1] for w in spaces)
    full_next = _precompose_block(plan.terms[0], mats, len(reps[0]))
    full_top = _precompose_block(plan.terms[1], mats, len(reps[1]))
    del mats  # every rho(sigma) is now inside the blocks: free them before the products
    block_next = int_matmul(full_next, spaces[0])
    block_top = int_matmul(full_top, spaces[1])
    if np.any(int_matmul(full_top, block_next)):
        raise InternalConsistencyError(f"d_{n+1} . d_{n+2} != 0 on the {lam} block at n={n}")
    ranks = (rank_exact(block_next), rank_exact(block_top))
    if ranks[0] != mults[0]:
        raise InternalConsistencyError(f"d_{n+1} is not onto on the {lam} block at n={n}")
    return IsotypicRanks(mults, ranks)


@cache
def isotypic_ranks(n) -> dict:
    """isotypic_block_ranks for every lambda, with sum_lam d_lam m_lam(C_p)
    checked against dim C_p (by orbit-stabilizer) in each degree."""
    out = {lam: isotypic_block_ranks(lam, n) for lam in partitions_of(n)}
    for i, p in enumerate((n, n + 1, n + 2)):
        total = sum(hook_dimension(lam) * r.mults[i] for lam, r in out.items())
        if total != chain_dim(n, p):
            raise InternalConsistencyError(
                f"isotypic multiplicities of C_{p} add up to {total}, "
                f"but dim C_{p} = {chain_dim(n, p)} at n={n}"
            )
    return out


def kernel_multiplicity(lam, n) -> int:
    """Multiplicity of S^lam in ker d_{n+2} = H_{n+2}."""
    r = isotypic_ranks(n)[lam]
    return r.mults[2] - r.ranks[1]


def homology_character_top(n) -> ClassFunction:
    """Character of H_{n+2} = ker d_{n+2} from the per-irreducible multiplicities."""
    mults = {}
    for lam in partitions_of(n):
        k = kernel_multiplicity(lam, n)
        if k:
            mults[lam] = k
    return assemble_character(n, mults)


def homology_character_next(n, top: ClassFunction) -> ClassFunction:
    """Character of H_{n+1} from the equivariant Euler-characteristic identity.

    ``top`` is the character of H_{n+2} the caller already computed; the
    result is chi(C_{n+1}) - chi(C_n) - chi(C_{n+2}) + top. So ``nxt - top``
    depends on the chain characters alone, and ``check_euler`` on the pair
    cannot see an error in ``top``.
    """
    nxt = chain_character(n, n + 1) - chain_character(n, n) - chain_character(n, n + 2) + top
    try:
        decompose(nxt)
    except NotACharacterError as exc:
        raise InternalConsistencyError(f"H_{n+1} character is not a character: {exc}")
    return nxt


def kernel_character_oracle(n) -> ClassFunction:
    """Character of ker d_{n+2} by exact change of basis, no projections.

    For each class representative sigma, solves K X = A_sigma K exactly using
    the echelon structure of the kernel basis K and returns trace(X).  All of
    it runs in integers: with L the lcm of K's denominators, L X is read off
    the free rows of L A K, and (L K)[pivots] (L X) = L (L A K)[pivots] is
    checked through ``int_matmul``.
    """
    d = boundary_matrix(n, n + 2)
    _, kern, pivots, free = kernel_exact(d)
    width = kern.shape[1]
    lk, scale = clear_denominators(kern)
    values = {}
    for mu in partitions_of(n):
        sigma = class_representative(mu)
        gidx, gsgn = act(sigma, n + 2).gather_tables()
        lak = gsgn[:, None] * lk[gidx]
        lx = lak[free]  # kern[free] = identity, so these rows pin L X
        if not np.array_equal(int_matmul(lk[pivots], lx), scale * lak[pivots]):
            raise InternalConsistencyError(
                f"kernel is not invariant under class {mu}: sign/action bug"
            )
        tr, rest = divmod(int(sum(lx[i, i] for i in range(width))), scale)
        if rest:
            raise InternalConsistencyError(f"non-integral kernel trace at {mu}")
        values[mu] = tr
    return ClassFunction.from_dict(n, values)
