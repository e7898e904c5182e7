"""Chain and homology characters by orbit-level reduction, plus the signed
S_n-action on chain bases and an independent kernel-trace oracle.

C_p is a sum, over the S_n-orbits o of its basis, of signed induced modules
Ind_{H_o} eps_o, where H_o (at most 12 elements) fixes the representative r_o
up to the sign eps_o.  By Frobenius reciprocity an equivariant map
C_p -> S^lam is one w_o per orbit in W_o = {v : rho(h) v = eps_o(h) v on H_o},
the image of P_o = sum_h eps_o(h) rho(h); so m_lam(C_p) = sum_o tr P_o / |H_o|.
With the terms of d(r_o) written c_j g_j, g_j = s_j tau_j . r_o', precomposing
with d_p gives sum_j c_j s_j rho(tau_j) w_o' at r_o: one small exact integer
block per lambda, whose rank is the multiplicity of S^lam in the image of d_p.
S^lam then occurs k_lam = m_lam(C_{n+2}) - rank d_{n+2} times in H_{n+2} and
k'_lam = m_lam(C_{n+1}) - rank d_{n+1} - rank d_{n+2} times in H_{n+1}.  A
conjugate pair shares one sweep of rho (S^lam' = sgn (x) S^lam), only read.
Each sum of rho is one checked call: all P_o of a member, or all terms of an
upper orbit's boundary.  No global boundary or group action enters, and every
run checks d_{n+1} d_{n+2} = 0 and d_{n+1} onto on each block, sum_lam
m_lam(C_p) chi_lam = chi(C_p) on every class, and k_lam, k'_lam >= 0.
Characters are int64 rows, one value per class in partitions_of(n) order.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import NamedTuple

import numpy as np

from . import InternalConsistencyError, MalformedGraphError
from .linalg import (
    _int64_matmul,
    independent_columns,
    int_matmul,
    kernel_exact,
    rank_exact,
    signed_sum,
)
from .symmetric_group import (
    WordTree,
    _sweep,
    assemble_character,
    character_table,
    class_representative,
    class_size,
    conjugate_partition,
    cycle_type,
    partitions_of,
    specht_matrices,
    word_tree,
)
from .theta_graphs import (
    UNMARKED,
    boundary_terms,
    chain_orbits,
    orbit_normal_form,
    orbit_of,
    perm_parity,
    signed_stabilizer,
)

# the blocks read orbits alone: only act and kernel_character_oracle import
# chain_complex, the labeled bases and global boundaries


def act(sigma, p):
    """Signed action of a permutation (one-line, 0-based) on the degree-p
    basis as gather tables (gidx, gsgn): (sigma . x)[b] = gsgn[b] *
    x[gidx[b]].  sigma . e_c = s e_b exactly when sigma^-1 . e_b = s e_c, so
    row b is the image of basis graph b under sigma^-1: its label rows
    relabeled by lookup, canonicalized by integer keys and found in the
    basis keys."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise MalformedGraphError(f"{sigma!r} is not a permutation of 0..{n - 1}")
    from .chain_complex import basis_arrays, canonical_keys

    basis = basis_arrays(n, p)
    # sigma^-1 by lookup; an unmarked branch stays unmarked
    lookup = np.array([*np.argsort(sigma), UNMARKED], dtype=np.int8)
    gidx = np.empty(len(basis.keys), dtype=np.int64)
    gsgn = np.empty(len(basis.keys), dtype=np.int64)
    for shape, index, rows in basis.blocks:
        keys, gsgn[index], _ = canonical_keys(lookup[rows], shape, n + 1)
        gidx[index], found = basis.locate(keys)
        if not found.all():
            raise InternalConsistencyError(f"{sigma!r} moves a graph out of C_{p}")
    return gidx, gsgn


@cache
def chain_character(n, p) -> np.ndarray:
    """Character of C_p by the induced-character formula, as a read-only
    int64 row: chi(mu) = sum_o |C(mu)| / |H_o| * sum of eps_o(h) over h in
    H_o of type mu, where |C(mu)| = n! / |class mu| is the centralizer order.
    Each orbit's term is the character of Ind_{H_o} eps_o, an integer; a
    remainder (a wrong stabilizer) raises InternalConsistencyError."""
    column = {mu: j for j, mu in enumerate(partitions_of(n))}
    values = [0] * len(column)
    for rep in chain_orbits(n, p):
        stab = signed_stabilizer(rep)
        sums = {}
        for h, eps in stab:
            mu = cycle_type(h)
            sums[mu] = sums.get(mu, 0) + eps
        for mu, total in sums.items():
            term, rest = divmod(factorial(n) * total, class_size(mu) * len(stab))
            if rest:
                raise InternalConsistencyError(
                    f"stabilizer of {rep} induces a non-integral value on class {mu}"
                )
            values[column[mu]] += term
    out = np.array(values, dtype=np.int64)
    out.flags.writeable = False
    return out


def _signed_sums(groups, mats, signs) -> np.ndarray:
    """The stack of sums of w signs[k] mats[k] over the (w, k) of each group,
    from one ``signed_sum`` with a weight row per group and a column per slot
    named: only those slots are gathered, and the stack is only read."""
    weights = np.zeros((len(groups), len(signs)), dtype=np.int64)
    for i, pairs in enumerate(groups):
        for w, k in pairs:
            weights[i, k] += w * signs[k]
    slots = sorted({k for pairs in groups for _, k in pairs})
    return signed_sum(weights[:, slots], mats[slots])


def _projections(reps, stabilizers, mats, signs):
    """(P, r) for the orbits ``reps``: the stack of P_o = sum_h eps(h) rho(h)
    over their stabilizers, from one checked sum with each slot times its
    sign in ``signs``, and the list of r_o = tr P_o / |H_o| = dim W_o, as
    P_o^2 = |H_o| P_o, checked in one stacked product, makes P_o / |H_o| the
    projection onto W_o = {v in S^lam : rho(h) v = eps(h) v on H_o}."""
    sizes = np.array([len(stab) for stab in stabilizers], dtype=np.int64)
    proj = _signed_sums(stabilizers, mats, signs)
    square = int_matmul(proj, proj)
    # an int64 square bounds |P| far below 2**62 / |H|, so |H| P fits as well;
    # and P = 0 = |H| passes, but no stabilizer is empty
    scaled = sizes[:, None, None] * proj.astype(square.dtype)
    bad = np.flatnonzero((square != scaled).any(axis=(1, 2)) | (sizes == 0))
    if bad.size:
        raise InternalConsistencyError(f"stabilizer of {reps[bad[0]]} does not give a projection")
    ranks, rest = np.divmod(np.trace(proj, axis1=1, axis2=2), sizes)
    bad = np.flatnonzero(rest)
    if bad.size:
        raise InternalConsistencyError(
            f"projection of the stabilizer of {reps[bad[0]]} has trace not in |H| Z"
        )
    return proj, ranks.tolist()


def _fixed_columns(proj, ranks) -> np.ndarray:
    """Block-diagonal int64 matrix of the spaces W_o of ``_projections``:
    r_o independent columns of each P_o span W_o."""
    d = proj.shape[-1]
    col = np.cumsum([0, *ranks])
    out = np.zeros((d * len(ranks), col[-1]), dtype=np.int64)
    for o, (p, r) in enumerate(zip(proj, ranks)):
        # the trace decides r = 0 (P = 0: no column) and r = d (P = |H| I:
        # every column) without an elimination
        if 0 < r < d:
            p = p[:, independent_columns(p, r)]
        if r:
            out[o * d : (o + 1) * d, col[o] : col[o + 1]] = p
    return out


# perfbench/tracer.py times the multiplicity spaces under this older name,
# rebinding every reference to the function, and perfbench/test_gate.py
# requires every name the tracer traces to exist
isotypic_seed_basis = _fixed_columns


def _orbit_terms(rep, lower, slot):
    """d(rep) by the lower orbits j it reaches, as (j, ((c s, slot(tau)), ...))."""
    index = {orbit_of(r): j for j, r in enumerate(lower)}
    groups = {}
    for target, coef in boundary_terms(rep):
        j = index.get(orbit_of(target))
        if j is None:
            raise InternalConsistencyError(f"contraction of {rep} left the basis")
        form = orbit_normal_form(target, lower[j])
        groups.setdefault(j, []).append((coef * form.sign, slot(form.tau)))
    return tuple((j, tuple(pairs)) for j, pairs in groups.items())


class _BlockPlan(NamedTuple):
    """What every lambda block of one n reads.  Permutations are slots of
    ``tree``, and parity[k] is the sign of slot k's: stabilizers[i][o] lists
    (eps(h), slot of h) over the signed stabilizer of orbit o of degree n + i,
    and terms[i][o] is _orbit_terms of r_o, of degree n + i + 1."""

    stabilizers: tuple
    terms: tuple
    tree: WordTree
    parity: tuple


@cache
def _block_plan(reps) -> _BlockPlan:
    """The plan of the orbits ``reps`` (degrees n, n+1, n+2): the lambda
    blocks share its stabilizers, boundary terms and the WordTree of every
    permutation they name."""
    perms = {}

    def slot(perm):
        return perms.setdefault(tuple(perm), len(perms))

    stabilizers = tuple(
        tuple(tuple((eps, slot(h)) for h, eps in signed_stabilizer(rep)) for rep in degree)
        for degree in reps
    )
    terms = tuple(
        tuple(_orbit_terms(rep, lower, slot) for rep in upper)
        for lower, upper in zip(reps, reps[1:])
    )
    return _BlockPlan(stabilizers, terms, word_tree(perms), tuple(map(perm_parity, perms)))


def _stacked(a, lower, d):
    """The d-row blocks a_j of a for the orbits j of ``lower``, stacked."""
    return a.reshape(len(a) // d, d, a.shape[1])[list(lower)].reshape(len(lower) * d, a.shape[1])


def _precompose(terms, mats, signs, x, y=None):
    """(F x, whether F y = 0), never forming the orbit boundary F of one
    degree: row block o is sum_j G_oj x_j, G_oj = sum c s rho(tau) over the
    plan's ``terms`` of d(r_o) that reach orbit j, each slot signed by
    ``signs``.  All G_oj of o come from one checked sum, and its row block
    of x, or of y, from one product, [G_oj1 | G_oj2 | ...] times the x_j
    stacked (OverflowError first); F y is tested a row block at a time and
    never stored."""
    d = mats.shape[1]
    out = np.zeros((d * len(terms), x.shape[1]), dtype=np.int64)
    vanishes = True
    for i, upper in enumerate(terms):
        if upper:  # a zero d(r_o) leaves its row block 0
            lower, groups = zip(*upper)
            g = _signed_sums(groups, mats, signs).transpose(1, 0, 2).reshape(d, -1)
            out[i * d : (i + 1) * d] = _int64_matmul(g, _stacked(x, lower, d))
            if y is not None and _int64_matmul(g, _stacked(y, lower, d)).any():
                vanishes = False
    return out, vanishes


class IsotypicRanks(NamedTuple):
    mults: tuple  # m_lam(C_p) for p = n, n+1, n+2
    ranks: tuple  # ranks of d_{n+1}, d_{n+2} on the lam blocks

    @property
    def top(self) -> int:  # k_lam, the multiplicity of S^lam in H_{n+2}
        return self.mults[2] - self.ranks[1]

    @property
    def next(self) -> int:  # k'_lam, the multiplicity of S^lam in H_{n+1}
        return self.mults[1] - self.ranks[0] - self.ranks[1]


def _pair_ranks(members, n, reps=None) -> dict:
    """IsotypicRanks of each partition in ``members``, one or both of a
    conjugate pair, from one sweep of rho for the later of the pair in
    partitions_of order: the other member reads the same stack with odd
    slots signed -1, as rho'(sigma) = sgn(sigma) rho(sigma).  Each member's
    blocks are assembled while the stack lives (_precompose), and ranked one
    member at a time after it is freed.  InternalConsistencyError unless sgn
    chi_built = chi_lam for the twisted member (rho is certified at its
    construction, so sgn (x) rho is then S^lam), d_{n+1} d_{n+2} = 0 and
    d_{n+1} is onto on each member's blocks.  ``reps`` as for
    isotypic_block_ranks."""
    if reps is None:
        reps = tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2))
    built = max(members[0], conjugate_partition(members[0]))
    plan = _block_plan(reps)
    specht = specht_matrices(built)
    mats = _sweep(specht.generators, plan.tree, specht.dim)
    assembled = []
    # the built member, the later, first: ranked first, it keeps the peak of
    # all of n = 9 about 2 MB below that of the earlier member first
    for lam in sorted(members, reverse=True):
        signs = plan.parity if lam != built else (1,) * len(plan.parity)
        if lam != built:
            parts, table = partitions_of(n), character_table(n)
            sgn = np.array([(-1) ** (n - len(mu)) for mu in parts], dtype=np.int64)
            if not np.array_equal(sgn * table[parts.index(built)], table[parts.index(lam)]):
                raise InternalConsistencyError(
                    f"sign twist of {built} does not give {lam}: sgn chi_{built} != chi_{lam}"
                )
        # every P_o of the three degrees from one sum, but columns chosen only
        # for C_n and C_{n+1}: C_{n+2} is read for its multiplicity alone
        proj, dims = _projections(sum(reps, ()), sum(plan.stabilizers, ()), mats, signs)
        a, b = len(reps[0]), len(reps[0]) + len(reps[1])
        w_n, w_next = _fixed_columns(proj[:a], dims[:a]), _fixed_columns(proj[a:b], dims[a:b])
        del proj
        block_next, _ = _precompose(plan.terms[0], mats, signs, w_n)
        # the top G_oj are summed once, for block_top and the d^2 check alike
        block_top, vanishes = _precompose(plan.terms[1], mats, signs, w_next, block_next)
        if not vanishes:
            raise InternalConsistencyError(f"d_{n+1} . d_{n+2} != 0 on the {lam} block at n={n}")
        mults = (w_n.shape[1], w_next.shape[1], sum(dims[b:]))
        assembled.append((lam, mults, block_next, block_top))
    del mats, w_n, w_next, block_next, block_top  # the ranks read the kept blocks alone
    out = {}
    while assembled:
        # popped, so this member's blocks go with its last local name
        lam, mults, block_next, block_top = assembled.pop(0)
        ranks = (rank_exact(block_next), rank_exact(block_top))
        del block_next, block_top
        if ranks[0] != mults[0]:
            raise InternalConsistencyError(f"d_{n+1} is not onto on the {lam} block at n={n}")
        out[lam] = IsotypicRanks(mults, ranks)
    return out


def isotypic_block_ranks(lam, n, reps=None) -> IsotypicRanks:
    """Exact ranks of the lam blocks of d_{n+1} and d_{n+2}; raises
    InternalConsistencyError unless d_{n+1} d_{n+2} = 0 and d_{n+1} is onto on
    them.  ``reps`` holds representatives of the orbits of degrees n, n+1, n+2
    (default ``chain_orbits``); any canonical graphs of those orbits will do.
    rho is built as in _pair_ranks."""
    return _pair_ranks((lam,), n, reps)[lam]


@cache
def isotypic_ranks(n) -> dict:
    """isotypic_block_ranks for every lambda, one Specht module and one
    sweep per conjugate pair, with sum_lam m_lam(C_p) chi_lam checked against
    the character of C_p on every class, in each degree, and k, k' >= 0."""
    found = {}
    for lam in partitions_of(n):
        conj = conjugate_partition(lam)
        if conj <= lam:
            found.update(_pair_ranks(tuple(sorted({lam, conj})), n))
    out = {lam: found[lam] for lam in partitions_of(n)}
    for i, p in enumerate((n, n + 1, n + 2)):
        assembled = assemble_character(n, {lam: r.mults[i] for lam, r in out.items()})
        if not np.array_equal(assembled, chain_character(n, p)):
            raise InternalConsistencyError(
                f"isotypic multiplicities of C_{p} do not give its character at n={n}"
            )
    # rank d_{n+2} <= m(C_{n+1}) - m(C_n) holds only for equivariant blocks,
    # which nothing above checks
    for lam, r in out.items():
        for p, k in ((n + 2, r.top), (n + 1, r.next)):
            if k < 0:
                raise InternalConsistencyError(
                    f"negative multiplicity {k} of S^{lam} in H_{p} at n={n}"
                )
    return out


def kernel_multiplicity(lam, n) -> int:
    """Multiplicity of S^lam in ker d_{n+2} = H_{n+2}."""
    return isotypic_ranks(n)[lam].top


def homology_character_top(n) -> np.ndarray:
    """Character of H_{n+2} = ker d_{n+2} from the per-irreducible multiplicities."""
    return assemble_character(n, {lam: kernel_multiplicity(lam, n) for lam in partitions_of(n)})


def homology_character_next(n) -> np.ndarray:
    """Character of H_{n+1} from the per-irreducible multiplicities k'_lam."""
    return assemble_character(n, {lam: r.next for lam, r in isotypic_ranks(n).items()})


def kernel_character_oracle(n) -> np.ndarray:
    """Character of ker d_{n+2} by exact change of basis, no projections.

    For each class representative sigma, solves K X = A_sigma K for the
    kernel basis K through ``Kernel.coordinates``, in integers, and returns
    trace(X).
    """
    from .chain_complex import boundary_matrix

    kernel = kernel_exact(boundary_matrix(n, n + 2).to_int64())
    values = []
    for mu in partitions_of(n):
        gidx, gsgn = act(class_representative(mu), n + 2)
        lx = kernel.coordinates(gsgn[:, None] * kernel.lk[gidx])
        if lx is None:
            raise InternalConsistencyError(
                f"kernel is not invariant under class {mu}: sign/action bug"
            )
        tr, rest = divmod(sum(np.diagonal(lx).tolist()), kernel.scale)
        if rest:
            raise InternalConsistencyError(f"non-integral kernel trace at {mu}")
        values.append(tr)
    return np.array(values, dtype=np.int64)
