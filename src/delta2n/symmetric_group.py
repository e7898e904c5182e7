"""Symmetric-group combinatorics: partitions, characters, Specht matrices.

The Specht matrices are Young's natural representation, read off the
standard-tabloid coefficients of the standard polytabloids by exact integer
substitution, and certified by E X = B, the Coxeter relations and the
character (``SpechtRep``).

Partitions are weakly decreasing tuples of positive ints.  Conjugacy classes
and irreducibles are both indexed by partitions, listed in ascending
lexicographic order of the tuple, so e.g. for n=4 the class order is
(1,1,1,1), (2,1,1), (2,2), (3,1), (4).  A class function is a row of
integers, one value per class in this order: the columns of the table.

Permutations are one-line tuples on 0..n-1, composed as (p*q)(i) = p[q[i]].
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial
from operator import index
from typing import NamedTuple

import numpy as np

from . import InternalConsistencyError, NotACharacterError
from .linalg import _int64_matmul, int_matmul


# ---------------------------------------------------------------------------
# partitions and conjugacy classes


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, ascending lexicographic (matches table layouts)."""

    def gen(total, maxpart):
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))


def class_size(mu) -> int:
    n = sum(mu)
    size = factorial(n)
    for part in set(mu):
        m = mu.count(part)
        size //= part**m * factorial(m)
    return size


def conjugate_partition(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def hook_dimension(lam) -> int:
    n = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return factorial(n) // hooks


@cache
def mn_character(lam, mu) -> int:
    """Irreducible character value chi_lam(mu) by border-strip recursion.

    Strips of length mu[0] are removed through the beta-set encoding
    beta_i = lam_i + (k-1-i): removing a strip means lowering one beta value
    by mu[0], with sign (-1)^(number of beta values jumped over).
    """
    if sum(lam) == 0:
        return 1
    m, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [lam[i] + k - 1 - i for i in range(k)]
    bset = set(beta)
    total = 0
    for b in beta:
        low = b - m
        if low < 0 or low in bset:
            continue
        sign = -1 if sum(1 for c in beta if low < c < b) % 2 else 1
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(low)
        new_beta.sort(reverse=True)
        newlam = tuple(
            x - (k - 1 - j) for j, x in enumerate(new_beta) if x - (k - 1 - j) > 0
        )
        total += sign * mn_character(newlam, rest)
    return total


@cache
def character_table(n: int) -> np.ndarray:
    """The characters of S_n as one read-only int64 array: entry (i, j) is
    chi_lam(mu) for lam, mu the i-th and j-th partitions of partitions_of(n)."""
    parts = partitions_of(n)
    table = np.array([[mn_character(lam, mu) for mu in parts] for lam in parts], dtype=np.int64)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# class functions: one integer value per class, in partitions_of(n) order


def decompose(n, f) -> dict:
    """Multiplicities <f, chi_lam> = (1/n!) sum_mu |class mu| f(mu) chi_lam(mu)
    of an integer class function f, one value per class in partitions_of(n)
    order: one product of the character table with the class-size-weighted
    values, then divmod by n!; raises unless they are non-negative ints."""
    parts = partitions_of(n)
    weighted = np.array(
        [[class_size(mu) * index(v)] for mu, v in zip(parts, f, strict=True)], dtype=object
    )
    sums = int_matmul(character_table(n), weighted)[:, 0].tolist()
    out = {}
    for lam, total in zip(parts, sums):
        mult, rest = divmod(total, factorial(n))
        if rest:
            raise NotACharacterError(f"non-integral multiplicity {total}/{factorial(n)} for {lam}")
        if mult < 0:
            raise NotACharacterError(f"negative multiplicity {mult} for {lam}")
        if mult:
            out[lam] = mult
    return out


def assemble_character(n, mults) -> np.ndarray:
    """sum_lam mults[lam] chi_lam: the multiplicity vector, in partitions_of(n)
    order, times the character table."""
    parts = partitions_of(n)
    vec = [0] * len(parts)
    for lam, m in mults.items():
        vec[parts.index(lam)] = m
    return int_matmul(np.array([vec]), character_table(n))[0]


# ---------------------------------------------------------------------------
# permutations (one-line tuples)


def cycle_type(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def class_representative(mu):
    """Canonical representative: consecutive cycles in decreasing part order."""
    out = []
    start = 0
    for part in mu:
        out.extend(start + (j + 1) % part for j in range(part))
        start += part
    return tuple(out)


def transposition_word(p):
    """Adjacent-swap word with p = t[w[-1]] o ... o t[w[0]] (t_j swaps j, j+1)."""
    a = list(p)
    word = []
    for i in range(len(a)):
        for j in range(len(a) - 1 - i):
            if a[j] > a[j + 1]:
                a[j], a[j + 1] = a[j + 1], a[j]
                word.append(j)
    return word


# ---------------------------------------------------------------------------
# Specht modules in Young's natural (polytabloid) basis
#
# The polytabloid e_t is the signed sum of the tabloids {pi t} over the column
# permutations pi of t, and the standard polytabloids are a basis of S^lam.
# The coefficient of the standard tabloid {t_i} in e_{t_k} is 1 when i = k,
# and nonzero otherwise only when {t_k} strictly dominates {t_i} (Sagan, The
# Symmetric Group, 2.5-2.6).  So the standard-tabloid rows alone determine
# each generator, by integer substitution: no polytabloid is expanded.


def standard_tableaux(lam):
    """Standard Young tableaux of shape lam, sorted by row reading word."""
    n = sum(lam)
    conj = conjugate_partition(lam)

    def fill(tab, heights, value):
        if value == n:
            yield tuple(tuple(row) for row in tab)
            return
        for r in range(len(lam)):
            c = heights[r]
            if c < lam[r] and (r == 0 or heights[r - 1] > c):
                tab[r].append(value)
                heights[r] += 1
                yield from fill(tab, heights, value + 1)
                heights[r] -= 1
                tab[r].pop()

    tabs = list(fill([[] for _ in lam], [0] * len(lam), 0))
    tabs.sort(key=lambda t: tuple(itertools.chain.from_iterable(t)))
    return tabs


def _tabloid_coefficients(rows, tableaux):
    """coef[i, k], the coefficient of tabloid i in e_{t_k}, for tabloids given
    as rows[i, x] = the row holding x and tableaux t_k of one shape.  It is
    nonzero exactly when the rows of each column of t_k, read downwards, are a
    permutation of 0..len-1, and then it is the sign of that permutation: the
    column permutation pi with {pi t_k} = tabloid i is unique."""
    conj = conjugate_partition(tuple(len(row) for row in tableaux[0]))
    reading = np.array(
        [[t[r][c] for c, height in enumerate(conj) for r in range(height)] for t in tableaux]
    )
    first, second = [], []  # reading positions p < q within one column
    start = 0
    for height in conj:
        for p, q in itertools.combinations(range(start, start + height), 2):
            first.append(p)
            second.append(q)
        start += height
    v = rows[:, reading]  # v[i, k, q]: the row, in tabloid i, of entry q of t_k
    upper, lower = v[..., first], v[..., second]
    ok = np.all(v < np.repeat(conj, conj), axis=-1) & np.all(upper != lower, axis=-1)
    odd = np.sum(upper > lower, axis=-1) % 2
    return np.where(ok, 1 - 2 * odd, 0).astype(np.int64)


def _standard_coefficients(tableaux, n):
    """E[i, k], the coefficient of {t_i} in e_{t_k}, and B = [B_0 | ... |
    B_{n-2}] with B_j[i, k] the coefficient of s_j {t_i} in e_{t_k}.  Since
    s_j e_{t_k} = sum_l X_j[l, k] e_{t_l}, reading off the coefficient of
    {t_i} on both sides gives E X_j = B_j."""
    d = len(tableaux)
    rows = np.empty((d, n), dtype=np.int8)
    for i, t in enumerate(tableaux):
        for r, row in enumerate(t):
            rows[i, list(row)] = r
    moved = []
    for j in range(n - 1):
        # s_j {t_i} holds j where {t_i} holds j + 1, and the other way round
        m = rows.copy()
        m[:, [j, j + 1]] = rows[:, [j + 1, j]]
        moved.append(m)
    coef = _tabloid_coefficients(np.concatenate([rows, *moved]), tableaux)
    b = coef[d:].reshape(n - 1, d, d).transpose(1, 0, 2).reshape(d, (n - 1) * d)
    return coef[:d], b


def _substitute(e, b):
    """The integer X with E X = B, for E unit lower triangular, as it is in
    tableau order: {t_k} dominates {t_i} only when t_k comes first.  Forward
    substitution solves a level of rows at a time, in one product: every row
    whose support lies in the rows solved so far.  Each product is exact, and
    one that may leave int64 raises OverflowError before it is formed."""
    off = e - np.eye(e.shape[0], dtype=e.dtype)
    if np.triu(off).any():
        raise InternalConsistencyError(
            "standard-tabloid coefficients are not unit lower triangular in tableau order"
        )
    x = np.zeros(b.shape, dtype=np.int64)
    solved = np.zeros(e.shape[0], dtype=bool)
    # off is strictly lower triangular, so the first unsolved row is ready
    while not solved.all():
        ready = ~solved & ~off[:, ~solved].any(axis=1)
        x[ready] = b[ready] - _int64_matmul(off[np.ix_(ready, solved)], x[solved])
        solved |= ready
    return x


class WordTree(NamedTuple):
    """The prefix tree of the transposition words of a batch of permutations,
    held level by level.  The node of a prefix w[:k] stands for rho(t[w[k-1]]
    o ... o t[w[0]]) = G[w[k-1]] rho(parent), so each level follows from the
    one before.  ``levels[k - 1]`` describes level k as two index arrays with
    one entry per node: its last letter, and the index in level k - 1 of its
    parent.  ``ends[k]`` holds two index arrays: the slots of the distinct
    permutations whose word has length k (the root, level 0, is the
    identity), and their nodes.  ``slots[i]`` is the slot of the i-th
    permutation asked for."""

    levels: tuple
    ends: tuple
    slots: tuple


def word_tree(perms) -> WordTree:
    """The WordTree of the given permutations (repeats allowed, any order)."""
    slot_of = {}
    slots = tuple(slot_of.setdefault(tuple(p), len(slot_of)) for p in perms)
    words = [tuple(transposition_word(p)) for p in slot_of]
    index = {(): 0}  # prefix -> node, on the current level
    levels, ends = [], []
    for k in range(max(map(len, words), default=0) + 1):
        if k:
            prefixes = sorted({w[:k] for w in words if len(w) >= k})
            levels.append(np.array([(q[-1], index[q[:-1]]) for q in prefixes], dtype=np.intp).T)
            index = {q: i for i, q in enumerate(prefixes)}
        done = [(slot, index[w]) for slot, w in enumerate(words) if len(w) == k]
        ends.append(np.array(done, dtype=np.intp).reshape(-1, 2).T)
    return WordTree(tuple(levels), tuple(ends), slots)


# entries per stacked sweep product (64 KB), whole levels up to n = 6: each
# product holds about six scratch arrays this size (whole levels: +9 MB at n = 8)
_SWEEP_CHUNK = 1 << 13


def _sweep(generators, tree: WordTree, dim) -> np.ndarray:
    """rho of the tree's distinct permutations, as one (slots, dim, dim)
    int64 stack indexed by slot: level by level, each node is the generator
    of its last letter times its parent, one stacked ``_int64_matmul`` per
    _SWEEP_CHUNK entries of the level, so no entry wraps: OverflowError
    instead.  Only the live level is held."""
    step = max(_SWEEP_CHUNK // dim**2, 1)
    generators = np.asarray(generators)  # a Specht module's are one array already
    out = np.empty((sum(e.shape[1] for e in tree.ends), dim, dim), dtype=np.int64)
    live = np.eye(dim, dtype=np.int64)[None]  # live[i] is node i
    for k, (slots, nodes) in enumerate(tree.ends):
        if k:
            letters, parents = tree.levels[k - 1]
            nxt = np.empty((parents.size, dim, dim), dtype=np.int64)
            for part in (slice(i, i + step) for i in range(0, parents.size, step)):
                nxt[part] = _int64_matmul(generators[letters[part]], live[parents[part]])
            live = nxt
        out[slots] = live[nodes]
    return out


def _check_coxeter(lam, generators):
    """Raise unless s_i^2 = 1, s_i s_j = s_j s_i for j - i >= 2 and
    (s_i s_{i+1})^2 = s_{i+1} s_i: given the involutions, the last two are
    (s_i s_j)^2 = 1 and (s_i s_{i+1})^3 = 1, the Coxeter presentation of S_n,
    so s_j -> generators[j] extends to a homomorphism.  Per generator, two
    stacked products s_i [G_i ...] and [G_i; ...] s_i and one braid product."""
    gens = np.asarray(generators)
    for i, s in enumerate(gens):
        left, right = int_matmul(s, gens[i:]), int_matmul(gens[i:], s)
        holds = [np.array_equal(left[0], np.eye(s.shape[0], dtype=np.int64))]
        if len(left) > 1:
            holds.append(np.array_equal(int_matmul(left[1], left[1]), right[1]))
        holds.extend((left[2:] == right[2:]).all(axis=(1, 2)).tolist())
        if not all(holds):
            j = i + holds.index(False)
            m = 1 if j == i else 3 if j == i + 1 else 2
            raise InternalConsistencyError(
                f"Coxeter relation (s_{i} s_{j})^{m} = 1 fails on the Specht matrices of {lam}"
            )


@cache
def _class_tree(n) -> WordTree:
    """The WordTree of the class representatives of S_n, in partitions_of order."""
    return word_tree(class_representative(mu) for mu in partitions_of(n))


def _check_character(lam, generators):
    """Raise unless tr rho(class representative of mu) = chi_lam(mu) for
    every mu, with the class representatives taken in one sweep."""
    n = sum(lam)
    parts = partitions_of(n)
    row = character_table(n)[parts.index(lam)].tolist()
    traces = np.trace(_sweep(generators, _class_tree(n), hook_dimension(lam)), axis1=1, axis2=2)
    for mu, chi, trace in zip(parts, row, traces.tolist()):
        if trace != chi:
            raise InternalConsistencyError(
                f"Specht matrices of {lam} have trace {trace} on class {mu}, not {chi}"
            )


class SpechtRep:
    """Young's natural representation of S_n on standard polytabloids.

    Matrices are integral; ``matrices(perms)`` returns rho(p) for a batch of
    permutations with rho(p o q) = rho(p) @ rho(q), copied out of the stack
    of ``_sweep``, the one way to compute rho (the lambda blocks read that
    stack directly).  Column j of rho(p) expands p . e_{t_j} in the polytabloid basis
    e_{t_1}, ..., e_{t_d}.  A batch is evaluated in one sweep over the prefix
    tree of the permutations' transposition words (``WordTree``), with one
    stacked product per level, so shared prefixes are multiplied once.
    Nothing is memoized per permutation.

    Construction certifies, exactly in integers, that E X = B on the
    standard-tabloid rows, that the generators satisfy the Coxeter relations
    (so ``matrices`` is a homomorphism) and that the trace on every class is
    chi_lam: together, rho is isomorphic to S^lam.  InternalConsistencyError
    otherwise.
    """

    def __init__(self, lam):
        self.lam = tuple(lam)
        self.n = sum(lam)
        self.tableaux = standard_tableaux(self.lam)
        self.dim = d = len(self.tableaux)
        if d != hook_dimension(self.lam):
            raise InternalConsistencyError("tableau count does not match hook formula")
        e, b = _standard_coefficients(self.tableaux, self.n)
        x = _substitute(e, b)
        if not np.array_equal(int_matmul(e, x), b):
            raise InternalConsistencyError(f"E X = B fails for the Specht matrices of {self.lam}")
        gens = np.ascontiguousarray(x.reshape(d, self.n - 1, d).transpose(1, 0, 2))
        gens.flags.writeable = False  # memoized and shared, as are its views
        self.generators = gens
        _check_coxeter(self.lam, self.generators)
        _check_character(self.lam, self.generators)

    def matrices(self, perms) -> list:
        """rho(p) for each permutation of ``perms``, in order, as fresh int64
        arrays."""
        tree = word_tree(perms)
        stack = _sweep(self.generators, tree, self.dim)
        return [stack[slot].copy() for slot in tree.slots]


@cache
def specht_matrices(lam) -> SpechtRep:
    return SpechtRep(lam)
