"""Symmetric-group combinatorics: partitions, characters, Specht matrices.

The Specht matrices are Young's natural representation, read off the
standard-tabloid coefficients of the standard polytabloids by exact integer
substitution, and certified by E X = B, the Coxeter relations and the
character (``SpechtRep``).

Partitions are weakly decreasing tuples of positive ints.  Conjugacy classes
and irreducibles are both indexed by partitions, listed in ascending
lexicographic order of the tuple, so e.g. for n=4 the class order is
(1,1,1,1), (2,1,1), (2,2), (3,1), (4).

Permutations are one-line tuples on 0..n-1, composed as (p*q)(i) = p[q[i]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from graphlib import CycleError, TopologicalSorter
from math import factorial
from typing import NamedTuple

import numpy as np

from .linalg import InternalConsistencyError, int_matmul


class NotACharacterError(ValueError):
    pass


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


def partition_sign(mu) -> int:
    """Sign character evaluated on the class mu: (-1)^(n - #parts)."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


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


@dataclass(frozen=True)
class CharacterTable:
    n: int
    parts: tuple  # partitions in ascending lex order (classes and irreps)
    values: dict  # (lam, mu) -> int
    sizes: tuple  # class sizes aligned with parts

    def row(self, lam):
        return tuple(self.values[lam, mu] for mu in self.parts)

    def dim(self, lam):
        return self.values[lam, self.parts[0]]


@cache
def character_table(n: int) -> CharacterTable:
    parts = partitions_of(n)
    values = {
        (lam, mu): mn_character(lam, mu) for lam in parts for mu in parts
    }
    sizes = tuple(class_size(mu) for mu in parts)
    return CharacterTable(n, parts, values, sizes)


# ---------------------------------------------------------------------------
# class functions


@dataclass(frozen=True)
class ClassFunction:
    """Rational-valued function on the conjugacy classes of S_n."""

    n: int
    values: tuple  # aligned with partitions_of(n)

    @classmethod
    def from_dict(cls, n, mapping):
        return cls(n, tuple(Fraction(mapping[mu]) for mu in partitions_of(n)))

    @classmethod
    def from_row(cls, n, row):
        parts = partitions_of(n)
        if len(row) != len(parts):
            raise ValueError("expected %d class values" % len(parts))
        return cls(n, tuple(Fraction(v) for v in row))

    def at(self, mu) -> Fraction:
        return self.values[partitions_of(self.n).index(mu)]

    def as_ints(self):
        if any(v.denominator != 1 for v in self.values):
            raise ValueError("non-integral class function")
        return tuple(int(v) for v in self.values)

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.n, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.n, tuple(a - b for a, b in zip(self.values, other.values)))

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")


def irreducible_character(lam) -> ClassFunction:
    n = sum(lam)
    return ClassFunction(n, tuple(Fraction(mn_character(lam, mu)) for mu in partitions_of(n)))


def decompose(f: ClassFunction) -> dict:
    """Multiplicities <f, chi_lam>; raises unless they are non-negative ints."""
    n = f.n
    table = character_table(n)
    order = factorial(n)
    out = {}
    for lam in table.parts:
        acc = Fraction(0)
        for mu, size, val in zip(table.parts, table.sizes, f.values):
            acc += size * val * table.values[lam, mu]
        mult = acc / order
        if mult.denominator != 1:
            raise NotACharacterError("non-integral multiplicity %s for %s" % (mult, lam))
        if mult < 0:
            raise NotACharacterError("negative multiplicity %s for %s" % (mult, lam))
        if mult:
            out[lam] = int(mult)
    return out


def assemble_character(n, mults) -> ClassFunction:
    values = [Fraction(0)] * len(partitions_of(n))
    for lam, m in mults.items():
        for i, mu in enumerate(partitions_of(n)):
            values[i] += m * mn_character(lam, mu)
    return ClassFunction(n, tuple(values))


# ---------------------------------------------------------------------------
# permutations (one-line tuples)


def compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


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


@cache
def sjt_swaps(n: int) -> tuple[int, ...]:
    """Steinhaus-Johnson-Trotter position-swap sequence of length n!-1.

    Walking the sequence from the identity with sigma <- sigma o t_j visits
    every permutation of S_n exactly once.
    """
    perm = list(range(n))
    pos = list(range(n))  # pos[v] = current index of value v
    direction = [-1] * n
    swaps = []
    for _ in range(factorial(n) - 1):
        mobile = -1
        for v in range(n):
            i = pos[v]
            j = i + direction[v]
            if 0 <= j < n and perm[j] < v and v > mobile:
                mobile = v
        i = pos[mobile]
        j = i + direction[mobile]
        swaps.append(min(i, j))
        other = perm[j]
        perm[i], perm[j] = perm[j], perm[i]
        pos[mobile], pos[other] = j, i
        for v in range(mobile + 1, n):
            direction[v] = -direction[v]
    return tuple(swaps)


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
    """The integer X with E X = B, for E with unit diagonal whose support is
    acyclic: each row of X is solved in a topological order of that support,
    from rows already solved.  int_matmul keeps every step exact, and a row
    too large for int64 raises OverflowError as it is stored."""
    if not np.all(np.diagonal(e) == 1):
        raise InternalConsistencyError("standard-tabloid coefficients lack a unit diagonal")
    off = e - np.eye(e.shape[0], dtype=e.dtype)
    support = [np.flatnonzero(row) for row in off]
    try:
        order = tuple(TopologicalSorter(dict(enumerate(support))).static_order())
    except CycleError:
        raise InternalConsistencyError(
            "standard-tabloid coefficients are triangular in no order"
        ) from None
    x = np.zeros(b.shape, dtype=np.int64)
    for i in order:
        s = support[i]
        x[i] = b[i] - int_matmul(off[i : i + 1, s], x[s])[0]
    return x


class WordTree(NamedTuple):
    """The prefix tree of the transposition words of a batch of permutations,
    held level by level.  The node of a prefix w[:k] stands for rho(t[w[k-1]]
    o ... o t[w[0]]) = G[w[k-1]] rho(parent), so each level follows from the
    one before.  ``levels[k - 1]`` describes level k, its nodes sorted by last
    letter: the index in level k - 1 of each node's parent, and one (letter,
    start, stop) per run of nodes with that last letter.  ``ends[k]`` holds
    (slot, node) for each distinct permutation whose word has length k (the
    root, level 0, is the identity), and ``slots[i]`` is the slot of the i-th
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
            prefixes = sorted(
                {w[:k] for w in words if len(w) >= k}, key=lambda q: (q[-1], index[q[:-1]])
            )
            parents = np.array([index[q[:-1]] for q in prefixes], dtype=np.intp)
            runs, start = [], 0
            for letter, group in itertools.groupby(q[-1] for q in prefixes):
                stop = start + sum(1 for _ in group)
                runs.append((letter, start, stop))
                start = stop
            levels.append((parents, tuple(runs)))
            index = {q: i for i, q in enumerate(prefixes)}
        ends.append(tuple((slot, index[w]) for slot, w in enumerate(words) if len(w) == k))
    return WordTree(tuple(levels), tuple(ends), slots)


def _sweep(generators, tree: WordTree, dim):
    """rho of every permutation of the tree, from the generators: level by
    level, each run of nodes with one last letter j is G_j times its parents
    side by side, one ``int_matmul``.  Only the live level is held, and each
    requested matrix is copied out of it, so no output keeps a level alive;
    a permutation asked for twice gets the same array twice.  The levels are
    int64: an entry beyond it raises OverflowError as it is stored."""
    out = [None] * sum(map(len, tree.ends))
    live = np.eye(dim, dtype=np.int64)[:, None, :]  # live[:, i, :] is node i
    for k, ends in enumerate(tree.ends):
        if k:
            parents, runs = tree.levels[k - 1]
            nxt = np.empty((dim, parents.size, dim), dtype=np.int64)
            for letter, start, stop in runs:
                side_by_side = live[:, parents[start:stop], :].reshape(dim, -1)
                product = int_matmul(generators[letter], side_by_side)
                nxt[:, start:stop, :] = product.reshape(dim, stop - start, dim)
            live = nxt
        for slot, node in ends:
            out[slot] = live[:, node, :].copy()
    return [out[slot] for slot in tree.slots]


def _check_coxeter(lam, generators):
    """Raise unless s_i^2 = 1, s_i s_j = s_j s_i for j - i >= 2 and
    (s_i s_{i+1})^2 = s_{i+1} s_i: given the involutions, the last two are
    (s_i s_j)^2 = 1 and (s_i s_{i+1})^3 = 1, the Coxeter presentation of S_n,
    so s_j -> generators[j] extends to a homomorphism.  Every s_i s_j comes
    from one stacked product; the braid relations take n - 2 more."""
    k = len(generators)
    if not k:
        return
    d = generators[0].shape[0]
    # pairs[i, :, j, :] = s_i s_j
    pairs = int_matmul(np.vstack(generators), np.hstack(generators)).reshape(k, d, k, d)
    eye = np.eye(d, dtype=np.int64)
    sides = [(i, i, pairs[i, :, i], eye) for i in range(k)]
    sides += [(i, j, pairs[i, :, j], pairs[j, :, i]) for i in range(k) for j in range(i + 2, k)]
    sides += [
        (i, i + 1, int_matmul(pairs[i, :, i + 1], pairs[i, :, i + 1]), pairs[i + 1, :, i])
        for i in range(k - 1)
    ]
    for i, j, left, right in sides:
        if not np.array_equal(left, right):
            m = 1 if j == i else 3 if j == i + 1 else 2
            raise InternalConsistencyError(
                f"Coxeter relation (s_{i} s_{j})^{m} = 1 fails on the Specht matrices of {lam}"
            )


def _check_character(lam, generators):
    """Raise unless tr rho(class representative of mu) = chi_lam(mu) for
    every mu, with the class representatives taken in one sweep."""
    parts = partitions_of(sum(lam))
    tree = word_tree(class_representative(mu) for mu in parts)
    for mu, mat in zip(parts, _sweep(generators, tree, hook_dimension(lam))):
        trace = int(np.trace(mat))
        if trace != mn_character(lam, mu):
            raise InternalConsistencyError(
                f"Specht matrices of {lam} have trace {trace} on class {mu}, "
                f"not {mn_character(lam, mu)}"
            )


class SpechtRep:
    """Young's natural representation of S_n on standard polytabloids.

    Matrices are integral; ``matrices(perms)`` returns rho(p) for a batch of
    permutations with rho(p o q) = rho(p) @ rho(q), and ``matrix(p)`` one of
    them.  Column j of rho(p) expands p . e_{t_j} in the polytabloid basis
    e_{t_1}, ..., e_{t_d}.  A batch is evaluated in one sweep over the prefix
    tree of the permutations' transposition words (``WordTree``), level by
    level, with one product per run of nodes that share a last letter, so
    shared prefixes are multiplied once.  Nothing is memoized per
    permutation: a caller that needs the same batch for many lambda builds
    its WordTree once and passes it in place of the permutations.

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
        self.generators = tuple(
            np.ascontiguousarray(x[:, j * d : (j + 1) * d]) for j in range(self.n - 1)
        )
        _check_coxeter(self.lam, self.generators)
        _check_character(self.lam, self.generators)

    def matrices(self, perms) -> list:
        """rho(p) for each permutation of ``perms``, or of the batch a
        WordTree was built from, in order, as fresh int64 arrays."""
        tree = perms if isinstance(perms, WordTree) else word_tree(perms)
        return _sweep(self.generators, tree, self.dim)

    def matrix(self, perm) -> np.ndarray:
        return self.matrices([perm])[0]

    def character(self) -> ClassFunction:
        n = self.n
        reps = self.matrices(class_representative(mu) for mu in partitions_of(n))
        return ClassFunction(n, tuple(Fraction(int(np.trace(m))) for m in reps))


@cache
def specht_matrices(lam) -> SpechtRep:
    return SpechtRep(lam)
