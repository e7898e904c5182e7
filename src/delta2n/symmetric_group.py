"""Symmetric-group combinatorics: partitions, characters, Specht matrices.

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
from math import factorial

import numpy as np

from .linalg import int_matmul, rref_exact


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


def decompose(f: ClassFunction, allow_virtual: bool = False) -> dict:
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
        if mult < 0 and not allow_virtual:
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


def identity_perm(n):
    return tuple(range(n))


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


def _tabloid_key(tab, n):
    row_of = [0] * n
    for r, row in enumerate(tab):
        for x in row:
            row_of[x] = r
    return tuple(row_of)


def _polytabloid(tab, n, index_of):
    """Signed tabloid expansion of e_tab as {tabloid index: coefficient}."""
    cols = []
    ncols = max(len(row) for row in tab)
    for c in range(ncols):
        cols.append([row[c] for row in tab if len(row) > c])
    vec = {}
    for choice in itertools.product(*(itertools.permutations(col) for col in cols)):
        sign = 1
        sub = list(range(n))
        for col, img in zip(cols, choice):
            for x, y in zip(col, img):
                sub[x] = y
        # sign of the column permutation = product of per-column parities
        for col, img in zip(cols, choice):
            rank = {v: i for i, v in enumerate(col)}
            arr = [rank[v] for v in img]
            inv = sum(
                1
                for i in range(len(arr))
                for j in range(i + 1, len(arr))
                if arr[i] > arr[j]
            )
            if inv % 2:
                sign = -sign
        moved = tuple(tuple(sub[x] for x in row) for row in tab)
        key = _tabloid_key(moved, n)
        idx = index_of.setdefault(key, len(index_of))
        vec[idx] = vec.get(idx, 0) + sign
    return vec


def _dense_columns(cols, nrows):
    """Object matrix whose column j is the sparse column dict cols[j]."""
    out = np.zeros((nrows, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        for r, v in col.items():
            out[r, j] = v
    return out


class SpechtRep:
    """Young's natural representation of S_n on standard polytabloids.

    Matrices are integral; ``matrix(p)`` returns rho(p) with
    rho(p o q) = rho(p) @ rho(q).  Column j of rho(p) expands p . e_{t_j}
    in the polytabloid basis e_{t_1}, ..., e_{t_d}.
    """

    def __init__(self, lam):
        self.lam = tuple(lam)
        self.n = sum(lam)
        self.tableaux = standard_tableaux(self.lam)
        self.dim = len(self.tableaux)
        if self.dim != hook_dimension(self.lam):
            raise AssertionError("tableau count does not match hook formula")
        index_of = {}
        ecols = [_polytabloid(t, self.n, index_of) for t in self.tableaux]
        # pivot columns of E^T pick the tabloid rows where E is invertible
        rank, self._solve_rows, _ = rref_exact(_dense_columns(ecols, len(index_of)).T)
        if rank != self.dim:
            raise ValueError("polytabloid columns are dependent")
        self._index_of = index_of
        self._ecols = ecols
        self.generators = tuple(
            self._solve_action(self._swap_perm(j)) for j in range(self.n - 1)
        )
        self._cache = {identity_perm(self.n): np.eye(self.dim, dtype=np.int64)}

    def _swap_perm(self, j):
        p = list(range(self.n))
        p[j], p[j + 1] = p[j + 1], p[j]
        return tuple(p)

    def _solve_action(self, perm):
        # images p . e_t = e_{p.t} expanded over tabloids, then solved
        # against the known polytabloid columns
        index_of = self._index_of
        bcols = []
        for tab in self.tableaux:
            moved = tuple(tuple(perm[x] for x in row) for row in tab)
            bcols.append(_polytabloid(moved, self.n, index_of))
        d = self.dim
        e_dense = _dense_columns(self._ecols, len(index_of))
        b_dense = _dense_columns(bcols, len(index_of))
        rows = self._solve_rows
        # E[rows] is invertible, so the rref of [E[rows] | B[rows]] is [I | X]
        _, _, reduced = rref_exact(np.hstack([e_dense[rows], b_dense[rows]]))
        mat = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                x = reduced[i][d + j]
                if x.denominator != 1:
                    raise AssertionError("non-integral Specht matrix entry")
                mat[i, j] = int(x)
        check = e_dense @ mat.astype(object)
        if not np.array_equal(check, b_dense):
            raise AssertionError("polytabloid action solve failed")
        return mat

    def matrix(self, perm) -> np.ndarray:
        perm = tuple(perm)
        cached = self._cache.get(perm)
        if cached is not None:
            return cached
        out = np.eye(self.dim, dtype=np.int64)
        for j in reversed(transposition_word(perm)):
            out = int_matmul(out, self.generators[j])
        self._cache[perm] = out
        return out

    def character(self) -> ClassFunction:
        n = self.n
        vals = tuple(
            Fraction(int(np.trace(self.matrix(class_representative(mu)))))
            for mu in partitions_of(n)
        )
        return ClassFunction(n, vals)


@cache
def specht_matrices(lam) -> SpechtRep:
    return SpechtRep(lam)
