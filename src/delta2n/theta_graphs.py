"""Marked theta graphs of genus 2: enumeration, canonical forms, contraction,
and the chain complex described by S_n-orbits.

A theta graph has two trivalent branch vertices u, v joined by three parallel
paths.  A marked theta graph carries n labels 0..n-1, each attached to its own
vertex: interior (degree-2) vertices carry exactly one label each, branch
vertices carry at most one.  The combinatorial data is therefore

    (branch_a, branch_b, (path0, path1, path2))

where branch_a/branch_b are the labels at u and v (-1 when unmarked) and each
path lists its interior labels in order from u to v.  A graph with p+1 edges
is a p-cell; edges get the reference labeling 0..p path-major, u -> v within
each path.

The symmetry group of the unmarked theta graph has order 12: S_3 permuting the
paths times the flip that swaps u and v and reverses every path.  Canonical
form is the lexicographic minimum of the encoded tuple over these symmetries.
Every symmetry induces a permutation of edge labels whose parity is the sign
tracked throughout.

The orbit layer (``chain_orbits``, ``chain_dim``, ``boundary_terms``) works
one graph at a time on orbit representatives; the labeled bases and global
boundaries, as whole integer arrays, live in ``chain_complex``.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial
from typing import NamedTuple

from . import MalformedGraphError

UNMARKED = -1

_PATH_PERMS = tuple(itertools.permutations(range(3)))
# (flip, path permutation) pairs in a fixed order; identity first.
SYMMETRIES = tuple((flip, perm) for flip in (0, 1) for perm in _PATH_PERMS)


class ThetaGraph(NamedTuple):
    branch_a: int
    branch_b: int
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def n(self) -> int:
        return (self.branch_a >= 0) + (self.branch_b >= 0) + sum(
            len(p) for p in self.paths
        )

    @property
    def num_edges(self) -> int:
        return 3 + sum(len(p) for p in self.paths)


class SignedIso(NamedTuple):
    target: ThetaGraph
    sign: int


class Degenerate(NamedTuple):
    reason: str  # "cyclic-theta" or "non-injective-marking"


def validate(g: ThetaGraph) -> None:
    """Raise MalformedGraphError unless g is a well-formed marked theta graph."""
    labels = []
    if g.branch_a != UNMARKED:
        labels.append(g.branch_a)
    if g.branch_b != UNMARKED:
        labels.append(g.branch_b)
    if len(g.paths) != 3:
        raise MalformedGraphError("expected exactly 3 paths")
    for p in g.paths:
        labels.extend(p)
    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise MalformedGraphError(
            "marking must use each label 0..n-1 exactly once, got %r" % (labels,)
        )


def is_full_theta(g: ThetaGraph) -> bool:
    """True when every path has an interior marking (no single cycle holds all)."""
    return all(len(p) > 0 for p in g.paths)


def perm_parity(arr) -> int:
    """Sign of a permutation given in one-line form."""
    seen = [False] * len(arr)
    sign = 1
    for i in range(len(arr)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = arr[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@cache
def _parities(lens) -> tuple:
    """Edge parity of each symmetry, in SYMMETRIES order, for a graph with
    these path lengths.  Path q carries s_q = lens[q] + 1 edges, and slot i
    of the image receives path perm[i]'s edges as one block, reversed when
    flipped: the edge permutation has s_q s_r inversions for each pair of
    paths q < r that perm puts out of order, plus s_q (s_q - 1) / 2 within
    each reversed block."""
    s = [m + 1 for m in lens]
    within = sum(k * (k - 1) // 2 for k in s)

    def between(perm):
        return sum(s[q] * s[r] for q, r in itertools.combinations(perm, 2) if q > r)

    return tuple((-1) ** (flip * within + between(perm)) for flip, perm in SYMMETRIES)


def _images(g: ThetaGraph) -> list:
    """g's 12 symmetry images, each with its edge parity, in SYMMETRIES order."""
    unflipped = g.branch_a, g.branch_b, g.paths
    flipped = g.branch_b, g.branch_a, tuple(p[::-1] for p in g.paths)
    out = []
    for (flip, perm), sign in zip(SYMMETRIES, _parities(tuple(len(p) for p in g.paths))):
        a, b, base = flipped if flip else unflipped
        out.append((ThetaGraph(a, b, (base[perm[0]], base[perm[1]], base[perm[2]])), sign))
    return out


def canonicalize(g: ThetaGraph) -> SignedIso:
    """Canonical form with the sign of the induced edge permutation.

    The target is the lexicographically least of g's 12 symmetry images; the
    sign is the parity of the edge relabeling for the first symmetry that
    attains the minimum.
    """
    validate(g)
    return SignedIso(*min(_images(g), key=lambda image: image[0]))


def automorphisms(g: ThetaGraph):
    """All symmetries fixing g, as ((flip, path_perm), edge_parity) pairs."""
    return [(s, sign) for s, (img, sign) in zip(SYMMETRIES, _images(g)) if img == g]


def has_odd_automorphism(g: ThetaGraph) -> bool:
    """Whether some symmetry fixes g with odd edge parity."""
    return any(img == g and sign < 0 for img, sign in _images(g))


class OrbitForm(NamedTuple):
    """g = sign * tau . rep, where rep represents g's orbit."""

    orbit: tuple
    tau: tuple
    sign: int


def orbit_of(g: ThetaGraph) -> tuple:
    """The S_n-orbit of g as its marking shape: (marked branch vertices,
    sorted path lengths).  Relabeling keeps it, and a theta symmetry only
    swaps the branch ends and permutes the paths."""
    marks = (g.branch_a != UNMARKED) + (g.branch_b != UNMARKED)
    return marks, tuple(sorted(len(p) for p in g.paths))


def orbit_representative(orbit) -> ThetaGraph:
    """Canonical graph of the given shape, labels filled in position order."""
    marks, lens = orbit
    branch = (UNMARKED, UNMARKED, 0, 1)[marks : marks + 2]
    labels = iter(range(marks, marks + sum(lens)))
    paths = tuple(tuple(next(labels) for _ in range(m)) for m in lens)
    return canonicalize(ThetaGraph(branch[0], branch[1], paths)).target


def _slots(g: ThetaGraph):
    return g.branch_a != UNMARKED, g.branch_b != UNMARKED, tuple(len(p) for p in g.paths)


def _moves_into(g: ThetaGraph, slots):
    """(image, edge parity) for each symmetry that puts g into these slots."""
    for img, sign in _images(g):
        if _slots(img) == slots:
            yield img, sign


def _carry(src: ThetaGraph, dst: ThetaGraph):
    """The label permutation tau with relabel(src, tau) == dst (same slots)."""
    tau = [0] * src.n
    for x, y in zip(
        itertools.chain((src.branch_a, src.branch_b), *src.paths),
        itertools.chain((dst.branch_a, dst.branch_b), *dst.paths),
    ):
        if x != UNMARKED:
            tau[x] = y
    return tuple(tau)


def orbit_normal_form(g: ThetaGraph, rep: ThetaGraph | None = None) -> OrbitForm:
    """Write the canonical graph g as sign * tau . rep, for any canonical rep
    of g's orbit (default ``orbit_representative``).

    A symmetry S puts g into rep's slots; then relabel(rep, tau) == S(g), so
    tau . e_rep = e_{S(g)} = sign * e_g with sign the parity of S.
    """
    orbit = orbit_of(g)
    rep = rep or orbit_representative(orbit)
    for img, sign in _moves_into(g, _slots(rep)):
        return OrbitForm(orbit, _carry(rep, img), sign)
    raise MalformedGraphError(f"{g} is not in the orbit of {rep}")


def signed_stabilizer(rep: ThetaGraph):
    """The (h, eps) with h . e_rep = eps * e_rep, one h per symmetry that keeps
    rep's slots; two symmetries give the same h only when they differ by an
    automorphism, which must then be even."""
    out = {}
    for img, sign in _moves_into(rep, _slots(rep)):
        if out.setdefault(_carry(rep, img), sign) != sign:
            raise MalformedGraphError(f"{rep} has an odd automorphism")
    return tuple(sorted(out.items()))


def relabel(g: ThetaGraph, sigma) -> ThetaGraph:
    """Apply a marking permutation: label l becomes sigma[l].  Not canonicalized."""
    f = lambda l: UNMARKED if l == UNMARKED else sigma[l]
    return ThetaGraph(
        f(g.branch_a), f(g.branch_b), tuple(tuple(sigma[l] for l in p) for p in g.paths)
    )


def _sorted_path_triples(interior, full_only):
    """Every split of `interior` into three ordered paths with p0 <= p1 <= p2.

    Paths hold disjoint labels, so empty paths come first and nonempty paths
    compare by their first label: each triple is a permutation w of the
    labels cut where those first labels increase.
    """
    k = len(interior)
    if k == 0:
        if not full_only:
            yield ((), (), ())
        return
    for w in itertools.permutations(interior):
        w0 = w[0]
        if not full_only:
            yield ((), (), w)
            for i in range(1, k):
                if w[i] > w0:
                    yield ((), w[:i], w[i:])
        for i in range(1, k - 1):
            wi = w[i]
            if wi < w0:
                continue
            for j in range(i + 1, k):
                if w[j] > wi:
                    yield (w[:i], w[i:j], w[j:])


def enumerate_theta(n: int, edges: int | None = None, full_only: bool = False):
    """All isomorphism classes of marked theta graphs, sorted canonically.

    `edges` restricts to a single edge count (n+1, n+2 or n+3; values outside
    that range give an empty list).  With full_only, only graphs whose three
    paths all carry interior markings are kept.

    Each class is emitted once, already canonical: a graph whose paths are
    sorted is canonical iff it is no larger than its flipped-and-sorted image.
    With distinct branch labels that comparison is decided by (a, b) against
    (b, a), so only a < b is generated (an unmarked branch is -1, hence a).
    """
    if n < 0:
        raise MalformedGraphError("marking count must be non-negative")
    if edges is None:
        out = []
        for e in (n + 1, n + 2, n + 3):
            out.extend(enumerate_theta(n, e, full_only))
        return sorted(out)
    branch_marks = n + 3 - edges
    if branch_marks not in (0, 1, 2):
        return []
    labels = range(n)
    if branch_marks == 0:
        branch_choices = [(UNMARKED, UNMARKED)]
    elif branch_marks == 1:
        branch_choices = [(UNMARKED, x) for x in labels]
    else:
        branch_choices = [(x, y) for x in labels for y in labels if x < y]
    out = []
    for a, b in branch_choices:
        interior = [l for l in labels if l != a and l != b]
        for paths in _sorted_path_triples(interior, full_only):
            if a == b:
                flipped = sorted(p[::-1] for p in paths)
                if list(paths) > flipped:
                    continue
            out.append(ThetaGraph(a, b, paths))
    return sorted(out)


def contract(g: ThetaGraph, edge_index: int):
    """Contract one edge of g (reference labeling) and canonicalize the result.

    Returns SignedIso(target, sign) when the contracted graph still has full
    theta type, else Degenerate(reason): "non-injective-marking" when the two
    merged vertices both carry labels, "cyclic-theta" when the result is theta
    type but some path loses its last interior marking (or a direct u-v edge
    gets contracted, collapsing the theta shape itself).
    """
    lens = [len(p) for p in g.paths]
    if not 0 <= edge_index < g.num_edges:
        raise IndexError("edge index %d out of range" % edge_index)
    t = 0
    k = edge_index
    while k > lens[t]:
        k -= lens[t] + 1
        t += 1
    m = lens[t]
    path = g.paths[t]
    if 1 <= k <= m - 1:
        return Degenerate("non-injective-marking")
    if m == 0:
        # direct u-v edge; merging the branch vertices leaves a two-loop graph
        if g.branch_a != UNMARKED and g.branch_b != UNMARKED:
            return Degenerate("non-injective-marking")
        return Degenerate("cyclic-theta")
    if k == 0:
        if g.branch_a != UNMARKED:
            return Degenerate("non-injective-marking")
        new_a, new_b = path[0], g.branch_b
        new_path = path[1:]
    else:  # k == m: the v-side edge
        if g.branch_b != UNMARKED:
            return Degenerate("non-injective-marking")
        new_a, new_b = g.branch_a, path[m - 1]
        new_path = path[:-1]
    if not new_path:
        return Degenerate("cyclic-theta")
    paths = list(g.paths)
    paths[t] = new_path
    # The gap-closing relabeling of the surviving edges coincides with the
    # shortened graph's own reference labeling, so only canonicalization
    # contributes a sign.
    return canonicalize(ThetaGraph(new_a, new_b, tuple(paths)))


# The chain complex by orbits.  Chain degree p is spanned by the canonical
# full-theta graphs with p+1 edges that have no odd automorphism; S_n permutes
# them up to sign, and the data below describe each degree by one
# representative per orbit, without enumerating the labeled basis.


def _slot_shapes(n: int, p: int) -> tuple:
    """The slot shapes of the canonical graphs of degree p: n+2-p marked
    branch vertices, an unmarked one first (it sorts lowest), and p-2
    interior labels on three nonempty paths."""
    marks, interior = n + 2 - p, p - 2
    if marks not in (0, 1, 2):
        return ()
    return tuple(
        (marks == 2, marks >= 1, (l0, l1, interior - l0 - l1))
        for l0 in range(1, interior - 1)
        for l1 in range(1, interior - l0)
    )


@cache
def chain_orbits(n: int, p: int) -> tuple:
    """One canonical representative per S_n-orbit of the degree-p basis: one
    per marking shape of the slot shapes (``_slot_shapes``), those with an
    odd automorphism (which an orbit has or lacks as a whole) left out."""
    if n < 2:
        raise ValueError(f"n={n} is out of range")
    orbits = sorted({(ma + mb, tuple(sorted(lens))) for ma, mb, lens in _slot_shapes(n, p)})
    return tuple(rep for rep in map(orbit_representative, orbits) if not has_odd_automorphism(rep))


@cache
def chain_dim(n: int, p: int) -> int:
    """dim C_p by orbit-stabilizer, without enumerating the basis: the sum of
    n!/|H_o| over the orbits, H_o the signed stabilizer of the representative."""
    return sum(factorial(n) // len(signed_stabilizer(rep)) for rep in chain_orbits(n, p))


def boundary_terms(g: ThetaGraph):
    """The terms of d(g) as (canonical target, coefficient) pairs; a target
    may still vanish in the relative complex.  Contracting an interior edge
    merges two marked vertices, so only the two end edges of each path
    contribute; edge i carries the sign (-1)^i."""
    start = 0
    for path in g.paths:
        for i in (start, start + len(path)):
            res = contract(g, i)
            if not isinstance(res, Degenerate):
                yield res.target, (res.sign if i % 2 == 0 else -res.sign)
        start += len(path) + 1


def to_line(g: ThetaGraph) -> str:
    """Serialize in the one-line format with 1-based labels, `-` for unmarked."""
    f = lambda l: "-" if l == UNMARKED else str(l + 1)
    parts = ["a=%s" % f(g.branch_a), "b=%s" % f(g.branch_b)]
    for i, p in enumerate(g.paths):
        parts.append("p%d=%s" % (i, ",".join(str(l + 1) for l in p)))
    return ";".join(parts)
