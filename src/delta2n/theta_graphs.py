"""Marked theta graphs of genus 2: enumeration, canonical forms, contraction.

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

The minimum is found without building all 12 images.  For a fixed flip the
branch labels are fixed, so the least image lists the paths in sorted order;
a stable sort picks the first such path permutation in SYMMETRIES order (only
empty paths can tie, since paths hold disjoint labels).  The canonical form is
the smaller of the two sorted images, flip 0 on a tie.  Enumeration uses the
same rule backwards: a graph with sorted paths is canonical iff it is no
larger than its flipped-and-sorted image.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

UNMARKED = -1

_PATH_PERMS = tuple(itertools.permutations(range(3)))
# (flip, path permutation) pairs in a fixed order; identity first.
SYMMETRIES = tuple((flip, perm) for flip in (0, 1) for perm in _PATH_PERMS)


class MalformedGraphError(ValueError):
    pass


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


def make_graph(branch_a, branch_b, paths) -> ThetaGraph:
    return ThetaGraph(
        UNMARKED if branch_a is None else branch_a,
        UNMARKED if branch_b is None else branch_b,
        tuple(tuple(p) for p in paths),
    )


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


def _apply_symmetry(g: ThetaGraph, flip: int, perm) -> ThetaGraph:
    if flip:
        a, b = g.branch_b, g.branch_a
        base = tuple(p[::-1] for p in g.paths)
    else:
        a, b = g.branch_a, g.branch_b
        base = g.paths
    return ThetaGraph(a, b, (base[perm[0]], base[perm[1]], base[perm[2]]))


def _edge_source_map(g: ThetaGraph, flip: int, perm) -> list[int]:
    """Reference label in g of the edge landing at each reference slot of the image.

    Slot j of the image graph receives g's edge src[j]; the symmetry's sign is
    the parity of this permutation.
    """
    lens = [len(p) for p in g.paths]
    off = [0, lens[0] + 1, lens[0] + lens[1] + 2]
    src = []
    for i in range(3):
        q = perm[i]
        m = lens[q]
        if flip:
            src.extend(off[q] + m - j for j in range(m + 1))
        else:
            src.extend(off[q] + j for j in range(m + 1))
    return src


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


def canonicalize(g: ThetaGraph) -> SignedIso:
    """Canonical form with the sign of the induced edge permutation.

    The target is the lexicographically least of g's 12 symmetry images; the
    sign is the parity of the edge relabeling for the first symmetry that
    attains the minimum.
    """
    validate(g)
    return _canonicalize_fast(g)


def _sorted_images(g: ThetaGraph):
    """The least image for each flip, as (image, flip, path permutation) pairs."""
    out = []
    for flip in (0, 1):
        if flip:
            a, b = g.branch_b, g.branch_a
            base = tuple(p[::-1] for p in g.paths)
        else:
            a, b = g.branch_a, g.branch_b
            base = g.paths
        perm = sorted(range(3), key=base.__getitem__)
        out.append((ThetaGraph(a, b, (base[perm[0]], base[perm[1]], base[perm[2]])), flip, perm))
    return out


def _canonicalize_fast(g: ThetaGraph) -> SignedIso:
    unflipped, flipped = _sorted_images(g)
    best, flip, perm = flipped if flipped[0] < unflipped[0] else unflipped
    return SignedIso(best, perm_parity(_edge_source_map(g, flip, perm)))


def canonical_form(g: ThetaGraph) -> ThetaGraph:
    return _canonicalize_fast(g).target


def automorphisms(g: ThetaGraph):
    """All symmetries fixing g, as ((flip, path_perm), edge_parity) pairs."""
    out = []
    for flip, perm in SYMMETRIES:
        if _apply_symmetry(g, flip, perm) == g:
            out.append(((flip, perm), perm_parity(_edge_source_map(g, flip, perm))))
    return out


def has_odd_automorphism(g: ThetaGraph) -> bool:
    """Whether some symmetry fixes g with odd edge parity.

    Two empty paths are two parallel u-v edges, and swapping them is odd.
    Otherwise the paths are distinct, each flip has exactly one symmetry onto
    its sorted image, and the nontrivial automorphism (if any) is the second
    symmetry undone after the first: it exists iff both sorted images agree,
    and it is odd iff their signs differ.
    """
    if g.paths.count(()) >= 2:
        return True
    if g.branch_a != g.branch_b:
        return False  # the flip swaps the branch labels, so the images differ
    (img0, _, perm0), (img1, _, perm1) = _sorted_images(g)
    return img0 == img1 and perm_parity(_edge_source_map(g, 0, perm0)) != perm_parity(
        _edge_source_map(g, 1, perm1)
    )


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
    return _canonicalize_fast(ThetaGraph(new_a, new_b, tuple(paths)))


def to_line(g: ThetaGraph) -> str:
    """Serialize in the one-line format with 1-based labels, `-` for unmarked."""
    f = lambda l: "-" if l == UNMARKED else str(l + 1)
    parts = ["a=%s" % f(g.branch_a), "b=%s" % f(g.branch_b)]
    for i, p in enumerate(g.paths):
        parts.append("p%d=%s" % (i, ",".join(str(l + 1) for l in p)))
    return ";".join(parts)


def from_line(line: str) -> ThetaGraph:
    fields = {}
    for chunk in line.strip().split(";"):
        key, _, val = chunk.partition("=")
        fields[key.strip()] = val.strip()
    try:
        a = UNMARKED if fields["a"] == "-" else int(fields["a"]) - 1
        b = UNMARKED if fields["b"] == "-" else int(fields["b"]) - 1
        paths = tuple(
            tuple(int(tok) - 1 for tok in fields["p%d" % i].split(",") if tok)
            for i in range(3)
        )
    except (KeyError, ValueError) as exc:
        raise MalformedGraphError("bad graph line %r" % line) from exc
    g = ThetaGraph(a, b, paths)
    validate(g)
    return g
