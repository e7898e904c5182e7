import itertools
import random

import numpy as np
import pytest

from delta2n.chain_complex import canonical_keys
from delta2n.theta_graphs import (
    UNMARKED,
    Degenerate,
    MalformedGraphError,
    SignedIso,
    ThetaGraph,
    automorphisms,
    canonicalize,
    contract,
    enumerate_theta,
    has_odd_automorphism,
    is_full_theta,
    orbit_normal_form,
    orbit_of,
    orbit_representative,
    perm_parity,
    relabel,
    signed_stabilizer,
    to_line,
)


def _graph(branch_a, branch_b, paths):
    """A ThetaGraph from path lists, with None for an unmarked branch vertex."""
    return ThetaGraph(
        UNMARKED if branch_a is None else branch_a,
        UNMARKED if branch_b is None else branch_b,
        tuple(tuple(p) for p in paths),
    )


# ---------------------------------------------------------------------------
# independent oracle: symmetries realized through explicit vertex/edge sets


def _edge_list(g):
    # edges as (endpoint, endpoint, path) in reference order; vertices are
    # tagged ids, and the path index disambiguates parallel direct u-v edges
    edges = []
    for t, p in enumerate(g.paths):
        m = len(p)
        verts = ["u"] + [("p", t, i) for i in range(m)] + ["v"]
        edges.extend((verts[i], verts[i + 1], t) for i in range(m + 1))
    return edges


def _edge_key(x, y, path_tag):
    direct = {x, y} == {"u", "v"}
    return (frozenset((x, y)), path_tag if direct else None)


def _vertex_image(vert, g, flip, perm):
    # where a vertex of g goes under the symmetry; inverse path lookup
    if vert == "u":
        return "v" if flip else "u"
    if vert == "v":
        return "u" if flip else "v"
    _, t, i = vert
    m = len(g.paths[t])
    t_new = perm.index(t)
    i_new = m - 1 - i if flip else i
    return ("p", t_new, i_new)


def _inversions(arr):
    inv = 0
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            if arr[i] > arr[j]:
                inv += 1
    return inv


def _oracle_images(g):
    """All 12 (image, edge-permutation sign) pairs by endpoint matching."""
    out = []
    src_edges = _edge_list(g)
    for flip in (0, 1):
        for perm in itertools.permutations(range(3)):
            if flip:
                a, b = g.branch_b, g.branch_a
                base = tuple(p[::-1] for p in g.paths)
            else:
                a, b = g.branch_a, g.branch_b
                base = g.paths
            img = ThetaGraph(a, b, (base[perm[0]], base[perm[1]], base[perm[2]]))
            lookup = {
                _edge_key(x, y, t): i for i, (x, y, t) in enumerate(_edge_list(img))
            }
            mapped = [
                lookup[
                    _edge_key(
                        _vertex_image(x, g, flip, perm),
                        _vertex_image(y, g, flip, perm),
                        perm.index(t),
                    )
                ]
                for x, y, t in src_edges
            ]
            assert sorted(mapped) == list(range(len(src_edges)))
            out.append((img, -1 if _inversions(mapped) % 2 else 1))
    return out


def _random_graph(rng, n, allow_empty=True):
    labels = list(range(n))
    rng.shuffle(labels)
    a = b = UNMARKED
    if allow_empty and n >= 2 and rng.random() < 0.3:
        a = labels.pop()
    if allow_empty and n >= 2 and rng.random() < 0.3:
        b = labels.pop()
    k = len(labels)
    if allow_empty:
        i, j = sorted(rng.choice(range(k + 1)) for _ in range(2))
    else:
        i, j = sorted(rng.sample(range(1, k), 2))
    return ThetaGraph(a, b, (tuple(labels[:i]), tuple(labels[i:j]), tuple(labels[j:])))


def test_canonicalize_idempotent():
    rng = random.Random(7)
    for n in (2, 3, 4, 5, 6):
        for _ in range(60):
            g = _random_graph(rng, n)
            res = canonicalize(g)
            again = canonicalize(res.target)
            assert again.target == res.target
            assert again.sign == 1


def test_canonical_form_constant_on_orbit():
    rng = random.Random(11)
    for n in (2, 4, 5):
        for _ in range(40):
            g = _random_graph(rng, n)
            c = canonicalize(g).target
            for img, _ in _oracle_images(g):
                assert canonicalize(img).target == c


def test_sign_matches_endpoint_oracle():
    rng = random.Random(13)
    for n in (2, 3, 4, 5, 6):
        for _ in range(80):
            g = _random_graph(rng, n)
            res = canonicalize(g)
            matches = [s for img, s in _oracle_images(g) if img == res.target]
            assert res.target == min(img for img, _ in _oracle_images(g))
            assert res.sign in matches


def test_automorphism_parities_match_oracle():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(60):
            g = canonicalize(_random_graph(rng, n)).target
            got = sorted(parity for _, parity in automorphisms(g))
            expect = sorted(s for img, s in _oracle_images(g) if img == g)
            assert got == expect


def test_sign_of_two_disjoint_transpositions():
    # swapping two singleton paths moves 4 edges in two transpositions: even,
    # so both placements canonicalize with the same sign
    g1 = _graph(None, None, [[0], [1], []])
    g2 = _graph(None, None, [[1], [0], []])
    r1, r2 = canonicalize(g1), canonicalize(g2)
    assert r1.target == r2.target
    assert r1.sign == r2.sign


def test_enumeration_counts_full():
    expected = {
        4: {7: 6, 6: 4, 5: 0},
        5: {8: 60, 7: 60, 6: 10},
        6: {9: 600, 8: 720, 7: 180},
    }
    for n, by_edges in expected.items():
        for edges, count in by_edges.items():
            got = enumerate_theta(n, edges, full_only=True)
            assert len(got) == count, (n, edges)
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            assert all(is_full_theta(g) and g.num_edges == edges for g in got)


def test_enumeration_orbit_counting():
    # raw placements of labels into three nonempty ordered paths, grouped into
    # orbits of the 12 symmetries: sum of 12/|Aut| over classes = raw count
    for n, raw_count in ((4, 72), (5, 720)):
        classes = enumerate_theta(n, n + 3, full_only=True)
        total = 0
        for g in classes:
            total += 12 // len(automorphisms(g))
        assert total == raw_count


def test_enumeration_out_of_range_edges():
    assert enumerate_theta(5, 5) == []
    assert enumerate_theta(5, 9) == []


def test_trivial_automorphisms_for_n_ge_4():
    for n in (4, 5):
        for edges in (n + 1, n + 2, n + 3):
            for g in enumerate_theta(n, edges, full_only=True):
                assert automorphisms(g) == [((0, (0, 1, 2)), 1)]
                assert not has_odd_automorphism(g)


def test_n3_triple_path_has_odd_flip():
    g = canonicalize(_graph(None, None, [[0], [1], [2]])).target
    autos = automorphisms(g)
    assert any(parity == -1 for _, parity in autos)
    # the flip reverses three 2-edge paths: three transpositions, odd
    flips = [sym for sym, parity in autos if sym[0] == 1 and parity == -1]
    assert flips


def test_n2_theta_type_census():
    classes = enumerate_theta(2)
    assert len(classes) == 5
    t1 = canonicalize(_graph(None, None, [[], [0], [1]])).target
    t2 = canonicalize(_graph(None, 1, [[], [], [0]])).target
    t3 = canonicalize(_graph(None, 0, [[], [], [1]])).target
    t4 = canonicalize(_graph(0, 1, [[], [], []])).target
    one_path = canonicalize(_graph(None, None, [[], [], [0, 1]])).target
    assert sorted([t1, t2, t3, t4, one_path]) == classes
    assert not has_odd_automorphism(t1)
    assert has_odd_automorphism(t2)
    assert has_odd_automorphism(t3)
    assert has_odd_automorphism(t4)
    # the class left out of the four: both markings interior on one path;
    # swapping the two unmarked parallel edges is an odd automorphism
    assert has_odd_automorphism(one_path)


def test_contract_interior_interior_degenerate():
    g = canonicalize(_graph(None, None, [[0, 1], [2], [3]])).target
    # edge 1 of path 0 joins the two marked interior vertices
    res = contract(g, 1)
    assert res == Degenerate("non-injective-marking")


def test_contract_into_marked_branch():
    g = _graph(3, None, [[0], [1], [2]])
    res = contract(g, 0)  # u-side edge of path 0, u marked
    assert res == Degenerate("non-injective-marking")


def test_contract_empties_path():
    g = _graph(None, None, [[0], [1], [2]])
    res = contract(g, 0)  # path 0 loses its only marking
    assert res == Degenerate("cyclic-theta")


def test_contract_direct_edge():
    both = _graph(0, 1, [[], [], []])
    assert contract(both, 0) == Degenerate("non-injective-marking")
    one = _graph(0, None, [[], [], []])
    assert contract(one, 0) == Degenerate("cyclic-theta")


def test_contract_moves_marking_to_branch():
    # v-side edge of path 0: interior vertex 1 merges into unmarked v
    g = _graph(4, None, [[0, 1], [2], [3]])
    res = contract(g, 2)
    assert isinstance(res, SignedIso)
    expect = canonicalize(_graph(4, 1, [[0], [2], [3]]))
    assert res.target == expect.target
    assert res.sign == expect.sign
    assert res.target.num_edges == g.num_edges - 1


def test_contract_results_stay_injective():
    rng = random.Random(23)
    for n in (4, 5):
        for g in enumerate_theta(n, n + 3, full_only=True):
            for i in range(g.num_edges):
                res = contract(g, i)
                if isinstance(res, SignedIso):
                    # validate() inside canonicalize already enforces
                    # injectivity; double-check the edge count drop
                    canonicalize(res.target)
                    assert res.target.num_edges == g.num_edges - 1
                    assert is_full_theta(res.target)
        for _ in range(20):
            g = _random_graph(rng, n)
            with pytest.raises(IndexError):
                contract(g, g.num_edges)


def test_relabel_is_left_action():
    rng = random.Random(29)
    for n in (3, 5):
        perms = list(itertools.permutations(range(n)))
        for _ in range(30):
            g = _random_graph(rng, n)
            s, t = rng.choice(perms), rng.choice(perms)
            st = tuple(s[t[i]] for i in range(n))
            assert relabel(relabel(g, t), s) == relabel(g, st)


def test_perm_parity():
    assert perm_parity([0, 1, 2]) == 1
    assert perm_parity([1, 0, 2]) == -1
    assert perm_parity([1, 2, 0]) == 1
    rng = random.Random(31)
    for _ in range(50):
        arr = list(range(8))
        rng.shuffle(arr)
        assert perm_parity(arr) == (-1) ** _inversions(arr)


def test_line_roundtrip():
    assert to_line(_graph(None, 1, [[0], [], [2, 3]])) == "a=-;b=2;p0=1;p1=;p2=3,4"


def test_validate_errors():
    with pytest.raises(MalformedGraphError):
        canonicalize(_graph(None, None, [[0, 0], [1], []]))
    with pytest.raises(MalformedGraphError):
        canonicalize(_graph(2, None, [[0], [1], [2]]))


# ---------------------------------------------------------------------------
# exhaustive agreement with the 12-image definition


def _all_labelled(n):
    """Every marked theta graph on labels 0..n-1: each branch placement, each
    interior order and each split into three paths, empty paths included."""
    labels = range(n)
    branches = [(UNMARKED, UNMARKED)]
    branches += [(x, UNMARKED) for x in labels] + [(UNMARKED, x) for x in labels]
    branches += [(x, y) for x in labels for y in labels if x != y]
    for a, b in branches:
        interior = [l for l in labels if l != a and l != b]
        k = len(interior)
        for w in itertools.permutations(interior):
            for i in range(k + 1):
                for j in range(i, k + 1):
                    yield ThetaGraph(a, b, (w[:i], w[i:j], w[j:]))


def _brute_canonical(g):
    # least of the 12 images, built directly from the definition
    images = []
    for flip in (0, 1):
        a, b = (g.branch_b, g.branch_a) if flip else (g.branch_a, g.branch_b)
        base = tuple(p[::-1] for p in g.paths) if flip else g.paths
        for perm in itertools.permutations(range(3)):
            images.append(ThetaGraph(a, b, tuple(base[i] for i in perm)))
    return min(images)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_canonicalize_is_first_oracle_minimum_exhaustive(n):
    for g in _all_labelled(n):
        images = _oracle_images(g)
        # min() keeps the first minimum, and the oracle lists the 12
        # symmetries in (flip, path permutation) order
        target, sign = min(images, key=lambda pair: pair[0])
        assert canonicalize(g) == SignedIso(target, sign), g


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_has_odd_automorphism_matches_oracle_exhaustive(n):
    for g in _all_labelled(n):
        expect = any(img == g and sign == -1 for img, sign in _oracle_images(g))
        assert has_odd_automorphism(g) == expect, g


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_enumeration_matches_brute_force(n):
    classes = {}
    for g in _all_labelled(n):
        c = _brute_canonical(g)
        classes.setdefault((c.num_edges, is_full_theta(c)), set()).add(c)
    for full_only in (False, True):
        every = set()
        for edges in range(n, n + 5):
            want = set()
            for (e, full), group in classes.items():
                if e == edges and (full or not full_only):
                    want |= group
            assert enumerate_theta(n, edges, full_only) == sorted(want), (edges, full_only)
            every |= want
        assert enumerate_theta(n, None, full_only) == sorted(every), full_only


# ---------------------------------------------------------------------------
# orbit normal forms and signed stabilizers


def _basis_graphs(n, p):
    return [
        g for g in enumerate_theta(n, p + 1, full_only=True) if not has_odd_automorphism(g)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_normal_form_round_trips_every_basis_graph(n):
    for p in (n, n + 1, n + 2):
        for g in _basis_graphs(n, p):
            orbit, tau, sign = orbit_normal_form(g)
            assert orbit == orbit_of(g)
            rep = orbit_representative(orbit)
            assert orbit_of(rep) == orbit and canonicalize(rep).target == rep
            assert canonicalize(relabel(rep, tau)) == SignedIso(g, sign)


def test_orbit_normal_form_against_any_representative():
    # every graph of an orbit may serve as the representative
    graphs = _basis_graphs(5, 7)
    rng = random.Random(3)
    for g in rng.sample(graphs, 12):
        for rep in rng.sample([h for h in graphs if orbit_of(h) == orbit_of(g)], 4):
            _, tau, sign = orbit_normal_form(g, rep)
            assert canonicalize(relabel(rep, tau)) == SignedIso(g, sign)
    other = next(h for h in graphs if orbit_of(h) != orbit_of(graphs[0]))
    with pytest.raises(MalformedGraphError):
        orbit_normal_form(graphs[0], other)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_signed_stabilizer_matches_group_scan(n):
    perms = list(itertools.permutations(range(n)))
    for p in (n, n + 1, n + 2):
        for rep in {orbit_representative(orbit_of(g)) for g in _basis_graphs(n, p)}:
            scan = {}
            for sigma in perms:
                target, sign = canonicalize(relabel(rep, sigma))
                if target == rep:
                    scan[sigma] = sign
            assert dict(signed_stabilizer(rep)) == scan



# ---------------------------------------------------------------------------
# integer keys: the batched canonical form


def _key(g, base):
    # digits a+1, b+1, then each path's labels +1 and a 0 terminator
    digits = [g.branch_a + 1, g.branch_b + 1]
    for p in g.paths:
        digits += [l + 1 for l in p] + [0]
    key = 0
    for d in digits:
        key = key * base + d
    return key


def _label_rows(graphs):
    """Label rows [a, b, interior path-major] grouped by slot shape."""
    groups = {}
    for g in graphs:
        shape = (g.branch_a != UNMARKED, g.branch_b != UNMARKED, tuple(map(len, g.paths)))
        groups.setdefault(shape, []).append(g)
    for shape, gs in groups.items():
        rows = np.array([[g.branch_a, g.branch_b, *itertools.chain(*g.paths)] for g in gs])
        yield shape, gs, rows.reshape(len(gs), -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_keys_match_canonicalize_exhaustive(n):
    # every labelled graph, canonical or not; keys need every path nonempty
    for shape, graphs, rows in _label_rows(_all_labelled(n)):
        if not all(shape[2]):
            with pytest.raises(ValueError, match="empty path"):
                canonical_keys(rows, shape, n + 1)
            continue
        keys, signs, odd = canonical_keys(rows, shape, n + 1)
        for g, key, sign, o in zip(graphs, keys.tolist(), signs.tolist(), odd.tolist()):
            target, want = canonicalize(g)
            assert (key, sign, o) == (_key(target, n + 1), want, has_odd_automorphism(g)), g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_keys_order_graphs_of_one_degree(n):
    for e in (n + 1, n + 2, n + 3):
        keys = [_key(g, n + 1) for g in enumerate_theta(n, e)]
        assert all(x < y for x, y in zip(keys, keys[1:]))
