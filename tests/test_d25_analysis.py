import os
from math import lcm

import numpy as np
import pytest

from delta2n import d25_analysis
from delta2n.chain_complex import boundary_matrix
from delta2n.d25_analysis import (
    DegenerateVectorError,
    WrongIsotypeError,
    equivariant_isomorphism,
    find_isotypic_cycle,
    marked_triple_perms,
    orbit_basis,
    projection_on_kernel,
    representation_on_span,
    scaled_projection,
)
from delta2n.linalg import rank_exact
from delta2n.symmetric_group import partitions_of, specht_matrices

DATA = os.path.join(os.path.dirname(__file__), "data")


def _load_matrix(name):
    return np.loadtxt(os.path.join(DATA, name), dtype=np.int64)


def _boundary_object():
    d = boundary_matrix(5, 7)
    out = np.zeros((d.rows, d.cols), dtype=object)
    for (r, c), v in d.entries():
        out[r, c] = int(v)
    return out


def test_projection_trace_and_idempotence():
    # P = m / s: trace 6 and P^2 = P, in integers
    m, s = projection_on_kernel((3, 1, 1))
    assert m.shape == (15, 15) and m.dtype == np.int64
    assert s == 120 // 6  # L = 1 at n = 5
    assert np.trace(m) == 6 * s
    assert np.array_equal(m @ m, s * m)


def test_projections_resolve_identity():
    # sum_lam m_lam / s_lam = I, over the scales' lcm
    pairs = [projection_on_kernel(lam) for lam in partitions_of(5)]
    scale = lcm(*(s for _, s in pairs))
    total = sum(m * (scale // s) for m, s in pairs)
    assert np.array_equal(total, scale * np.eye(15, dtype=np.int64))


def test_cycle_is_isotypic_and_closed():
    v = find_isotypic_cycle()
    assert v.any()
    assert not _boundary_object().dot(v).any()
    assert v.dtype == np.int64
    assert np.array_equal(scaled_projection((3, 1, 1), v), 20 * v)  # 120 / d_(3,1,1)
    # the structured search yields a +-1 orbit sum over 4 graph orbits
    assert set(int(t) for t in v) <= {-1, 0, 1}
    assert np.array_equal(v, find_isotypic_cycle())


def test_scaled_projection_refuses_entries_beyond_int64():
    # chi_(5) = 1 on all 120 permutations: 120 max|x| is the bound, checked
    # before any sum; at 2**55 it stays below 2**62 and the sum is exact
    with pytest.raises(OverflowError):
        scaled_projection((5,), np.full(60, 1 << 56, dtype=np.int64))
    x = np.zeros(60, dtype=np.int64)
    x[0] = 1 << 55
    got = scaled_projection((5,), x)
    assert got.dtype == np.int64 and got.any()
    assert got.tolist() == [v << 55 for v in scaled_projection((5,), x >> 55).tolist()]


def test_orbit_basis_spans_isotypic_subspace():
    v = find_isotypic_cycle()
    vb = orbit_basis(v)
    assert vb.shape == (60, 6)
    d = _boundary_object()
    for j in range(6):
        assert not d.dot(vb[:, j]).any()


def test_orbit_basis_from_random_isotypic_vectors():
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(10):
        x = rng.integers(-9, 10, size=60).astype(np.int64)
        px = scaled_projection((3, 1, 1), x)
        if not px.any():
            continue
        vb = orbit_basis(px)
        assert vb.shape == (60, 6)
        hits += 1
    assert hits == 10


def test_orbit_basis_rejects_small_isotype():
    # a (4,1)-isotypic vector spans at most 4 dimensions under any orbit
    rng = np.random.default_rng(23)
    x = rng.integers(-9, 10, size=60).astype(np.int64)
    px = scaled_projection((4, 1), x)
    assert px.any()
    with pytest.raises(DegenerateVectorError):
        orbit_basis(px)


def test_rank_deficient_orbit_basis_is_degenerate():
    vb = orbit_basis(find_isotypic_cycle())
    vb[:, 5] = vb[:, 0] + vb[:, 1]
    with pytest.raises(DegenerateVectorError):
        representation_on_span(vb)


def test_span_that_is_not_invariant_is_degenerate():
    vb = orbit_basis(find_isotypic_cycle())
    vb[:, 5] = np.eye(60, dtype=np.int64)[0]
    assert rank_exact(vb) == 6
    with pytest.raises(DegenerateVectorError):
        representation_on_span(vb)


def test_representation_on_span_holds_on_every_row():
    vb = orbit_basis(find_isotypic_cycle())
    for pi, (lx, s) in representation_on_span(vb).items():
        gidx, gsgn = d25_analysis._act_tables(pi)
        assert lx.dtype == np.int64 and s > 0
        assert np.array_equal(vb @ lx, s * gsgn[:, None] * vb[gidx])


def test_representation_on_span_solves_every_action_from_one_kernel(monkeypatch):
    # one inverse of a nonsingular 6 x 6 block of rows serves all 120 actions
    vb = orbit_basis(find_isotypic_cycle())
    calls = []
    real = d25_analysis.kernel_exact
    monkeypatch.setattr(d25_analysis, "kernel_exact", lambda a: calls.append(a.shape) or real(a))
    reps = representation_on_span(vb)
    assert len(reps) == 120
    assert calls == [(6, 12)]
    assert len({s for _, s in reps.values()}) == 1


def test_equivariant_isomorphism():
    vb = orbit_basis(find_isotypic_cycle())
    h0, scale = equivariant_isomorphism(vb)
    assert h0.shape == (6, 6) and h0.dtype == np.int64 and scale > 0
    assert rank_exact(h0) == 6
    mags = {abs(int(t)) for row in h0 for t in row}
    assert len(mags) == 1  # constant-magnitude sign pattern


def test_wrong_isotype_gives_zero_intertwiner():
    vb = orbit_basis(find_isotypic_cycle())
    with pytest.raises(WrongIsotypeError):
        equivariant_isomorphism(vb, specht_matrices((3, 2)))


def test_marked_triple_perms():
    perms = marked_triple_perms()
    assert len(perms) == 6
    assert all(p[3] == 3 and p[4] == 4 for p in perms)


def test_reference_projector_matrix():
    m = _load_matrix("reference_projector_15x15.txt").astype(object)
    assert m.shape == (15, 15)
    assert np.array_equal(m.dot(m), 20 * m)
    assert sum(m[i, i] for i in range(15)) == 120


def test_reference_intertwiner_matrix():
    h = _load_matrix("reference_intertwiner_6x6.txt")
    assert h.shape == (6, 6)
    assert set(np.abs(h).ravel().tolist()) == {20}
    assert rank_exact(h) == 6
