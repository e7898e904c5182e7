import os
from fractions import Fraction

import numpy as np
import pytest

from delta2n import d25_analysis
from delta2n.chain_complex import boundary_matrix
from delta2n.d25_analysis import (
    DegenerateVectorError,
    WrongIsotypeError,
    apply_projector,
    equivariant_isomorphism,
    find_isotypic_cycle,
    marked_triple_perms,
    orbit_basis,
    projection_on_kernel,
    representation_on_span,
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
    p = projection_on_kernel((3, 1, 1))
    assert p.shape == (15, 15)
    assert sum(p[i, i] for i in range(15)) == 6
    assert np.array_equal(p.dot(p), p)


def test_projections_resolve_identity():
    total = np.zeros((15, 15), dtype=object)
    for lam in partitions_of(5):
        total = total + projection_on_kernel(lam)
    for i in range(15):
        for j in range(15):
            assert total[i, j] == (1 if i == j else 0)


def test_cycle_is_isotypic_and_closed():
    v = find_isotypic_cycle()
    assert v.any()
    assert not _boundary_object().dot(v).any()
    assert np.array_equal(apply_projector((3, 1, 1), v), v)
    # the structured search yields a +-1 orbit sum over 4 graph orbits
    assert set(int(t) for t in v) <= {-1, 0, 1}
    assert np.array_equal(v, find_isotypic_cycle())


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
        px = apply_projector((3, 1, 1), x)
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
    px = apply_projector((4, 1), x)
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
    for pi, rho in representation_on_span(vb).items():
        gidx, gsgn = d25_analysis._act_tables(pi)
        assert np.array_equal(vb.dot(rho), gsgn[:, None] * vb[gidx])


def test_equivariant_isomorphism():
    vb = orbit_basis(find_isotypic_cycle())
    h0 = equivariant_isomorphism(vb)
    assert h0.shape == (6, 6)
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
