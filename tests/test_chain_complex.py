import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from delta2n import chain_complex as cc
from delta2n import clear_caches
from delta2n import d25_analysis, equivariant_homology, symmetric_group
from delta2n.linalg import SparseRationalMatrix, kernel_exact
from delta2n.theta_graphs import has_odd_automorphism, is_full_theta, orbit_of

# (n, degree) -> dimension, all pinned by the brute-force enumeration oracle
# in test_theta_graphs
DIMS = {
    (4, 6): 6, (4, 5): 4, (4, 4): 0,
    (5, 7): 60, (5, 6): 60, (5, 5): 10,
    (6, 8): 600, (6, 7): 720, (6, 6): 180,
}


@pytest.mark.parametrize("n,p,want", [(k[0], k[1], v) for k, v in DIMS.items()])
def test_basis_dimensions(n, p, want):
    assert cc.build_basis(n, p).dim == want


def test_basis_invariants():
    basis = cc.build_basis(5, 7)
    assert list(basis.graphs) == sorted(basis.graphs)
    assert len(set(basis.graphs)) == basis.dim
    for g in basis.graphs:
        assert is_full_theta(g)
        assert not has_odd_automorphism(g)
        assert g.num_edges == 8


def test_basis_n3_empty():
    # single degree-5 orbit carries an odd automorphism
    assert cc.build_basis(3, 5).dim == 0


def test_basis_rejects_bad_n():
    with pytest.raises(ValueError):
        cc.build_basis(1, 4)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_d_squared_is_zero(n):
    d_next = cc.boundary_matrix(n, n + 1)
    d_top = cc.boundary_matrix(n, n + 2)
    assert d_next.matmul(d_top).is_zero()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_d_next_surjective(n):
    from delta2n.linalg import is_surjective

    assert is_surjective(cc.boundary_matrix(n, n + 1))


def test_boundary_entries_are_small_integers():
    d = cc.boundary_matrix(5, 7)
    assert d.shape == (60, 60)
    for _, v in d.entries():
        assert v.denominator == 1
        assert abs(v) <= 8


def test_rank_examples():
    assert cc.rank(SparseRationalMatrix(3, 3)) == 0
    eye = SparseRationalMatrix(4, 4, {(i, i): 1 for i in range(4)})
    assert cc.rank(eye) == 4
    assert cc.rank(cc.boundary_matrix(4, 6)) == 3


def test_kernel_basis_examples():
    eye = SparseRationalMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert cc.kernel_basis(eye).shape == (3, 0)
    row = SparseRationalMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    k = cc.kernel_basis(row)
    assert k.shape == (2, 1)
    assert k[0, 0] * 1 + k[1, 0] * 1 == 0 and not k.is_zero()


def test_kernel_of_d7_n5():
    d7 = cc.boundary_matrix(5, 7)
    k = cc.kernel_basis(d7)
    assert k.shape == (60, 15)
    assert d7.matmul(k).is_zero()


def test_build_complex_structure():
    cx = cc.build_complex(4)
    assert cx.basis(6).dim == 6 and cx.basis(5).dim == 4 and cx.basis(4).dim == 0
    assert cx.d(6).shape == (4, 6)
    assert cx.d(5).shape == (0, 4)


@pytest.mark.parametrize("n,want", [(4, (3, 1)), (5, (15, 5))])
def test_betti_small(n, want):
    assert cc.betti(n) == want


def test_betti_6():
    assert cc.betti(6) == (86, 26)


def test_betti_range():
    with pytest.raises(ValueError):
        cc.betti(3)
    with pytest.raises(ValueError):
        cc.betti(9)


def test_disk_cache_roundtrip(tmp_path):
    fresh = cc._build_matrix(4, 6)
    clear_caches()
    first = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    files = list(tmp_path.glob("boundary_n4_p6_*.txt"))
    assert len(files) == 1
    clear_caches()
    again = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    assert again == first == fresh


def test_cache_file_format(tmp_path):
    clear_caches()
    mat = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.txt")
    lines = path.read_text().splitlines()
    rows, cols, nnz = map(int, lines[0].split())
    assert (rows, cols) == mat.shape and nnz == mat.nnz
    r, c, frac = lines[1].split()
    num, den = frac.split("/")
    assert mat[int(r), int(c)] == Fraction(int(num), int(den))


def test_stale_cache_rebuilt(tmp_path):
    # wrong-shape file under the right name is ignored, not trusted
    path = cc._cache_path(tmp_path, 4, 6)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("2 2 1\n0 0 5/1\n")
    clear_caches()
    mat = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    assert mat.shape == (4, 6)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_betti_matches_global_rank_oracle(n):
    # the global certified route: exact rank of d_{n+2}, exact kernel of
    # d_{n+2}, and d_{n+1} onto
    cx = cc.build_complex(n)
    d_top, d_next = cx.d(n + 2), cx.d(n + 1)
    rank_top = cc.rank(d_top)
    nullity = kernel_exact(d_top)[1].shape[1]
    assert nullity == d_top.cols - rank_top
    assert cc.rank(d_next) == d_next.rows
    assert cc.betti(n) == (nullity, d_next.cols - d_next.rows - rank_top)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_chain_orbits_cover_the_basis(n):
    for p in (n, n + 1, n + 2):
        reps = cc.chain_orbits(n, p)
        orbits = [orbit_of(r) for r in reps]
        assert orbits == sorted(set(orbits))
        assert set(reps) <= set(cc.build_basis(n, p).graphs)
        assert set(orbits) == {orbit_of(g) for g in cc.build_basis(n, p).graphs}


def test_clear_caches_empties_every_memo():
    cc.betti(4)
    cc.build_complex(4)
    equivariant_homology.chain_character(4, 6)
    equivariant_homology.act((1, 0, 2, 3), 6)
    d25_analysis._kernel()
    d25_analysis._act_tables((1, 0, 2, 3, 4))
    owners = [
        cc.build_basis,
        cc.chain_orbits,
        cc._boundary_matrix,
        equivariant_homology._basis_index,
        equivariant_homology.chain_character,
        equivariant_homology.multiplicity_space,
        equivariant_homology.isotypic_ranks,
        d25_analysis._kernel,
        d25_analysis._act_tables,
        symmetric_group.specht_matrices,
    ]
    assert all(f.cache_info().currsize > 0 for f in owners)
    clear_caches()
    modules = (cc, equivariant_homology, d25_analysis, symmetric_group)
    caches = [obj for mod in modules for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert {id(f) for f in owners} <= {id(c) for c in caches}
    assert all(c.cache_info().currsize == 0 for c in caches)


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.write_bytes(path.read_bytes()[:60]),  # truncated
        lambda path: path.write_text("60 60 1\n0 0 1/0\n"),  # zero denominator
    ],
    ids=["truncated", "zero-denominator"],
)
def test_unreadable_cache_rebuilt(tmp_path, damage):
    fresh = cc._build_matrix(5, 7)
    clear_caches()
    cc.boundary_matrix(5, 7, cache_dir=tmp_path)
    (path,) = tmp_path.glob("boundary_n5_p7_*.txt")
    damage(path)
    clear_caches()
    assert cc.boundary_matrix(5, 7, cache_dir=tmp_path) == fresh
    # the bad file was overwritten by a good one, and no temporary file is left
    assert list(tmp_path.iterdir()) == [path]
    with open(path) as fh:
        assert SparseRationalMatrix.read(fh) == fresh


def test_cache_key_covers_linalg(tmp_path, monkeypatch):
    before = cc._cache_path(tmp_path, 4, 6)
    copy = tmp_path / "linalg.py"
    copy.write_text(Path(cc.linalg.__file__).read_text() + "\n# changed\n")
    monkeypatch.setattr(cc.linalg, "__file__", str(copy))
    clear_caches()
    try:
        assert cc._cache_path(tmp_path, 4, 6) != before
    finally:
        monkeypatch.undo()
        clear_caches()
    assert cc._cache_path(tmp_path, 4, 6) == before


def test_concurrent_cache_writers_never_expose_a_partial_file(tmp_path):
    mat = cc._build_matrix(5, 7)
    path = cc._cache_path(tmp_path, 5, 7)
    cc._write_cached(path, mat)
    errors = []
    stop = threading.Event()

    def write():
        try:
            for _ in range(15):
                cc._write_cached(path, mat)
        except Exception as exc:  # recorded; the test fails below
            errors.append(exc)

    def read():
        while not stop.is_set():
            with open(path) as fh:
                if SparseRationalMatrix.read(fh) != mat:
                    errors.append("read a different matrix")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=write) for _ in range(4)]
        reader = threading.Thread(target=read)
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not reader.is_alive() and not any(t.is_alive() for t in writers)
    assert errors == []
    assert list(tmp_path.iterdir()) == [path]
