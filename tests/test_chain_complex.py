import sys
import threading
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from delta2n import chain_complex as cc
from delta2n import InternalConsistencyError, clear_caches
from delta2n import d25_analysis, equivariant_homology, linalg, symmetric_group, theta_graphs
from delta2n.linalg import SparseIntMatrix, kernel_exact, rank_exact
from delta2n.theta_graphs import enumerate_theta, has_odd_automorphism, is_full_theta, orbit_of

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


@pytest.mark.parametrize("n", range(1, 8))
def test_labelings_are_every_ordering_in_lexicographic_order(n):
    want = np.array(list(permutations(range(n))), dtype=np.int8).reshape(-1, n)
    got = cc._labelings(n)
    assert got.dtype == np.int8 and np.array_equal(got, want)


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
        assert type(v) is int
        assert abs(v) <= 8


def test_rank_examples():
    assert rank_exact(SparseIntMatrix(3, 3)) == 0
    eye = SparseIntMatrix.from_terms(4, 4, range(4), range(4), [1] * 4)
    assert rank_exact(eye) == 4
    assert rank_exact(cc.boundary_matrix(4, 6)) == 3


def test_kernel_basis_examples():
    eye = SparseIntMatrix.from_terms(3, 3, range(3), range(3), [1] * 3)
    assert kernel_exact(eye)[1].shape == (3, 0)
    row = SparseIntMatrix.from_terms(1, 2, [0, 0], [0, 1], [1, 1])
    k = kernel_exact(row)[1]
    assert k.shape == (2, 1)
    assert k[0, 0] * 1 + k[1, 0] * 1 == 0 and k.any()


def test_kernel_of_d7_n5():
    d7 = cc.boundary_matrix(5, 7)
    k = kernel_exact(d7)[1]
    assert k.shape == (60, 15)
    assert not d7.to_int64().astype(object).dot(k).any()


def test_build_complex_structure():
    cx = cc.build_complex(4)
    assert cx.dims == {4: 0, 5: 4, 6: 6}
    assert cx.d(6).shape == (4, 6)
    assert cx.d(5).shape == (0, 4)


@pytest.mark.parametrize("n,want", [(4, (3, 1)), (5, (15, 5))])
def test_betti_small(n, want):
    assert cc.betti(n) == want


def test_betti_6():
    assert cc.betti(6) == (86, 26)


def test_betti_range():
    # the library has no range of its own: below n = 4 every chain group is
    # zero, and so is every block (n = 9 works too but takes about 28 s, so
    # it is not pinned here); the CLI keeps 4..8
    assert cc.betti(2) == cc.betti(3) == (0, 0)


def test_disk_cache_roundtrip(tmp_path):
    fresh = cc._build_matrix(4, 6)
    clear_caches()
    first = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    files = list(tmp_path.glob("boundary_n4_p6_*.npy"))
    assert len(files) == 1
    clear_caches()
    again = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    assert again == first == fresh


def test_cache_file_format(tmp_path):
    # one array of shape (3, nnz + 1), int16 at this size: a header column
    # (rows, cols, 0), then the rows, cols and values of the entries, row-major
    clear_caches()
    mat = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.npy")
    stored = np.load(path, allow_pickle=False)
    assert stored.dtype == np.int16 and stored.shape == (3, mat.nnz + 1)
    assert stored[:, 0].tolist() == [4, 6, 0]
    assert np.array_equal(stored[:, 1:], mat.coords)
    assert [((r, c), v) for r, c, v in stored[:, 1:].T.tolist()] == mat.entries()


def test_stale_cache_rebuilt(tmp_path):
    # a file of another shape under the right name is ignored, not trusted,
    # even when its entries would fit inside the expected shape
    path = cc._cache_path(tmp_path, 4, 6)
    path.parent.mkdir(parents=True, exist_ok=True)
    smaller = SparseIntMatrix.from_terms(2, 2, [0], [0], [5])
    stale = [np.array([[0], [0], [5]]), _with_header(smaller), _with_header(cc._build_matrix(5, 7))]
    for stored in stale:
        np.save(path, stored)
        assert cc._read_cached(path, (4, 6)) is None
        clear_caches()
        mat = cc.boundary_matrix(4, 6, cache_dir=tmp_path)
        assert mat.shape == (4, 6) and mat == cc._build_matrix(4, 6)
        assert cc._read_cached(path, (4, 6)) == mat


def _with_header(mat):
    """mat as the cache stores it: a (rows, cols, 0) column, then coords."""
    return np.hstack([np.array([[mat.rows], [mat.cols], [0]]), mat.coords])


def test_old_text_cache_files_are_ignored(tmp_path):
    # the `r c v` text files of earlier versions are neither read nor removed
    old = tmp_path / cc._cache_path(tmp_path, 4, 6).with_suffix(".txt").name
    old.write_text("4 6 1\n0 0 5\n")
    clear_caches()
    assert cc.boundary_matrix(4, 6, cache_dir=tmp_path) == cc._build_matrix(4, 6)
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".npy", ".txt"]
    assert old.read_text() == "4 6 1\n0 0 5\n"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_betti_matches_global_rank_oracle(n):
    # the global certified route: exact rank of d_{n+2}, exact kernel of
    # d_{n+2}, and d_{n+1} onto
    cx = cc.build_complex(n)
    d_top, d_next = cx.d(n + 2), cx.d(n + 1)
    rank_top = rank_exact(d_top)
    nullity = kernel_exact(d_top)[1].shape[1]
    assert nullity == d_top.cols - rank_top
    assert rank_exact(d_next) == d_next.rows
    assert cc.betti(n) == (nullity, d_next.cols - d_next.rows - rank_top)


def _per_graph_boundary(n, p):
    """d_p one graph at a time through boundary_terms, as columns of
    {row: coefficient}; every target must be a basis graph."""
    row_of = {g: i for i, g in enumerate(cc.build_basis(n, p - 1).graphs)}
    columns = []
    for g in cc.build_basis(n, p).graphs:
        col = {}
        for target, coef in theta_graphs.boundary_terms(g):
            col[row_of[target]] = col.get(row_of[target], 0) + coef
        columns.append({r: v for r, v in col.items() if v})
    return columns


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_batched_boundary_matches_per_graph_terms(n):
    # n <= 3 has empty bases and n = 4 an empty d_5: no shape, no term
    for p in (n + 1, n + 2):
        mat = cc._build_matrix(n, p)
        assert mat.shape == (cc.build_basis(n, p - 1).dim, cc.build_basis(n, p).dim)
        columns = [{} for _ in range(mat.cols)]
        for (r, c), v in mat.entries():
            columns[c][r] = v
        for col, (got, want) in enumerate(zip(columns, _per_graph_boundary(n, p))):
            assert got == want, (n, p, col)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_orbit_stabilizer_dimension_matches_enumeration(n):
    for p in (n, n + 1, n + 2):
        assert theta_graphs.chain_dim(n, p) == cc.build_basis(n, p).dim


def test_build_complex_checks_the_orbit_stabilizer_dimension(monkeypatch):
    # dropping one of the two degree-7 orbits halves dim C_7 by orbit-stabilizer
    real = theta_graphs.chain_orbits
    monkeypatch.setattr(
        theta_graphs, "chain_orbits", lambda n, p: real(n, p)[: 1 if p == 7 else None]
    )
    clear_caches()
    try:
        with pytest.raises(InternalConsistencyError, match="dim C_7 = 60, orbit-stabilizer 30"):
            cc.build_complex(5)
    finally:
        monkeypatch.undo()
        clear_caches()


def test_build_complex_checks_the_enumerated_shapes(monkeypatch):
    # an enumerator that misses one slot shape gives too small a basis
    real = cc._slot_shapes
    monkeypatch.setattr(cc, "_slot_shapes", lambda n, p: real(n, p)[:-1] if p == 7 else real(n, p))
    clear_caches()
    try:
        with pytest.raises(InternalConsistencyError, match="dim C_7 = 45, orbit-stabilizer 60"):
            cc.build_complex(5)
    finally:
        monkeypatch.undo()
        clear_caches()


@pytest.mark.parametrize("n", [5, 6])
def test_build_complex_under_tiny_product_chunks(n, monkeypatch):
    # the d^2 product summed two terms at a time: same matrices, same check
    want = cc.build_complex(n)
    monkeypatch.setattr(linalg, "_PRODUCT_CHUNK", 2)
    clear_caches()
    try:
        got = cc.build_complex(n)
    finally:
        clear_caches()
    assert got.matrices == want.matrices


def test_build_complex_memory_tracks_its_output():
    # the n = 7 boundaries keep about 1 MB.  Summing the d^2 product a chunk
    # at a time and the boundary terms in narrow types holds the traced peak
    # near 2.3 MB; forming every term at once in int64 took 4.5 MB.
    clear_caches()
    for p in (7, 8, 9):
        cc.basis_arrays(7, p)
        theta_graphs.chain_dim(7, p)
    tracemalloc.start()
    try:
        cc.build_complex(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_caches()
    assert peak < 3_000_000


def test_build_complex_checks_d_squared(monkeypatch):
    # one entry of d_7 with its sign flipped breaks d_6 . d_7 = 0, whether
    # the product sums its terms in one chunk or two at a time
    real = cc._build_matrix

    def flipped(n, p):
        mat = real(n, p)
        if p != n + 2:
            return mat
        coords = mat.coords.copy()
        coords[2, 0] *= -1
        return SparseIntMatrix.from_coords(*mat.shape, coords)

    for chunk in (linalg._PRODUCT_CHUNK, 2):
        monkeypatch.setattr(linalg, "_PRODUCT_CHUNK", chunk)
        monkeypatch.setattr(cc, "_build_matrix", flipped)
        clear_caches()
        try:
            with pytest.raises(InternalConsistencyError, match=r"d_6 \. d_7 != 0 at n=5"):
                cc.build_complex(5)
        finally:
            monkeypatch.undo()
            clear_caches()


def _reference_key(g, base):
    """g's key written out digit by digit: a+1, b+1, then each path's
    labels +1 and a 0."""
    digits = [g.branch_a + 1, g.branch_b + 1]
    for path in g.paths:
        digits += [label + 1 for label in path] + [0]
    return sum(d * base**i for i, d in enumerate(reversed(digits)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_array_enumerator_matches_the_reference(n):
    # the per-graph enumerator, odd automorphisms dropped, gives the same
    # graphs in the same order, and their keys are the basis keys
    for p in (n, n + 1, n + 2):
        want = [g for g in enumerate_theta(n, p + 1, full_only=True) if not has_odd_automorphism(g)]
        assert list(cc.build_basis(n, p).graphs) == want
        assert cc.basis_arrays(n, p).keys.tolist() == [_reference_key(g, n + 1) for g in want]
        if n <= 3:
            assert want == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_array_enumerator_counts_the_odd_graphs_it_drops(n):
    # the canonical full-theta graphs of each degree are the basis plus the
    # ones with an odd automorphism, which basis_arrays counts
    for p in (n, n + 1, n + 2):
        every = enumerate_theta(n, p + 1, full_only=True)
        odd = sum(1 for g in every if has_odd_automorphism(g))
        basis = cc.basis_arrays(n, p)
        assert (basis.odd, basis.dim + basis.odd) == (odd, len(every))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_chain_orbits_cover_the_basis(n):
    for p in (n, n + 1, n + 2):
        reps = theta_graphs.chain_orbits(n, p)
        orbits = [orbit_of(r) for r in reps]
        assert orbits == sorted(set(orbits))
        assert set(reps) <= set(cc.build_basis(n, p).graphs)
        assert set(orbits) == {orbit_of(g) for g in cc.build_basis(n, p).graphs}


def test_clear_caches_empties_every_memo():
    cc.betti(4)
    cc.build_complex(4)
    cc.build_basis(4, 6)
    equivariant_homology.chain_character(4, 6)
    equivariant_homology.act((1, 0, 2, 3), 6)
    d25_analysis._kernel()
    d25_analysis._act_tables((1, 0, 2, 3, 4))
    owners = [
        cc.symmetry_table,
        cc.build_basis,
        theta_graphs.chain_orbits,
        cc._boundary_matrix,
        cc.basis_arrays,
        theta_graphs.chain_dim,
        equivariant_homology.chain_character,
        equivariant_homology._block_plan,
        equivariant_homology.isotypic_ranks,
        d25_analysis._kernel,
        d25_analysis._act_tables,
        symmetric_group.specht_matrices,
        symmetric_group.character_table,
    ]
    assert all(f.cache_info().currsize > 0 for f in owners)
    clear_caches()
    modules = [mod for name, mod in sys.modules.items() if name.startswith("delta2n.")]
    caches = [obj for mod in modules for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert {id(f) for f in owners} <= {id(c) for c in caches}
    assert all(c.cache_info().currsize == 0 for c in caches)


def _save(path, coords, allow_pickle=False):
    with open(path, "wb") as fh:
        np.save(fh, coords, allow_pickle=allow_pickle)


def _edited(path, edit):
    """Rewrite the file's array after edit(coords) changed it in place."""
    coords = np.load(path, allow_pickle=False)
    edit(coords)
    _save(path, coords)


# column 0 of a stored array is the header (rows, cols, 0); entries follow


def _col_out_of_range(coords):
    coords[1, 1] = 60


def _repeat_first_cell(coords):
    coords[:, 2] = coords[:, 1]


def _zero_value(coords):
    coords[2, 1] = 0


def _other_rows(coords):
    coords[0, 0] = 61


def _nonzero_tag(coords):
    coords[2, 0] = 1


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.write_bytes(path.read_bytes()[:-8]),
        lambda path: path.write_bytes(path.read_bytes()[:60]),
        lambda path: path.write_bytes(b""),
        lambda path: _save(path, np.load(path).astype(np.float64)),
        lambda path: _save(path, np.load(path).astype(np.int32)),
        lambda path: _save(path, np.load(path).ravel()),
        lambda path: _save(path, np.load(path)[:2]),
        lambda path: _edited(path, _col_out_of_range),
        lambda path: _edited(path, _repeat_first_cell),
        lambda path: _edited(path, _zero_value),
        lambda path: _save(path, np.load(path).astype(object), allow_pickle=True),
        lambda path: path.write_text("60 60 1\n0 0 1\n"),
        lambda path: _save(path, np.load(path)[:, 1:]),
        lambda path: _edited(path, _other_rows),
        lambda path: _edited(path, _nonzero_tag),
    ],
    ids=[
        "truncated",
        "truncated-header",
        "empty",
        "float-values",
        "int32-values",
        "wrong-rank",
        "wrong-shape",
        "out-of-range",
        "repeated-cell",
        "zero-value",
        "object-array",
        "text-file",
        "no-header",
        "header-shape",
        "header-tag",
    ],
)
def test_unreadable_cache_rebuilt(tmp_path, damage):
    fresh = cc._build_matrix(5, 7)
    clear_caches()
    cc.boundary_matrix(5, 7, cache_dir=tmp_path)
    (path,) = tmp_path.glob("boundary_n5_p7_*.npy")
    damage(path)
    assert cc._read_cached(path, fresh.shape) is None
    clear_caches()
    assert cc.boundary_matrix(5, 7, cache_dir=tmp_path) == fresh
    # the bad file was overwritten by a good one, and no temporary file is left
    assert list(tmp_path.iterdir()) == [path]
    assert cc._read_cached(path, fresh.shape) == fresh


@pytest.mark.parametrize(
    "module", [cc.theta_graphs, cc.linalg, cc], ids=lambda m: m.__name__.rpartition(".")[2]
)
def test_cache_key_covers_each_source_file(tmp_path, monkeypatch, module):
    # an edit to any module that builds, writes or reads a cached matrix
    # renames the cache file
    before = cc._cache_path(tmp_path, 4, 6)
    copy = tmp_path / Path(module.__file__).name
    copy.write_text(Path(module.__file__).read_text() + "\n# changed\n")
    monkeypatch.setattr(module, "__file__", str(copy))
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
            if cc._read_cached(path, mat.shape) != mat:
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
