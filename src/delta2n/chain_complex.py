"""The three-term relative cellular chain complex as labeled integer arrays.

Chain degree p is spanned by the canonical full-theta graphs with p+1 edges
that have no odd automorphism; the boundary sends a graph to the alternating
sum of its edge contractions, with degenerate and non-full targets dropping
out.  Defines the integer key of a label row, and from it the labeled bases
and the global boundary matrices (for ``complex``, ``enumerate``, the exact
oracles and ``analyze-d25``) with their disk cache.  Also supplies Betti
numbers, from the exact per-irreducible boundary ranks of
``equivariant_homology``.  The same complex by S_n-orbits, which the block
method reads, is in ``theta_graphs``.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import InternalConsistencyError, linalg, theta_graphs
from .linalg import SparseIntMatrix
from .theta_graphs import (
    _PATH_PERMS,
    SYMMETRIES,
    UNMARKED,
    ThetaGraph,
    _parities,
    _slot_shapes,
    chain_dim,
)


# Integer keys, for whole arrays of graphs at once.  A graph on the labels
# 0..n-1 is held as a label row [a, b, interior labels path-major] (-1 when a
# branch is unmarked) under its slot shape (theta_graphs._slots), and encoded
# as one base-(n+1) integer with the digits a+1, b+1, then each path's labels
# +1 followed by a 0 terminator.  The graphs of one degree p have p+3 digits,
# so their keys compare as the graphs do.


@cache
def symmetry_table(shape, base: int):
    """Digit weights and edge parities of the 12 symmetry images of a graph
    with these slots, in SYMMETRIES order: the key of image s of a label row
    x is (x + 1) @ weights[s], and its sign is parity[s].  Every path must be
    nonempty (ValueError otherwise)."""
    _, _, lens = shape
    if not all(lens):
        raise ValueError(f"slot shape {shape} has an empty path")
    width = 2 + sum(lens)
    digits = width + 3
    if base ** digits > 2**63:
        raise OverflowError(f"keys of {digits} base-{base} digits overflow int64")
    off = (2, 2 + lens[0], 2 + lens[0] + lens[1])
    powers = [base ** (digits - 1 - pos) for pos in range(digits)]
    rows = []
    for flip, perm in SYMMETRIES:
        cols = [1, 0] if flip else [0, 1]
        for q in perm:
            path = range(off[q], off[q] + lens[q])
            cols.extend(reversed(path) if flip else path)
            cols.append(None)  # the terminator digit is 0
        row = [0] * width
        for col, power in zip(cols, powers):
            if col is not None:
                row[col] = power
        rows.append(row)
    weights = np.array(rows, dtype=np.int64)
    parity = np.array(_parities(lens), dtype=np.int64)
    weights.setflags(write=False)  # cached and shared
    parity.setflags(write=False)
    return weights, parity


def _order_code(x0, x1, x2):
    return 4 * (x0 > x1) + 2 * (x0 > x2) + (x1 > x2)


# _PATH_PERMS index of the path permutation that sorts three distinct values,
# looked up by their _order_code (two of the eight codes cannot occur)
_SORTING_PERM = np.zeros(8, dtype=np.intp)
_SORTING_PERM[[_order_code(*np.argsort(perm)) for perm in _PATH_PERMS]] = range(len(_PATH_PERMS))


def canonical_keys(rows: np.ndarray, shape, base: int):
    """Canonical keys of the graphs given as label rows of one slot shape
    (every path nonempty), with each one's sign, as
    ``theta_graphs.canonicalize`` gives them, and whether it has an odd
    automorphism: (keys, signs, odd).

    Within one flip the least image lists the paths by their first label
    (their last label when flipped), which are distinct, so only those two
    images are keyed.  The key is the lesser, the unflipped one on a tie, and
    a tie with different parities is an odd automorphism.
    """
    weights, parity = symmetry_table(shape, base)
    lens = shape[2]
    first = np.cumsum((2, *lens[:2]))
    digits = rows.astype(np.int64) + 1  # one cast, shared by both images
    keys = []
    for flip, ends in ((0, first), (1, first + lens - 1)):
        s = flip * len(_PATH_PERMS) + _SORTING_PERM[_order_code(*(digits[:, c] for c in ends))]
        keys.append((np.einsum("ij,ij->i", digits, weights[s]), parity[s]))
    (key0, par0), (key1, par1) = keys
    flipped = key1 < key0
    return (
        np.where(flipped, key1, key0),
        np.where(flipped, par1, par0),
        (key0 == key1) & (par0 != par1),
    )


class ChainBasis(NamedTuple):
    n: int
    degree: int
    graphs: tuple

    @property
    def dim(self):
        return len(self.graphs)


@cache
def build_basis(n: int, p: int) -> ChainBasis:
    """Canonical full-theta graphs of chain degree p (= p+1 edges), odd
    automorphisms excluded, in sorted canonical order: the rows of
    ``basis_arrays`` decoded, for callers that want graph objects."""
    arrays = basis_arrays(n, p)
    graphs = [None] * arrays.dim
    for (_, _, (l0, l1, _)), index, rows in arrays.blocks:
        c1, c2 = 2 + l0, 2 + l0 + l1
        for i, row in zip(index.tolist(), rows.tolist()):
            paths = tuple(row[2:c1]), tuple(row[c1:c2]), tuple(row[c2:])
            graphs[i] = ThetaGraph(row[0], row[1], paths)
    return ChainBasis(n, p, tuple(graphs))


class ShapeBlock(NamedTuple):
    """The basis graphs of one slot shape: their positions and label rows."""

    shape: tuple
    index: np.ndarray
    rows: np.ndarray


class BasisArrays(NamedTuple):
    """A chain basis as integer arrays: the canonical key of each graph, in
    basis order, and its graphs grouped by slot shape; ``odd`` counts the
    canonical full-theta graphs of the degree left out for an odd
    automorphism."""

    keys: np.ndarray
    blocks: tuple
    odd: int

    @property
    def dim(self):
        return sum(len(block.index) for block in self.blocks)

    def locate(self, keys):
        """(position, found) of each key in the basis."""
        pos = np.searchsorted(self.keys, keys)
        found = pos < len(self.keys)
        found[found] = self.keys[pos[found]] == keys[found]
        return pos, found


@cache
def _labelings(n: int) -> np.ndarray:
    """Every ordering of the labels 0..n-1, one row each, in lexicographic
    order: label f first, then the orderings of the n-1 others, which are
    those of 0..n-2 with every label from f up moved up by one."""
    if n <= 1:
        return np.zeros((1, n), dtype=np.int8)
    rest = _labelings(n - 1)
    out = np.empty((n, len(rest), n), dtype=np.int8)
    for f in range(n):
        out[f, :, 0] = f
        np.add(rest, rest >= f, out=out[f, :, 1:])
    return out.reshape(-1, n)


def _shape_rows(n: int, shape):
    """The label rows of one slot shape that are canonical and have no odd
    automorphism, sorted, with their keys, and the number of canonical rows
    dropped for an odd automorphism.  A labeling fills the marked branches,
    then the paths; only paths sorted by first label (and a < b when both
    branches are marked) can be canonical, and of those a row is canonical
    when its own key is the least of its 12 images'."""
    ma, mb, (l0, l1, _) = shape
    marks = ma + mb
    perms = _labelings(n)
    first = perms[:, marks], perms[:, marks + l0], perms[:, marks + l0 + l1]
    keep = (first[0] < first[1]) & (first[1] < first[2])
    if ma:
        keep &= perms[:, 0] < perms[:, 1]
    perms = perms[keep]
    rows = np.hstack([np.full((len(perms), 2 - marks), UNMARKED, dtype=np.int8), perms])
    weights, _ = symmetry_table(shape, n + 1)
    keys, _, odd = canonical_keys(rows, shape, n + 1)
    canonical = keys == (rows + 1) @ weights[0]
    keep = canonical & ~odd
    order = np.argsort(keys[keep])
    return rows[keep][order], keys[keep][order], int(np.count_nonzero(canonical & odd))


@cache
def basis_arrays(n: int, p: int) -> BasisArrays:
    """The degree-p basis as label rows (see ``canonical_keys``),
    enumerated one slot shape at a time.  It must have as many graphs as
    orbit-stabilizer says (``chain_dim``), and its keys, merged and sorted,
    must be strictly increasing, as distinct graphs have distinct keys."""
    if n < 2:
        raise ValueError(f"n={n} is out of range")
    found = [(shape, *_shape_rows(n, shape)) for shape in _slot_shapes(n, p)]
    odd = sum(dropped for *_, dropped in found)
    found = [(shape, rows, keys) for shape, rows, keys, _ in found if len(rows)]
    keys = np.concatenate([keys for _, _, keys in found]) if found else np.empty(0, np.int64)
    if len(keys) != chain_dim(n, p):
        raise InternalConsistencyError(
            f"enumeration gives dim C_{p} = {len(keys)}, orbit-stabilizer "
            f"{chain_dim(n, p)} at n={n}"
        )
    order = np.argsort(keys)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    keys = keys[order]
    if np.any(keys[1:] <= keys[:-1]):
        raise InternalConsistencyError(f"basis keys of C_{p} are not increasing at n={n}")
    blocks, start = [], 0
    for shape, rows, _ in found:
        index = position[start : start + len(rows)]
        start += len(rows)
        index.setflags(write=False)  # cached and shared: no caller may write to them
        rows.setflags(write=False)
        blocks.append(ShapeBlock(shape, index, rows))
    keys.setflags(write=False)
    return BasisArrays(keys, tuple(blocks), odd)


def _contractions(shape):
    """The contractions of an edge of a graph with these slots that leave a
    full theta graph with injective marking, as (target shape, column gather,
    edge sign) triples.  Only a path-end edge with an unmarked branch on its
    side qualifies, on a path of length at least 2; contracting edge i of
    path t moves that end label into the branch slot, with sign (-1)^i."""
    ma, mb, lens = shape
    inner = range(2, 2 + sum(lens))
    start, col = 0, 2  # first edge and first label column of path t
    for t, m in enumerate(lens):
        if m >= 2:
            shorter = lens[:t] + (m - 1,) + lens[t + 1 :]
            end = col + m - 1
            if not ma:
                gather = [col, 1, *(c for c in inner if c != col)]
                yield (True, mb, shorter), gather, (-1) ** start
            if not mb:
                gather = [0, end, *(c for c in inner if c != end)]
                yield (ma, True, shorter), gather, (-1) ** (start + m)
        start += m + 1
        col += m


def _build_matrix(n: int, p: int) -> SparseIntMatrix:
    """d_p from whole label arrays: each contraction of each column shape is
    one column gather, canonicalized by integer keys and looked up in the
    row basis.  A target missing from the row basis must have an odd
    automorphism, and one found there must not.  The terms are kept in the
    narrowest types that hold them (positions unsigned, signs int8) until
    they are summed."""
    cols, rows = basis_arrays(n, p), basis_arrays(n, p - 1)
    position = np.min_scalar_type(max(rows.dim, cols.dim))
    found_rows, found_cols, coefs = [], [], []
    for shape, index, labels in cols.blocks:
        for target, gather, edge_sign in _contractions(shape):
            keys, signs, odd = canonical_keys(labels[:, gather], target, n + 1)
            pos, found = rows.locate(keys)
            bad = np.flatnonzero(found == odd)
            if bad.size:
                what = "hit a graph with an odd automorphism" if found[bad[0]] else "left the basis"
                raise InternalConsistencyError(
                    f"contraction {what} at n={n}, p={p}, column {index[bad[0]]}"
                )
            found_rows.append(pos[found].astype(position))
            found_cols.append(index[found].astype(position))
            coefs.append((edge_sign * signs[found]).astype(np.int8))
    if not coefs:
        return SparseIntMatrix(rows.dim, cols.dim)
    terms = [np.concatenate(parts) for parts in (found_rows, found_cols, coefs)]
    del found_rows, found_cols, coefs
    return SparseIntMatrix.from_terms(rows.dim, cols.dim, *terms)


@cache
def _code_version() -> str:
    """CRC-32 of the modules that build, write and read a cached matrix.  It
    only names a file stale after a code change; every read still checks
    the shape header and rejects a malformed file.  zlib, which numpy loads
    anyway, not hashlib, which would map OpenSSL's libcrypto into the run."""
    crc = 0
    for path in (theta_graphs.__file__, linalg.__file__, __file__):
        crc = zlib.crc32(Path(path).read_bytes(), crc)
    return f"{crc:08x}"


def _cache_path(cache_dir, n, p):
    return Path(cache_dir) / f"boundary_n{n}_p{p}_{_code_version()}.npy"


def boundary_matrix(n: int, p: int, cache_dir=None) -> SparseIntMatrix:
    """Matrix of d_p : C_p -> C_{p-1}; columns follow the degree-p basis.

    With ``cache_dir`` the matrix is read from, or written to, a file there:
    one array in numpy's ``.npy`` format, a header column (rows, cols, 0)
    followed by the matrix's ``coords``, in their dtype (int16 up to n = 7,
    int32 at n = 8 and 9).  A missing, stale, foreign or damaged file is
    built and written afresh.  Either way it is built at most once per
    (n, p, cache_dir) per process.
    """
    # one positional key per matrix: the cache tells f(n, p) from f(n, p, None)
    return _boundary_matrix(n, p, os.fspath(cache_dir) if cache_dir else None)


def _read_cached(path, shape):
    """The matrix stored at path, or None when it is missing, malformed, or
    stored with another shape or another dtype than ``coords`` would have
    (a stale or foreign file, such as an int64 file of earlier versions)."""
    rows, cols = shape
    try:
        with open(path, "rb") as fh:
            stored = np.load(fh, allow_pickle=False)
        if stored.ndim != 2 or stored[:, :1].tolist() != [[rows], [cols], [0]]:
            return None
        return SparseIntMatrix.from_coords(rows, cols, stored[:, 1:])
    except (FileNotFoundError, EOFError, ValueError):
        return None


def _write_cached(path, mat) -> None:
    # a private temporary file per writer, so concurrent writers never
    # truncate each other's file or move a half-written one into place
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # the bytes np.save gives the header column and coords side by
            # side, written a row at a time instead of from a joined copy
            fmt = np.lib.format
            header = {"descr": fmt.dtype_to_descr(mat.coords.dtype), "fortran_order": False,
                      "shape": (3, mat.nnz + 1)}
            fmt.write_array_header_1_0(fh, header)
            for head, row in zip((mat.rows, mat.cols, 0), mat.coords):
                fh.write(mat.coords.dtype.type(head).tobytes())
                fh.write(np.ascontiguousarray(row).data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@cache
def _boundary_matrix(n, p, cache_dir):
    path = _cache_path(cache_dir, n, p) if cache_dir else None
    mat = None
    if path is not None:
        # the shape by orbit-stabilizer, so a warm read enumerates no basis
        mat = _read_cached(path, (chain_dim(n, p - 1), chain_dim(n, p)))
    if mat is None:
        mat = _build_matrix(n, p)
        if path is not None:
            _write_cached(path, mat)
    return mat


class RelativeComplex(NamedTuple):
    n: int
    dims: dict
    matrices: dict

    def d(self, p):
        return self.matrices[p]


def build_complex(n: int, cache_dir=None) -> RelativeComplex:
    """dim C_p for degrees n..n+2 by orbit-stabilizer plus d_{n+1}, d_{n+2},
    with d.d = 0 checked.  A boundary read from the cache has the shape
    those dims give; one built enumerates its bases, which ``basis_arrays``
    checks against the same dims."""
    dims = {p: chain_dim(n, p) for p in (n, n + 1, n + 2)}
    mats = {p: boundary_matrix(n, p, cache_dir) for p in (n + 1, n + 2)}
    if not mats[n + 1].matmul(mats[n + 2]).is_zero():
        raise InternalConsistencyError(f"d_{n+1} . d_{n+2} != 0 at n={n}")
    return RelativeComplex(n, dims, mats)


def betti(n: int):
    """(dim H_{n+2}, dim H_{n+1}) of the relative complex, for every n: the
    sums over lambda of d_lambda k_lambda and d_lambda k'_lambda, read from the
    exact block ranks of ``isotypic_ranks``, which also certify d_{n+1} onto."""
    # the block ranks live one layer up, which imports this module
    from .equivariant_homology import isotypic_ranks
    from .symmetric_group import hook_dimension

    blocks = isotypic_ranks(n)
    b_top = sum(hook_dimension(lam) * r.top for lam, r in blocks.items())
    b_next = sum(hook_dimension(lam) * r.next for lam, r in blocks.items())
    return b_top, b_next
