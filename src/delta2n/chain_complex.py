"""The three-term relative cellular chain complex on full-theta bases.

Chain degree p is spanned by the canonical full-theta graphs with p+1 edges
that have no odd automorphism; the boundary sends a graph to the alternating
sum of its edge contractions, with degenerate and non-full targets dropping
out.  Supplies the global boundary matrices (for ``complex`` and the exact
oracles), the S_n-orbits of each basis, and Betti numbers from the exact
per-irreducible boundary ranks of ``equivariant_homology``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import linalg, theta_graphs
from .linalg import SparseRationalMatrix, kernel_exact, rank_exact
from .symmetric_group import hook_dimension
from .theta_graphs import (
    Degenerate,
    ThetaGraph,
    contract,
    enumerate_theta,
    has_odd_automorphism,
    is_full_theta,
    orbit_representative,
)

# default of the CLI's --cache; the library does not read it
CACHE_ENV = "DELTA2N_CACHE_DIR"


class InternalConsistencyError(RuntimeError):
    """A structural identity failed: points at an enumeration or sign bug."""


class ChainBasis(NamedTuple):
    n: int
    degree: int
    graphs: tuple

    @property
    def dim(self):
        return len(self.graphs)

    def index(self):
        return {g: i for i, g in enumerate(self.graphs)}


@cache
def build_basis(n: int, p: int) -> ChainBasis:
    """Canonical full-theta graphs of chain degree p (= p+1 edges), odd
    automorphisms excluded, in sorted canonical order."""
    if n < 2:
        raise ValueError(f"n={n} is out of range")
    graphs = tuple(
        g
        for g in enumerate_theta(n, p + 1, full_only=True)
        if not has_odd_automorphism(g)
    )
    return ChainBasis(n, p, graphs)


@cache
def chain_orbits(n: int, p: int) -> tuple:
    """One canonical representative per S_n-orbit of the degree-p basis: n+2-p
    marked branch vertices, p-2 interior labels on three nonempty paths, and
    no odd automorphism (which an orbit has or lacks as a whole)."""
    if n < 2:
        raise ValueError(f"n={n} is out of range")
    marks, interior = n + 2 - p, p - 2
    if marks not in (0, 1, 2):
        return ()
    reps = []
    for a in range(1, interior + 1):
        for b in range(a, (interior - a) // 2 + 1):
            rep = orbit_representative((marks, (a, b, interior - a - b)))
            if not has_odd_automorphism(rep):
                reps.append(rep)
    return tuple(reps)


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


def vanishes(g: ThetaGraph) -> bool:
    """Whether a canonical graph is zero in the relative complex."""
    return not is_full_theta(g) or has_odd_automorphism(g)


def _build_matrix(n: int, p: int) -> SparseRationalMatrix:
    col_basis = build_basis(n, p)
    row_basis = build_basis(n, p - 1)
    row_of = row_basis.index()
    acc: dict = {}
    for col, g in enumerate(col_basis.graphs):
        for target, coef in boundary_terms(g):
            row = row_of.get(target)
            if row is None:
                if vanishes(target):
                    continue
                raise InternalConsistencyError(
                    f"contraction left the basis at n={n}, p={p}, column {col}"
                )
            key = (row, col)
            acc[key] = acc.get(key, 0) + coef
    return SparseRationalMatrix(
        row_basis.dim, col_basis.dim, {key: v for key, v in acc.items() if v}
    )


@cache
def _code_version() -> str:
    """Hash of the modules that build, write and read a cached matrix."""
    h = hashlib.sha256()
    for path in (theta_graphs.__file__, linalg.__file__, __file__):
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:12]


def _cache_path(cache_dir, n, p):
    return Path(cache_dir) / f"boundary_n{n}_p{p}_{_code_version()}.txt"


def boundary_matrix(n: int, p: int, cache_dir=None) -> SparseRationalMatrix:
    """Matrix of d_p : C_p -> C_{p-1}; columns follow the degree-p basis.

    With ``cache_dir`` the matrix is read from, or written to, a file there.
    Either way it is built at most once per (n, p, cache_dir) per process.
    """
    # one positional key per matrix: the cache tells f(n, p) from f(n, p, None)
    return _boundary_matrix(n, p, os.fspath(cache_dir) if cache_dir else None)


def _read_cached(path, shape):
    """The matrix stored at path, or None when it is missing, malformed, or
    of the wrong shape (a stale or foreign file)."""
    try:
        with open(path) as fh:
            mat = SparseRationalMatrix.read(fh)
    except (FileNotFoundError, ValueError):
        return None
    return mat if mat.shape == shape else None


def _write_cached(path, mat) -> None:
    # a private temporary file per writer, so concurrent writers never
    # truncate each other's file or move a half-written one into place
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            mat.write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@cache
def _boundary_matrix(n, p, cache_dir):
    path = _cache_path(cache_dir, n, p) if cache_dir else None
    mat = None
    if path is not None:
        mat = _read_cached(path, (build_basis(n, p - 1).dim, build_basis(n, p).dim))
    if mat is None:
        mat = _build_matrix(n, p)
        if path is not None:
            _write_cached(path, mat)
    return mat


class RelativeComplex(NamedTuple):
    n: int
    bases: dict
    matrices: dict

    def basis(self, p):
        return self.bases[p]

    def d(self, p):
        return self.matrices[p]


def build_complex(n: int, cache_dir=None) -> RelativeComplex:
    """Bases for degrees n..n+2 plus d_{n+1}, d_{n+2}, with d.d = 0 checked."""
    bases = {p: build_basis(n, p) for p in (n, n + 1, n + 2)}
    mats = {p: boundary_matrix(n, p, cache_dir) for p in (n + 1, n + 2)}
    if not mats[n + 1].matmul(mats[n + 2]).is_zero():
        raise InternalConsistencyError(f"d_{n+1} . d_{n+2} != 0 at n={n}")
    return RelativeComplex(n, bases, mats)


def rank(m: SparseRationalMatrix) -> int:
    return rank_exact(m)


def kernel_basis(m: SparseRationalMatrix) -> SparseRationalMatrix:
    """Columns span the exact right kernel of m."""
    _, kern, _, _ = kernel_exact(m)
    rows, cols = kern.shape
    out = SparseRationalMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if kern[r, c]:
                out[r, c] = kern[r, c]
    return out


def betti(n: int):
    """(dim H_{n+2}, dim H_{n+1}) of the relative complex.

    rank d_p = sum over lambda of d_lambda times the exact rank of d_p on the
    lambda block, for every n; the blocks also certify d_{n+1} onto.
    """
    if not 4 <= n <= 8:
        raise ValueError(f"betti supports 4 <= n <= 8, got n={n}")
    # the block ranks live one layer up, which imports this module
    from .equivariant_homology import isotypic_ranks

    blocks = isotypic_ranks(n)
    rank_next, rank_top = (
        sum(hook_dimension(lam) * r.ranks[i] for lam, r in blocks.items()) for i in (0, 1)
    )
    b_top = build_basis(n, n + 2).dim - rank_top
    b_next = build_basis(n, n + 1).dim - rank_next - rank_top
    return b_top, b_next
