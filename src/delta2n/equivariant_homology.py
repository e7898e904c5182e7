"""S_n-action on chain bases, chain/homology characters, and the
projection-plus-rank algorithm with an independent kernel-trace oracle.

The top homology character comes from kernel multiplicities: for each
irreducible lambda, project seeded random vectors onto the first-coordinate
slice of the lambda-isotypic component (a streamed sum over the whole group),
then count how many independent projected vectors the boundary map kills.
A global dimension identity certifies the multiplicities afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .chain_complex import InternalConsistencyError, betti, boundary_matrix, build_basis
from .kernels import project_stream
from .linalg import PRIMES, kernel_exact, rank_modp
from .symmetric_group import (
    ClassFunction,
    NotACharacterError,
    assemble_character,
    class_representative,
    decompose,
    hook_dimension,
    partitions_of,
    sjt_swaps,
    specht_matrices,
)
from .theta_graphs import MalformedGraphError, _canonicalize_fast, relabel

DEFAULT_SEED = 271828


class ProjectionFailureError(RuntimeError):
    """Seeded vectors failed to span the isotypic slice within the budget."""


class SignedAction(NamedTuple):
    """sigma . e_c = sign[c] * e_[image[c]] on a chain basis."""

    degree: int
    image: np.ndarray
    sign: np.ndarray

    def apply(self, x):
        out = np.zeros_like(x)
        out[self.image] = self.sign * x.T if x.ndim == 1 else self.sign[:, None] * x
        return out

    def gather_tables(self):
        """Row form: (A x)[b] = gsgn[b] * x[gidx[b]], as the kernels expect."""
        dim = self.image.shape[0]
        gidx = np.empty(dim, dtype=np.int64)
        gsgn = np.empty(dim, dtype=np.int64)
        gidx[self.image] = np.arange(dim)
        gsgn[self.image] = self.sign
        return gidx, gsgn

    def matrix(self):
        dim = self.image.shape[0]
        out = np.zeros((dim, dim), dtype=np.int64)
        out[self.image, np.arange(dim)] = self.sign
        return out

    def trace(self):
        fixed = self.image == np.arange(self.image.shape[0])
        return int(self.sign[fixed].sum())


@cache
def _basis_index(n, p):
    return build_basis(n, p).index()


def act(sigma, p) -> SignedAction:
    """Signed action of a permutation (one-line, 0-based) on the degree-p basis."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise MalformedGraphError(f"{sigma!r} is not a permutation of 0..{n - 1}")
    basis = build_basis(n, p)
    index = _basis_index(n, p)
    dim = basis.dim
    image = np.empty(dim, dtype=np.int64)
    sign = np.empty(dim, dtype=np.int64)
    for c, g in enumerate(basis.graphs):
        iso = _canonicalize_fast(relabel(g, sigma))
        image[c] = index[iso.target]
        sign[c] = iso.sign
    return SignedAction(p, image, sign)


@cache
def chain_character(n, p) -> ClassFunction:
    """Trace of the signed action per conjugacy class."""
    values = {}
    for mu in partitions_of(n):
        values[mu] = act(class_representative(mu), p).trace()
    return ClassFunction.from_dict(n, values)


@cache
def chain_multiplicities(n, p) -> dict:
    return decompose(chain_character(n, p))


@cache
def _generator_tables(n, p):
    """Gather tables of all adjacent transpositions, stacked for the stream."""
    dim = build_basis(n, p).dim
    gidx = np.empty((n - 1, dim), dtype=np.int64)
    gsgn = np.empty((n - 1, dim), dtype=np.int64)
    for j in range(n - 1):
        t = list(range(n))
        t[j], t[j + 1] = t[j + 1], t[j]
        gi, gs = act(tuple(t), p).gather_tables()
        gidx[j], gsgn[j] = gi, gs
    return gidx, gsgn


def project_columns(lam, n, p, x, nblocks=None):
    """Apply sum_g r11(g^{-1}) A_g to integer columns x (= (n!/d) p11 x)."""
    rep = specht_matrices(lam)
    swaps = np.array(sjt_swaps(n), dtype=np.int64)
    gidx, gsgn = _generator_tables(n, p)
    rgen = np.stack(rep.generators)
    acc, _ = project_stream(swaps, gidx, gsgn, rgen, x, nblocks=nblocks)
    return acc


def projection_scale(lam, n) -> int:
    return factorial(n) // hook_dimension(lam)


def isotypic_seed_basis(lam, n, p, seed=DEFAULT_SEED, oversample=3):
    """c_lam independent integer columns spanning the image of p11.

    Projects batches of seeded {-9..9} vectors until the projected matrix has
    full isotypic rank; mod-p rank == c_lam certifies exact rank because c_lam
    is also the mathematical upper bound.
    """
    dim = build_basis(n, p).dim
    c = chain_multiplicities(n, p).get(lam, 0)
    if c == 0:
        return np.zeros((dim, 0), dtype=np.int64)
    lam_idx = partitions_of(n).index(lam)
    rng = np.random.default_rng([seed, n, p, lam_idx])
    collected = np.zeros((dim, 0), dtype=np.int64)
    drawn = 0
    while drawn < oversample * c:
        batch = min(c, oversample * c - drawn)
        x = rng.integers(-9, 10, size=(dim, batch)).astype(np.int64)
        drawn += batch
        collected = np.hstack([collected, project_columns(lam, n, p, x)])
        reduced = collected % PRIMES[0]
        rank, pivots = _modp_rank_and_pivots(reduced, PRIMES[0])
        if rank == c:
            chosen = collected[:, pivots[:c]]
            if rank_modp(chosen % PRIMES[1], PRIMES[1]) != c:
                continue  # vanishingly unlikely; draw more vectors
            return chosen
    raise ProjectionFailureError(
        f"isotypic slice for {lam} at (n={n}, p={p}) not spanned "
        f"after {drawn} seed vectors"
    )


def _modp_rank_and_pivots(a, prime):
    from .kernels import rref_modp

    work = np.array(a, dtype=np.int64, order="C")  # rref works in place
    return rref_modp(work, prime)


def kernel_multiplicity(lam, n, seed=DEFAULT_SEED, cache_dir=None) -> int:
    """Multiplicity of S^lam in ker d_{n+2} = c_lam - rank(d . projected)."""
    x = isotypic_seed_basis(lam, n, n + 2, seed)
    c = x.shape[1]
    if c == 0:
        return 0
    d = boundary_matrix(n, n + 2, cache_dir)
    dx = _boundary_times(d, x)
    r = max(rank_modp(dx % PRIMES[0], PRIMES[0]), rank_modp(dx % PRIMES[1], PRIMES[1]))
    return c - r


def _boundary_times(d, x):
    """Exact d @ x for integer columns, int64 when safely bounded."""
    xmax = int(np.abs(x).max()) if x.size else 0
    row_weight = {}
    for (r, _), v in d.entries():
        row_weight[r] = row_weight.get(r, 0) + abs(int(v))
    heaviest = max(row_weight.values(), default=0)
    if heaviest * max(xmax, 1) < 1 << 62:
        out = np.zeros((d.rows, x.shape[1]), dtype=np.int64)
        for (r, c), v in d.entries():
            out[r] += int(v) * x[c]
        return out
    out = np.zeros((d.rows, x.shape[1]), dtype=object)
    for (r, c), v in d.entries():
        out[r] += int(v) * x[c].astype(object)
    return out


def homology_character_top(n, seed=DEFAULT_SEED, cache_dir=None) -> ClassFunction:
    """Character of H_{n+2} = ker d_{n+2} via per-irreducible multiplicities."""
    mults = {}
    for lam in partitions_of(n):
        k = kernel_multiplicity(lam, n, seed, cache_dir)
        if k:
            mults[lam] = k
    total = sum(k * hook_dimension(lam) for lam, k in mults.items())
    nullity = betti(n, cache_dir)[0]
    if total != nullity:
        raise InternalConsistencyError(
            f"kernel multiplicities sum to {total}, but dim ker = {nullity}"
        )
    return assemble_character(n, mults)


def homology_character_next(n, top: ClassFunction) -> ClassFunction:
    """Character of H_{n+1} from the equivariant Euler-characteristic identity.

    ``top`` is the character of H_{n+2} the caller already computed; the
    result is chi(C_{n+1}) - chi(C_n) - chi(C_{n+2}) + top. So ``nxt - top``
    depends on the chain characters alone, and ``check_euler`` on the pair
    cannot see an error in ``top``.
    """
    nxt = chain_character(n, n + 1) - chain_character(n, n) - chain_character(n, n + 2) + top
    try:
        decompose(nxt)
    except NotACharacterError as exc:
        raise InternalConsistencyError(f"H_{n+1} character is not a character: {exc}")
    return nxt


def kernel_character_oracle(n, cache_dir=None) -> ClassFunction:
    """Character of ker d_{n+2} by exact change of basis, no projections.

    For each class representative sigma, solves K X = A_sigma K exactly using
    the echelon structure of the kernel basis K and returns trace(X).
    """
    d = boundary_matrix(n, n + 2, cache_dir)
    _, kern, pivots, free = kernel_exact(d)
    width = kern.shape[1]
    values = {}
    for mu in partitions_of(n):
        sigma = class_representative(mu)
        gidx, gsgn = act(sigma, n + 2).gather_tables()
        ak = gsgn[:, None].astype(object) * kern[gidx]
        x = ak[free]  # kern[free] = identity, so these rows pin X
        check = kern[pivots].dot(x) if len(pivots) else np.zeros((0, width), object)
        if not np.array_equal(check, ak[pivots]):
            raise InternalConsistencyError(
                f"kernel is not invariant under class {mu}: sign/action bug"
            )
        tr = sum((x[i, i] for i in range(width)), Fraction(0))
        if Fraction(tr).denominator != 1:
            raise InternalConsistencyError(f"non-integral kernel trace at {mu}")
        values[mu] = int(tr)
    return ClassFunction.from_dict(n, values)
