"""Explicit structure of the (3,1,1)-isotypic part of the top homology at
n = 5: an isotypic cycle with a 5-cycle orbit structure, the projection onto
the isotypic subspace in kernel coordinates, an orbit basis under the
permutations of the first three markings, and an explicit equivariant
isomorphism onto the Specht module.

Chain vectors are int64 numpy arrays indexed by the n=5, degree-7 chain
basis (length 60).  A rational matrix comes as the pair (M, s) of an int64
matrix and a positive scale, read as M / s: the form ``kernel_exact`` returns.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial

import numpy as np

from . import InternalConsistencyError
from .chain_complex import basis_arrays, boundary_matrix
from .equivariant_homology import act
from .linalg import (
    _INT64_SAFE,
    _kernel_coordinates,
    _max_abs,
    independent_columns,
    int_matmul,
    kernel_exact,
    rank_exact,
)
from .symmetric_group import (
    character_table,
    cycle_type,
    hook_dimension,
    partitions_of,
    specht_matrices,
)

N = 5
TOP_DEGREE = 7


class DegenerateVectorError(InternalConsistencyError):
    """The marked-point orbit of the vector fails to span the subspace."""


class WrongIsotypeError(InternalConsistencyError):
    """The averaged intertwiner vanished, so the source isotype was wrong."""


@cache
def _kernel():
    """The top kernel K as (L K, L, pivots, free), L the lcm of K's denominators."""
    return kernel_exact(boundary_matrix(N, TOP_DEGREE))[1:]


@cache
def _act_tables(pi):
    return act(pi, TOP_DEGREE)


def scaled_projection(lam, x):
    """S_lam x = sum_pi chi_lam(pi) A_pi x = (120 / d_lam) P_lam x, the
    lam-isotypic projection of an int64 vector or matrix x scaled to stay
    integral, summed in int64.  OverflowError before any sum unless
    sum_pi |chi_lam(pi)| max|x|, a bound on every entry, is below 2**62."""
    parts = partitions_of(N)
    chi = dict(zip(parts, character_table(N)[parts.index(lam)].tolist()))
    terms = [(chi[cycle_type(pi)], pi) for pi in permutations(range(N))]
    x = np.asarray(x, dtype=np.int64)
    bound = sum(abs(c) for c, _ in terms) * _max_abs(x)
    if bound >= _INT64_SAFE:
        raise OverflowError(f"a projection entry may reach {bound}, beyond int64")
    acc = np.zeros(x.shape, dtype=np.int64)
    for c, pi in terms:
        if c:
            gidx, gsgn = _act_tables(pi)
            acc += c * (gsgn if x.ndim == 1 else gsgn[:, None]) * x[gidx]
    return acc


def projection_on_kernel(lam):
    """Matrix of the lam-isotypic projector in kernel-basis coordinates, as
    (L X, 120 L / d_lam): with S = ``scaled_projection`` of L K,
    ``_kernel_coordinates`` gives L X with K X = S / L, and the projector is
    d_lam X / 120."""
    lk, scale, pivots, free = _kernel()
    lx = _kernel_coordinates(lk, scale, pivots, free, scaled_projection(lam, lk))
    if lx is None:
        raise InternalConsistencyError("projector does not preserve the kernel")
    return lx, factorial(N) * scale // hook_dimension(lam)


def _orbit_sum(gidx, gsgn, signed_e):
    """sum_{i=0}^{4} A_pi^i applied to a signed coordinate vector, for the
    gather tables (gidx, gsgn) of A_pi."""
    out = np.zeros(signed_e.shape[0], dtype=np.int64)
    cur = signed_e.copy()
    for _ in range(N):
        out += cur
        cur = gsgn * cur[gidx]
    return out


def find_isotypic_cycle():
    """Deterministic search for a nonzero (3,1,1)-isotypic cycle of orbit form.

    Looks for v = sum_i pi^i u, pi the 5-cycle, u a 4-term +-1 combination of
    basis graphs using both path shapes (two of each), with d v = 0 and
    P_(3,1,1) v = v, tested in integers as S v = (120 / d) v
    (``scaled_projection``).  There is no fallback: InternalConsistencyError
    when no such v exists.
    """
    basis = basis_arrays(N, TOP_DEGREE)
    d = boundary_matrix(N, TOP_DEGREE).to_int64()
    pi = tuple(list(range(1, N)) + [0])
    gidx, gsgn = act(pi, TOP_DEGREE)
    dim = basis.dim
    lam = (3, 1, 1)
    scale = factorial(N) // hook_dimension(lam)

    orbits = [_orbit_sum(gidx, gsgn, e) for e in np.eye(dim, dtype=np.int64)]
    bvecs = [d @ o for o in orbits]
    shapes = [None] * dim  # the sorted path lengths of each basis graph
    for (_, _, lens), index, _ in basis.blocks:
        for i in index.tolist():
            shapes[i] = tuple(sorted(lens))

    # hash signed pair sums of orbit boundaries, then look for a second pair
    # cancelling the first (meet in the middle over 4-term supports)
    pair_index = {}
    pairs = []
    for g1 in range(dim):
        for g2 in range(g1 + 1, dim):
            for s2 in (1, -1):
                pair_index.setdefault(tuple(bvecs[g1] + s2 * bvecs[g2]), []).append(
                    len(pairs)
                )
                pairs.append((g1, g2, s2))

    wanted = sorted([(1, 1, 3), (1, 1, 3), (1, 2, 2), (1, 2, 2)])
    for idx, (g1, g2, s2) in enumerate(pairs):
        b12 = bvecs[g1] + s2 * bvecs[g2]
        for flip, key in ((1, tuple(-b12)), (-1, tuple(b12))):
            for jdx in pair_index.get(key, []):
                if jdx <= idx:
                    continue
                g3, g4, s4 = pairs[jdx]
                support = (g1, g2, g3, g4)
                if len(set(support)) < 4 or sorted(shapes[g] for g in support) != wanted:
                    continue
                v = orbits[g1] + s2 * orbits[g2] + flip * orbits[g3] + flip * s4 * orbits[g4]
                if not v.any() or (d @ v).any():
                    continue
                if np.array_equal(scaled_projection(lam, v), scale * v):
                    return v
    raise InternalConsistencyError("no (3,1,1)-isotypic cycle of orbit form")


def marked_triple_perms():
    """The six permutations of markings 0,1,2 fixing 3 and 4."""
    return [s + (3, 4) for s in permutations(range(3))]


def orbit_basis(v):
    """{sigma v} over the six marked-triple permutations, rank-certified."""
    v = np.asarray(v, dtype=np.int64)
    tables = map(_act_tables, marked_triple_perms())
    vb = np.stack([gsgn * v[gidx] for gidx, gsgn in tables], axis=1)
    if rank_exact(vb) != 6:
        raise DegenerateVectorError("orbit of the vector has rank < 6")
    return vb


def representation_on_span(vb):
    """rho1: group element -> its action on span(vb), a 6x6 rational matrix X
    as (L X, L), one L for all.  With V_R a nonsingular set of rows of vb,
    the verified kernel [Y; I] of [V_R | -I] gives L Y = L V_R^-1, so L X =
    (L Y)(pi vb)_R; vb (L X) = L pi vb, checked on every row, certifies it."""
    width = vb.shape[1]
    if rank_exact(vb) != width:
        raise DegenerateVectorError(f"the {width} vectors are dependent")
    rows = independent_columns(vb.T, width)
    _, lk, scale, _, _ = kernel_exact(np.hstack([vb[rows], -np.eye(width, dtype=np.int64)]))
    if scale * _max_abs(vb) >= _INT64_SAFE:
        raise OverflowError(f"L pi vb may leave int64 at L = {scale}")
    reps = {}
    for pi in permutations(range(N)):
        gidx, gsgn = _act_tables(pi)
        image = gsgn[:, None] * vb[gidx]
        lx = int_matmul(lk[:width], image[rows])
        if not np.array_equal(int_matmul(vb, lx), scale * image):
            raise DegenerateVectorError(f"the span is not invariant under {pi}")
        reps[pi] = lx, scale
    return reps


def equivariant_isomorphism(vb, specht=None):
    """h0 = sum_pi rho2(pi^{-1}) . h . rho1(pi): an explicit intertwiner, as
    (L h0, L) with L the scale every rho1 shares.

    h is the identity-shaped seed map; averaging makes h0 equivariant, so by
    Schur it is zero (wrong isotype) or an isomorphism.  The sum is one exact
    product of rho2(pi^{-1}) h, side by side, with the L X stacked.
    """
    rep = specht if specht is not None else specht_matrices((3, 1, 1))
    rho1 = representation_on_span(vb)
    width = vb.shape[1]
    scale = rho1[tuple(range(N))][1]
    seed = np.eye(rep.dim, width, dtype=np.int64)
    perms = list(rho1)
    rho2 = dict(zip(perms, rep.matrices(perms)))
    left = np.hstack([int_matmul(rho2[tuple(np.argsort(pi).tolist())], seed) for pi in perms])
    right = np.vstack([lx for lx, _ in rho1.values()])
    h0 = int_matmul(left, right)
    if not h0.any():
        raise WrongIsotypeError("averaged intertwiner is zero")
    # h0 rho1(pi) = rho2(pi) h0, times L^2
    for pi, (lx, _) in rho1.items():
        if not np.array_equal(int_matmul(h0, lx), int_matmul(scale * rho2[pi], h0)):
            raise InternalConsistencyError("intertwining identity failed")
    if rep.dim != width or rank_exact(h0) != rep.dim:
        raise WrongIsotypeError("intertwiner is singular")
    return h0, scale
