"""Explicit structure of the (3,1,1)-isotypic part of the top homology at
n = 5: an isotypic cycle with a 5-cycle orbit structure, the projection onto
the isotypic subspace in kernel coordinates, an orbit basis under the
permutations of the first three markings, and an explicit equivariant
isomorphism onto the Specht module.

Chain vectors are plain numpy arrays (length 60, integer or Fraction entries)
indexed by the n=5, degree-7 chain basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, lcm

import numpy as np

from . import InternalConsistencyError
from .chain_complex import basis_arrays, boundary_matrix
from .equivariant_homology import act
from .linalg import _kernel_coordinates, kernel_exact, rank_exact
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


def clear_denominators(m):
    """(L m, L) for an array m of integers and Fractions, with L the lcm of
    the entries' denominators: L m holds Python ints, in m's shape."""
    m = np.asarray(m, dtype=object)
    scale = lcm(*(v.denominator for v in m.flat))
    cleared = [v.numerator * (scale // v.denominator) for v in m.flat]
    return np.array(cleared, dtype=object).reshape(m.shape), scale


@cache
def _kernel():
    """The top kernel K as (L K, L, pivots, free), L the lcm of K's denominators."""
    return kernel_exact(boundary_matrix(N, TOP_DEGREE))[1:]


@cache
def _act_tables(pi):
    return act(pi, TOP_DEGREE)


def _character_sum(lam, x):
    """sum_pi chi_lam(pi) A_pi x, exactly, in Python ints."""
    parts = partitions_of(N)
    chi = dict(zip(parts, character_table(N)[parts.index(lam)].tolist()))
    x = np.asarray(x, dtype=object)
    acc = np.zeros(x.shape, dtype=object)
    for pi in permutations(range(N)):
        c = chi[cycle_type(pi)]
        if not c:
            continue
        gidx, gsgn = _act_tables(pi)
        acc = acc + c * (gsgn if x.ndim == 1 else gsgn[:, None]) * x[gidx]
    return acc


def apply_projector(lam, x):
    """(d_lam/120) * sum_pi chi_lam(pi) A_pi x, exactly."""
    return _character_sum(lam, x) * Fraction(hook_dimension(lam), factorial(N))


def projection_on_kernel(lam):
    """Matrix of the lam-isotypic projector in kernel-basis coordinates: with
    S = sum_pi chi_lam(pi) A_pi (L K) summed in integers, ``_kernel_coordinates``
    gives L X with K X = S / L, and the matrix is d_lam (L X) / (120 L)."""
    lk, scale, pivots, free = _kernel()
    lx = _kernel_coordinates(lk, scale, pivots, free, _character_sum(lam, lk))
    if lx is None:
        raise InternalConsistencyError("projector does not preserve the kernel")
    return lx * Fraction(hook_dimension(lam), factorial(N) * scale)


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
    P_(3,1,1) v = v.  There is no fallback: InternalConsistencyError when no
    such v exists.
    """
    basis = basis_arrays(N, TOP_DEGREE)
    d = boundary_matrix(N, TOP_DEGREE).to_int64()
    pi = tuple(list(range(1, N)) + [0])
    gidx, gsgn = act(pi, TOP_DEGREE)
    dim = basis.dim

    orbits = []
    for g in range(dim):
        e = np.zeros(dim, dtype=np.int64)
        e[g] = 1
        orbits.append(_orbit_sum(gidx, gsgn, e))
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
                if np.array_equal(apply_projector((3, 1, 1), v), v.astype(object)):
                    return v.astype(object)
    raise InternalConsistencyError("no (3,1,1)-isotypic cycle of orbit form")


def marked_triple_perms():
    """The six permutations of markings 0,1,2 fixing 3 and 4."""
    out = []
    for s in permutations(range(3)):
        out.append(tuple(list(s) + [3, 4]))
    return out


def orbit_basis(v):
    """{sigma v} over the six marked-triple permutations, rank-certified."""
    cols = []
    for sigma in marked_triple_perms():
        gidx, gsgn = _act_tables(sigma)
        cols.append(gsgn.astype(object) * np.asarray(v, dtype=object)[gidx])
    vb = np.stack(cols, axis=1)
    if rank_exact(clear_denominators(vb)[0]) != 6:
        raise DegenerateVectorError("orbit of the vector has rank < 6")
    return vb


def representation_on_span(vb):
    """rho1: group element -> 6x6 exact matrix of its action on span(vb).
    rho1(pi) is the top block X of the verified kernel [X; I] of
    [L vb | -pi (L vb)], L the lcm of vb's denominators, so vb X = pi vb
    holds on every row; the kernel has that shape exactly when its pivots
    are the columns of vb."""
    base, _ = clear_denominators(vb)
    width = vb.shape[1]
    reps = {}
    for pi in permutations(range(N)):
        gidx, gsgn = _act_tables(pi)
        _, lk, scale, pivots, _ = kernel_exact(np.hstack([base, -gsgn[:, None] * base[gidx]]))
        if not np.array_equal(pivots, np.arange(width)):
            raise DegenerateVectorError(
                f"the {width} vectors are dependent or their span is not invariant under {pi}"
            )
        reps[pi] = lk[:width] if scale == 1 else lk[:width] * Fraction(1, scale)
    return reps


def equivariant_isomorphism(vb, specht=None):
    """h0 = sum_pi rho2(pi^{-1}) . h . rho1(pi): an explicit intertwiner.

    h is the identity-shaped seed map; averaging makes h0 equivariant, so by
    Schur it is zero (wrong isotype) or an isomorphism.
    """
    rep = specht if specht is not None else specht_matrices((3, 1, 1))
    rho1 = representation_on_span(vb)
    width = vb.shape[1]
    seed = np.eye(rep.dim, width, dtype=np.int64).astype(object)
    perms = list(permutations(range(N)))
    rho2 = dict(zip(perms, (m.astype(object) for m in rep.matrices(perms))))
    h0 = np.zeros((rep.dim, width), dtype=object)
    for pi in perms:
        inv = tuple(np.argsort(pi).tolist())
        h0 = h0 + rho2[inv].dot(seed).dot(rho1[pi])
    if not h0.any():
        raise WrongIsotypeError("averaged intertwiner is zero")
    for pi, r1 in rho1.items():
        if not np.array_equal(h0.dot(r1), rho2[pi].dot(h0)):
            raise InternalConsistencyError("intertwining identity failed")
    if rep.dim != width or rank_exact(clear_denominators(h0)[0]) != rep.dim:
        raise WrongIsotypeError("intertwiner is singular")
    return h0
