"""Acceptance gate: one test per shipping criterion, goldens asserted exactly.

Each test ends with a single `criterion NN <name>: PASS/FAIL` line (shown
with -s, or in the -v listing through the test names).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from delta2n import clear_caches
from delta2n.chain_complex import betti, boundary_matrix, build_basis, build_complex
from delta2n.equivariant_homology import (
    homology_character_next,
    homology_character_top,
    isotypic_block_ranks,
    kernel_character_oracle,
)
from delta2n.linalg import is_surjective
from delta2n.symfunc_check import check_euler
from delta2n.symmetric_group import (
    character_table,
    class_representative,
    class_size,
    decompose,
    hook_dimension,
    partitions_of,
    specht_matrices,
)
from delta2n.theta_graphs import (
    canonicalize,
    chain_orbits,
    enumerate_theta,
    has_odd_automorphism,
    relabel,
    to_line,
)

from test_equivariant_homology import action_matrix

DATA = Path(__file__).parent / "data"

# golden character rows, classes in partitions_of(n) order (identity first)
GOLDEN_TOP = {
    4: (3, -1, -1, 0, 1),
    5: (15, 3, -1, 0, 0, -1, 0),
    6: (86, 2, 10, 6, -1, -1, 2, 0, 0, 1, 0),
    7: (575, 5, -13, 17, -1, -1, -1, -1, -1, 1, -1, 0, 0, -1, 1),
    8: (4426, 16, -2, -84, -30, 1, 1, 1, 4, 4, -2, 0, 2, 1, -2, 1, 1, 1, 0, 0, 2, 0),
}
GOLDEN_NEXT = {
    4: (1, 1, 1, 1, 1),
    5: (5, 1, 1, -1, 1, -1, 0),
    6: (26, 2, -2, -2, -1, -1, -1, 0, 0, 1, 1),
    7: (155, 5, -1, -7, -1, -1, -1, 5, -1, 1, -1, 0, 0, -1, 1),
    8: (1066, 16, -2, 12, 2, 1, 1, 1, -2, 4, -2, 0, 2, 1, -2, 1, 1, 1, 0, 2, 2, 0),
}
# the n=6 multiplicities of chi_33 and chi_222 are forced by the golden
# character row above (inner products are unambiguous), and two independent
# computation methods reproduce that row exactly
GOLDEN_MULTS_TOP = {
    4: {(2, 1, 1): 1},
    5: {(3, 1, 1): 1, (3, 2): 1, (4, 1): 1},
    6: {
        (1, 1, 1, 1, 1, 1): 1,
        (2, 1, 1, 1, 1): 1,
        (2, 2, 1, 1): 1,
        (2, 2, 2): 2,
        (3, 2, 1): 2,
        (3, 3): 1,
        (4, 2): 2,
        (5, 1): 1,
        (6,): 1,
    },
    7: {
        (2, 2, 2, 1): 1,
        (3, 1, 1, 1, 1): 3,
        (3, 2, 1, 1): 4,
        (3, 2, 2): 3,
        (3, 3, 1): 1,
        (4, 1, 1, 1): 3,
        (4, 2, 1): 5,
        (4, 3): 1,
        (5, 1, 1): 1,
        (5, 2): 2,
    },
    8: {
        (1, 1, 1, 1, 1, 1, 1, 1): 1,
        (2, 1, 1, 1, 1, 1, 1): 2,
        (2, 2, 1, 1, 1, 1): 3,
        (2, 2, 2, 1, 1): 5,
        (2, 2, 2, 2): 1,
        (3, 2, 1, 1, 1): 7,
        (3, 2, 2, 1): 6,
        (3, 3, 1, 1): 9,
        (3, 3, 2): 5,
        (4, 1, 1, 1, 1): 1,
        (4, 2, 1, 1): 10,
        (4, 2, 2): 2,
        (4, 3, 1): 10,
        (4, 4): 1,
        (5, 1, 1, 1): 7,
        (5, 2, 1): 7,
        (5, 3): 2,
        (6, 1, 1): 5,
    },
}
GOLDEN_MULTS_NEXT = {
    4: {(4,): 1},
    5: {(3, 2): 1},
    6: {(3, 2, 1): 1, (4, 1, 1): 1},
    7: {
        (1, 1, 1, 1, 1, 1, 1): 1,
        (2, 2, 2, 1): 1,
        (3, 2, 1, 1): 1,
        (3, 3, 1): 1,
        (4, 1, 1, 1): 1,
        (4, 2, 1): 1,
        (4, 3): 1,
        (5, 1, 1): 1,
    },
    8: {
        (3, 1, 1, 1, 1, 1): 1,
        (3, 2, 1, 1, 1): 2,
        (3, 2, 2, 1): 2,
        (3, 3, 1, 1): 1,
        (3, 3, 2): 1,
        (4, 1, 1, 1, 1): 1,
        (4, 2, 1, 1): 2,
        (4, 2, 2): 2,
        (4, 3, 1): 2,
        (5, 1, 1, 1): 1,
        (5, 2, 1): 2,
        (5, 3): 1,
        (6, 2): 1,
        (8,): 1,
    },
}


def _report(num, name, ok, detail=""):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num:02d} {name}: {detail or 'failed'}"


@pytest.fixture(scope="module", autouse=True)
def _warm_memos():
    # fill the memoized n = 4 results (orbits, Specht modules, block ranks)
    # once, so the timed criteria do not pay for the first call's set-up
    betti(4)
    homology_character_top(4)


def test_01_betti_numbers():
    # the fixture has computed betti(4): empty the memos, so that each time
    # below measures the computation, not a lookup
    clear_caches()
    times, got = {}, {}
    for n in (4, 5, 6):
        t0 = time.perf_counter()
        got[n] = betti(n)
        times[n] = time.perf_counter() - t0
    ok = (
        got == {4: (3, 1), 5: (15, 5), 6: (86, 26)}
        and times[4] < 1.0
        and times[5] < 1.0
        and times[6] < 30.0
    )
    _report(1, "betti numbers n=4,5,6", ok,
            f"got {got}, times {[f'{times[n]:.2f}s' for n in (4, 5, 6)]}")


def test_02_character_tables():
    bad = []
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        top = homology_character_top(n)
        nxt = homology_character_next(n)
        if tuple(top.tolist()) != GOLDEN_TOP[n]:
            bad.append(f"top n={n}: {top.tolist()}")
        if tuple(nxt.tolist()) != GOLDEN_NEXT[n]:
            bad.append(f"next n={n}: {nxt.tolist()}")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1800.0
    _report(2, "character rows n=4,5,6", ok, "; ".join(bad) or f"{dt:.1f}s")


def test_03_decompositions():
    bad = []
    for n in (4, 5, 6):
        top = homology_character_top(n)
        dec_top = decompose(n, top)
        dec_nxt = decompose(n, homology_character_next(n))
        if dec_top != GOLDEN_MULTS_TOP[n]:
            bad.append(f"top n={n}: {dec_top}")
        if dec_nxt != GOLDEN_MULTS_NEXT[n]:
            bad.append(f"next n={n}: {dec_nxt}")
    _report(3, "irreducible decompositions n=4,5,6", not bad, "; ".join(bad))


def test_04_n7_characters():
    t0 = time.perf_counter()
    top = homology_character_top(7)
    nxt = homology_character_next(7)
    dt = time.perf_counter() - t0
    bad = []
    if tuple(top.tolist()) != GOLDEN_TOP[7]:
        bad.append(f"top: {top.tolist()}")
    if tuple(nxt.tolist()) != GOLDEN_NEXT[7]:
        bad.append(f"next: {nxt.tolist()}")
    if decompose(7, top) != GOLDEN_MULTS_TOP[7]:
        bad.append("top decomposition mismatch")
    if decompose(7, nxt) != GOLDEN_MULTS_NEXT[7]:
        bad.append("next decomposition mismatch")
    ok = not bad and dt < 60.0
    _report(4, "n=7 characters", ok, "; ".join(bad) or f"{dt:.0f}s")


def test_05_method_agreement():
    bad = []
    for n in (4, 5):
        oracle = kernel_character_oracle(n).tolist()
        proj = homology_character_top(n).tolist()
        if oracle != proj:
            bad.append(f"n={n}: oracle {oracle} vs blocks {proj}")
    _report(5, "kernel-trace oracle vs block method n=4,5", not bad, "; ".join(bad))


def test_06_euler_generating_function():
    bad, forced = [], 0
    for n in (4, 5, 6):
        top = homology_character_top(n)
        report = check_euler(n, top, homology_character_next(n))
        if {e.cycle_type for e in report} != set(partitions_of(n)):
            bad.append(f"n={n}: classes missing from report")
        for e in report:
            if not e.ok:
                bad.append(
                    f"n={n} class {e.cycle_type}: {e.coefficient} != {e.bracket}"
                    f" (over {e.denominator})"
                )
            if any(part not in (1, 2, 3, 6) for part in e.cycle_type):
                forced += 1
                if e.coefficient != 0:
                    bad.append(f"n={n} class {e.cycle_type}: expected zero coefficient")
    ok = not bad and forced > 0
    _report(6, "z2 coefficient identity n=4,5,6", ok,
            "; ".join(bad) or f"{forced} forced-zero classes included")


def test_07_n2_ground_truth():
    # canonical line strings for the five marked theta types on two markings:
    # T1 marks two arcs, T2/T3 mix an interior and a branch vertex, T4 marks
    # both branch vertices; the fifth puts both marks inside a single arc
    by_edges = {
        k: {to_line(g): has_odd_automorphism(g) for g in enumerate_theta(2, k, full_only=False)}
        for k in (3, 4, 5)
    }
    t1 = "a=-;b=-;p0=;p1=1;p2=2"
    expected = {
        3: {"a=1;b=2;p0=;p1=;p2=": True},
        4: {"a=-;b=1;p0=;p1=;p2=2": True, "a=-;b=2;p0=;p1=;p2=1": True},
        5: {"a=-;b=-;p0=;p1=;p2=1,2": True, t1: False},
    }
    bad = []
    if by_edges != expected:
        bad.append(f"enumeration: {by_edges}")
    # degree 4 of the bridge-relative complex is spanned by T1 alone and the
    # degree-3 group vanishes, so H_4 is the span of T1; the marking swap
    # fixes the generator with positive sign: the trivial representation
    survivors = [g for g in enumerate_theta(2, 5, full_only=False)
                 if not has_odd_automorphism(g)]
    if len(survivors) != 1 or to_line(survivors[0]) != t1:
        bad.append("degree-4 chain group is not spanned by T1")
    else:
        canon, sign = canonicalize(relabel(survivors[0], (1, 0)))
        if canon != survivors[0] or sign != 1:
            bad.append(f"mark swap acts by {sign}, expected +1 (trivial rep)")
    if any(build_basis(2, p).dim != 0 for p in (2, 3, 4)):
        bad.append("full-type basis should be empty for n=2")
    _report(7, "n=2 marked theta census and trivial H_4", not bad, "; ".join(bad))


def test_08_representation_theory_suite():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 7):
        table = character_table(n)
        parts = partitions_of(n)
        factorial = math.factorial(n)
        sizes = [class_size(mu) for mu in parts]
        if sum(hook_dimension(lam) ** 2 for lam in parts) != factorial:
            bad.append(f"n={n}: sum of squared dimensions != n!")
        for lam, row in zip(parts, table.tolist()):
            if row[0] != hook_dimension(lam):
                bad.append(f"n={n} {lam}: identity column != hook dimension")
            for kap, other in zip(parts, table.tolist()):
                inner = sum(s * a * b for s, a, b in zip(sizes, row, other))
                if inner != (factorial if lam == kap else 0):
                    bad.append(f"n={n}: rows {lam},{kap} not orthogonal")
    # trace of the natural matrices reproduces the recursive character values
    for n in range(2, 6):
        classes = [class_representative(mu) for mu in partitions_of(n)]
        for lam, row in zip(partitions_of(n), character_table(n).tolist()):
            got = [int(np.trace(m)) for m in specht_matrices(lam).matrices(classes)]
            if got != row:
                bad.append(f"specht trace vs table: n={n} {lam}")
    rng = np.random.default_rng(17)
    for n, lam in ((4, (2, 2)), (5, (3, 1, 1))):
        rep = specht_matrices(lam)
        for _ in range(5):
            p = tuple(rng.permutation(n).tolist())
            q = tuple(rng.permutation(n).tolist())
            pq, rho_p, rho_q = rep.matrices([tuple(p[x] for x in q), p, q])
            if not np.array_equal(pq, rho_p @ rho_q):
                bad.append(f"multiplicativity: n={n} {lam}")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    _report(8, "symmetric group toolkit", ok, "; ".join(bad) or f"{dt:.1f}s")


def test_09_structural_properties():
    bad = []
    rng = np.random.default_rng(23)
    for n in (4, 5, 6):
        cx = build_complex(n)
        if not cx.d(n + 1).matmul(cx.d(n + 2)).is_zero():
            bad.append(f"n={n}: d.d != 0")
        if not is_surjective(cx.d(n + 1).to_int64()):
            bad.append(f"n={n}: d_{n+1} not surjective")
        for p in (n + 1, n + 2):
            dmat = np.zeros((build_basis(n, p - 1).dim, build_basis(n, p).dim),
                            dtype=np.int64)
            for (r, c), v in boundary_matrix(n, p).entries():
                dmat[r, c] = int(v)
            for _ in range(3):
                sigma = tuple(rng.permutation(n).tolist())
                lo, hi = action_matrix(sigma, p - 1), action_matrix(sigma, p)
                if not np.array_equal(lo @ dmat, dmat @ hi):
                    bad.append(f"n={n} p={p}: boundary not equivariant")
                    break
    # block ranks that do not depend on which graph of each orbit represents it
    for n in (5, 6):
        reps = tuple(chain_orbits(n, p) for p in (n, n + 1, n + 2))
        for lam in partitions_of(n):
            moved = tuple(
                tuple(canonicalize(relabel(r, tuple(rng.permutation(n).tolist()))).target
                      for r in rs)
                for rs in reps
            )
            if isotypic_block_ranks(lam, n, moved) != isotypic_block_ranks(lam, n, reps):
                bad.append(f"n={n} {lam}: block ranks depend on the representatives")
    _report(9, "complex structure and determinism n=4,5,6", not bad, "; ".join(bad))


def test_10_n5_kernel_cycle_suite():
    from delta2n.d25_analysis import (
        equivariant_isomorphism,
        find_isotypic_cycle,
        orbit_basis,
        projection_on_kernel,
        scaled_projection,
    )

    t0 = time.perf_counter()
    bad = []
    p311, scale = projection_on_kernel((3, 1, 1))
    if np.trace(p311) != 6 * scale:
        bad.append("isotypic dimension inside the kernel != 6")
    v = find_isotypic_cycle()
    dmat = np.zeros((60, 60), dtype=np.int64)
    for (r, c), val in boundary_matrix(5, 7).entries():
        dmat[r, c] = int(val)
    if np.any(dmat @ v):
        bad.append("found vector is not a cycle")
    if not np.array_equal(scaled_projection((3, 1, 1), v), 20 * v):  # 120 / d_(3,1,1)
        bad.append("found vector is not isotypic")
    vb = orbit_basis(v)  # raises unless rank is exactly 6
    if vb.shape != (60, 6):
        bad.append(f"orbit basis shape {vb.shape}")
    h0, _ = equivariant_isomorphism(vb)  # verifies intertwining for all 120
    if h0.shape != (6, 6):
        bad.append(f"intertwiner shape {h0.shape}")
    if np.linalg.matrix_rank(h0.astype(float)) != 6:
        bad.append("intertwiner is singular")
    ref = np.loadtxt(DATA / "reference_projector_15x15.txt", dtype=np.int64)
    if not np.array_equal(ref @ ref, 20 * ref) or np.trace(ref) != 120:
        bad.append("reference projector fails scaled idempotency")
    ih = np.loadtxt(DATA / "reference_intertwiner_6x6.txt", dtype=np.int64)
    if set(np.abs(ih).flatten().tolist()) != {20}:
        bad.append("reference intertwiner entries not +-20")
    if np.linalg.matrix_rank(ih.astype(float)) != 6:
        bad.append("reference intertwiner singular")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    _report(10, "n=5 isotypic cycle analysis", ok, "; ".join(bad) or f"{dt:.1f}s")


def test_11_n8_characters():
    # pinned from `characters --n 8` of the code that built each Specht
    # matrix on its own word product, in int64: dim H_10 = 4426, dim H_9 = 1066
    t0 = time.perf_counter()
    top = homology_character_top(8)
    nxt = homology_character_next(8)
    dt = time.perf_counter() - t0
    bad = []
    if tuple(top.tolist()) != GOLDEN_TOP[8]:
        bad.append(f"top: {top.tolist()}")
    if tuple(nxt.tolist()) != GOLDEN_NEXT[8]:
        bad.append(f"next: {nxt.tolist()}")
    if decompose(8, top) != GOLDEN_MULTS_TOP[8]:
        bad.append("top decomposition mismatch")
    if decompose(8, nxt) != GOLDEN_MULTS_NEXT[8]:
        bad.append("next decomposition mismatch")
    ok = not bad and dt < 120.0
    _report(11, "n=8 characters", ok, "; ".join(bad) or f"{dt:.0f}s")
