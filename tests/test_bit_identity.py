"""Pinned SHA-256 digests of the chain bases, boundaries and action tables.

The expected digests for n = 4..7 were computed from the 12-image
canonicalization (every symmetry image built, the least one kept), and the
n = 8 digest from the per-graph boundary assembly that preceded the batched
one.  Any change to enumeration order, canonical forms, contraction signs or
the signed action shows up here, for n = 7 and 8 too, where the other tests
check only dimensions and nnz.
"""

import hashlib

import numpy as np
import pytest

from delta2n.chain_complex import boundary_matrix, build_basis
from delta2n.equivariant_homology import act
from delta2n.symmetric_group import class_representative, partitions_of
from delta2n.theta_graphs import to_line

COMPLEX_DIGESTS = {
    4: "09109c812477ba502dfcd9eae448418450a1c2d807b29b88b70ca03aa1a3704c",
    5: "55328aec3f8d5479103c7d38ca85a9873a073a5a6791c81800f1b27589b8504e",
    6: "f6f0ff72b9fa1dfa8fb25208169689f2eccfcda0fcabe74644bd2a7150aca096",
    7: "0dfae90ed8478b06d8689f3a4b1370ad555f318c732b3472ef2b14ec18e790fd",
    8: "a009a595f1444b4f6d35efb088687504bf77218570a655b3046bee07c024fd6b",
}
ACT_DIGEST_N6 = "c5c5f99a0e04148fbc0908cf504de36358740ce292250df974afa01585f7237e"


def complex_digest(n):
    h = hashlib.sha256()
    for p in (n, n + 1, n + 2):
        h.update(f"basis {p}\n".encode())
        for g in build_basis(n, p).graphs:
            h.update(to_line(g).encode() + b"\n")
    for p in (n + 1, n + 2):
        d = boundary_matrix(n, p)
        h.update(f"d {p} {d.rows} {d.cols}\n".encode())
        for (r, c), v in sorted(d.entries()):
            h.update(f"{r} {c} {v}\n".encode())
    return h.hexdigest()


def act_digest(n):
    h = hashlib.sha256()
    for p in (n, n + 1, n + 2):
        for mu in partitions_of(n):
            gidx, gsgn = act(class_representative(mu), p)
            # the scatter form the digest was pinned on: sigma . e_c = sign[c] e_[image[c]]
            image = np.argsort(gidx)
            sign = gsgn[image]
            h.update(f"act {p} {mu}\n".encode())
            h.update(",".join(map(str, image.tolist())).encode() + b"\n")
            h.update(",".join(map(str, sign.tolist())).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(COMPLEX_DIGESTS))
def test_bases_and_boundaries_digest(n):
    assert complex_digest(n) == COMPLEX_DIGESTS[n]


def test_class_representative_action_digest_n6():
    assert act_digest(6) == ACT_DIGEST_N6
