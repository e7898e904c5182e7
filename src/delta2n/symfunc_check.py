"""The genus-2 equivariant Euler-characteristic cross-check.

The generating function z2 of Chan-Faber-Galatius-Payne (arXiv 1904.06367)
is a sum of five terms c * prod_i (1 + p_i)^(k_i) in the power sums p_i,
deg p_i = i.  Its degree-n slice encodes the alternating sum of homology
characters for n markings, one coefficient per cycle type.  Each term is a
product of one-variable binomial series, so the coefficient of
p_mu = prod_i p_i^(m_i) is sum_t c_t prod_i binom(k_{t,i}, m_i), with the
generalized binomial coefficient (k may be negative); no series is expanded.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod
from typing import NamedTuple

from .symmetric_group import class_size, partitions_of

# z2 = sum of c * prod_i (1 + p_i)^k_i over these (c, {i: k_i}) terms
Z2_TERMS = (
    (Fraction(-1, 12), {1: -1}),
    (Fraction(1, 2), {1: 1, 2: -1}),
    (Fraction(-1, 6), {1: 2, 3: -1}),
    (Fraction(-1, 12), {1: 3, 2: -2}),
    (Fraction(-1, 6), {2: 1, 3: 1, 6: -1}),
)


def _binom(k: int, m: int) -> int:
    """The coefficient of x^m in (1 + x)^k, for any integer k."""
    return comb(k, m) if k >= 0 else (-1) ** m * comb(m - k - 1, m)


def z2_coefficient(mu) -> Fraction:
    """The coefficient of p_mu in z2, for a cycle type mu (a partition)."""
    counts = Counter(mu)
    return sum(
        (c * prod(_binom(k.get(i, 0), m) for i, m in counts.items()) for c, k in Z2_TERMS),
        Fraction(0),
    )


class EulerClassCheck(NamedTuple):
    cycle_type: tuple
    coefficient: Fraction  # degree-n generating function side
    bracket: Fraction  # homology-character side
    ok: bool


def check_euler(n, top, nxt):
    """Per-class comparison of the two Euler-characteristic computations,
    for the integer character rows ``top`` of H_{n+2} and ``nxt`` of H_{n+1}.

    For each cycle type mu of S_n the coefficient of p_mu in z2 must
    equal |C(mu)|/n! * ((-1)^n * nxt(mu) + (-1)^(n+1) * top(mu)). Failures
    are reported, not raised.

    When ``nxt`` comes from ``homology_character_next(n, top)``, ``top``
    cancels in ``nxt - top``: the check then tests z2 against the chain
    characters of C_n, C_{n+1}, C_{n+2}, not the homology characters.
    """
    sign_next = Fraction((-1) ** n)
    order = factorial(n)
    report = []
    for mu, t, x in zip(partitions_of(n), top, nxt, strict=True):
        lhs = z2_coefficient(mu)
        bracket = sign_next * (int(x) - int(t))
        rhs = Fraction(class_size(mu), order) * bracket
        report.append(EulerClassCheck(mu, lhs, rhs, lhs == rhs))
    return report
