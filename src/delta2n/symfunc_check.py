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
from math import comb, factorial, gcd, prod
from typing import NamedTuple

from .symmetric_group import class_size, partitions_of

# z2 = sum of c/12 * prod_i (1 + p_i)^k_i over these (c, {i: k_i}) terms: the
# coefficients -1/12, 1/2, -1/6, -1/12, -1/6 as integer numerators over 12
Z2_DENOMINATOR = 12
Z2_TERMS = (
    (-1, {1: -1}),
    (6, {1: 1, 2: -1}),
    (-2, {1: 2, 3: -1}),
    (-1, {1: 3, 2: -2}),
    (-2, {2: 1, 3: 1, 6: -1}),
)


def _binom(k: int, m: int) -> int:
    """The coefficient of x^m in (1 + x)^k, for any integer k."""
    return comb(k, m) if k >= 0 else (-1) ** m * comb(m - k - 1, m)


def z2_numerator(mu) -> int:
    """12 times the coefficient of p_mu in z2, for a cycle type mu (a
    partition): an integer, as every term is."""
    counts = Counter(mu)
    return sum(c * prod(_binom(k.get(i, 0), m) for i, m in counts.items()) for c, k in Z2_TERMS)


def ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, written as ``str(Fraction(num,
    den))`` writes it: "-3/4", or "2" when the denominator reduces to 1."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class EulerClassCheck(NamedTuple):
    """Both sides of the check on one class, as integer numerators over one
    positive denominator."""

    cycle_type: tuple
    coefficient: int  # degree-n generating function side
    bracket: int  # homology-character side
    denominator: int
    ok: bool


def check_euler(n, top, nxt):
    """Per-class comparison of the two Euler-characteristic computations,
    for the integer character rows ``top`` of H_{n+2} and ``nxt`` of H_{n+1}.

    For each cycle type mu of S_n the coefficient of p_mu in z2 must
    equal |C(mu)|/n! * ((-1)^n * nxt(mu) + (-1)^(n+1) * top(mu)).  Both
    sides are compared as integers over 12 * n!.  Failures are reported, not
    raised.

    When both rows come from ``isotypic_ranks``, a wrong rank of d_{n+2}
    moves k_lam and k'_lam equally and cancels in ``nxt - top``: the check
    tests z2 against the multiplicities of the chain groups, not that rank.
    """
    order = factorial(n)
    denominator = Z2_DENOMINATOR * order
    report = []
    for mu, t, x in zip(partitions_of(n), top, nxt, strict=True):
        lhs = z2_numerator(mu) * order
        rhs = Z2_DENOMINATOR * class_size(mu) * (-1) ** n * (int(x) - int(t))
        report.append(EulerClassCheck(mu, lhs, rhs, denominator, lhs == rhs))
    return report
