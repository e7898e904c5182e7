"""Truncated power-sum polynomial arithmetic and the genus-2 equivariant
Euler-characteristic cross-check.

The generating function z2 lives in Q[p_1, p_2, ...] with deg p_i = i; its
degree-n slice encodes the alternating sum of homology characters for n
markings, one coefficient per cycle type. Everything is truncated to total
degree <= N, which keeps the expansion finite.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .symmetric_group import ClassFunction, class_size, partitions_of

# monomial key: tuple of (variable index, exponent) pairs, sorted, exponents > 0


def _degree(key):
    return sum(i * e for i, e in key)


class PowerSumPoly:
    """Sparse polynomial in p_1..p_N graded by deg p_i = i, degree <= trunc."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc, terms=None):
        self.trunc = trunc
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c and _degree(key) <= trunc:
                    self.terms[key] = c

    @classmethod
    def constant(cls, c, trunc):
        return cls(trunc, {(): Fraction(c)})

    @classmethod
    def p(cls, i, trunc):
        return cls(trunc, {((i, 1),): Fraction(1)})

    def coefficient(self, key) -> Fraction:
        return self.terms.get(tuple(sorted(key)), Fraction(0))

    def truncate(self, trunc) -> "PowerSumPoly":
        return PowerSumPoly(trunc, self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, PowerSumPoly)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return PowerSumPoly(min(self.trunc, other.trunc), out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) - c
        return PowerSumPoly(min(self.trunc, other.trunc), out)

    def __neg__(self):
        return PowerSumPoly(self.trunc, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "PowerSumPoly":
        c = Fraction(c)
        return PowerSumPoly(self.trunc, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = {}
        for ka, ca in self.terms.items():
            da = _degree(ka)
            for kb, cb in other.terms.items():
                if da + _degree(kb) > trunc:
                    continue
                merged = dict(ka)
                for i, e in kb:
                    merged[i] = merged.get(i, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return PowerSumPoly(trunc, out)

    def __pow__(self, k):
        out = PowerSumPoly.constant(1, self.trunc)
        for _ in range(k):
            out = out * self
        return out

    def support_variables(self):
        return sorted({i for key in self.terms for i, _ in key})

    def __repr__(self):
        if not self.terms:
            return "PowerSumPoly(0)"
        bits = []
        for key in sorted(self.terms, key=lambda k: (_degree(k), k)):
            mono = "*".join(f"p{i}^{e}" if e > 1 else f"p{i}" for i, e in key) or "1"
            bits.append(f"({self.terms[key]})*{mono}")
        return " + ".join(bits)


def _p_big(i, trunc):
    """P_i = 1 + p_i."""
    return PowerSumPoly(trunc, {(): Fraction(1), ((i, 1),): Fraction(1)})


def _p_big_inverse(i, trunc):
    """P_i^{-1} = sum_k (-p_i)^k, truncated."""
    terms = {(): Fraction(1)}
    k = 1
    while i * k <= trunc:
        terms[((i, k),)] = Fraction(-1) ** k
        k += 1
    return PowerSumPoly(trunc, terms)


def z2_truncated(trunc) -> PowerSumPoly:
    """The genus-2 equivariant Euler-characteristic generating function."""
    p1 = _p_big(1, trunc)
    out = _p_big_inverse(1, trunc).scale(Fraction(-1, 12))
    out = out + (p1 * _p_big_inverse(2, trunc)).scale(Fraction(1, 2))
    out = out - (p1 * p1 * _p_big_inverse(3, trunc)).scale(Fraction(1, 6))
    out = out - (p1 * p1 * p1 * _p_big_inverse(2, trunc) ** 2).scale(Fraction(1, 12))
    out = out - (_p_big(2, trunc) * _p_big(3, trunc) * _p_big_inverse(6, trunc)).scale(
        Fraction(1, 6)
    )
    return out


def psi_key(mu):
    """Monomial key of the power-sum product for a cycle type."""
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    return tuple(sorted(counts.items()))


class EulerClassCheck(NamedTuple):
    cycle_type: tuple
    coefficient: Fraction  # degree-n generating function side
    bracket: Fraction  # homology-character side
    ok: bool


def check_euler(n, top: ClassFunction, nxt: ClassFunction):
    """Per-class comparison of the two Euler-characteristic computations.

    For each cycle type mu of S_n the degree-n coefficient of psi(mu) must
    equal |C(mu)|/n! * ((-1)^n * nxt(mu) + (-1)^(n+1) * top(mu)). Failures
    are reported, not raised.

    When ``nxt`` comes from ``homology_character_next(n, top)``, ``top``
    cancels in ``nxt - top``: the check then tests z2 against the chain
    characters of C_n, C_{n+1}, C_{n+2}, not the homology characters.
    """
    z2 = z2_truncated(n)
    sign_next = Fraction((-1) ** n)
    order = factorial(n)
    report = []
    for mu in partitions_of(n):
        lhs = z2.coefficient(psi_key(mu))
        bracket = sign_next * (nxt.at(mu) - top.at(mu))
        rhs = Fraction(class_size(mu), order) * bracket
        report.append(EulerClassCheck(mu, lhs, rhs, lhs == rhs))
    return report
