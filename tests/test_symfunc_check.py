from fractions import Fraction

import numpy as np
import pytest

from delta2n.symfunc_check import check_euler, ratio_str, z2_numerator
from delta2n.symmetric_group import partitions_of

TOP = {
    4: (3, -1, -1, 0, 1),
    5: (15, 3, -1, 0, 0, -1, 0),
    6: (86, 2, 10, 6, -1, -1, 2, 0, 0, 1, 0),
}
NEXT = {
    4: (1, 1, 1, 1, 1),
    5: (5, 1, 1, -1, 1, -1, 0),
    6: (26, 2, -2, -2, -1, -1, -1, 0, 0, 1, 1),
}


# 12 [p_mu] z2 for every mu |- n, 0 <= n <= 8, as computed by expanding the five
# product terms as truncated power series; every mu not listed has coefficient 0
Z2_TWELFTHS = {
    (1, 1): -6,
    (2,): -6,
    (1, 1, 1, 1): -1,
    (2, 1, 1): 6,
    (2, 2): 3,
    (3, 1): 4,
    (1, 1, 1, 1, 1): 1,
    (2, 1, 1, 1): 2,
    (2, 2, 1): -3,
    (3, 1, 1): 2,
    (3, 2): -2,
    (1, 1, 1, 1, 1, 1): -1,
    (2, 2, 1, 1): -9,
    (2, 2, 2): -2,
    (3, 3): -2,
    (6,): 2,
    (1, 1, 1, 1, 1, 1, 1): 1,
    (2, 2, 1, 1, 1): -3,
    (2, 2, 2, 1): 6,
    (3, 3, 1): -4,
    (1, 1, 1, 1, 1, 1, 1, 1): -1,
    (2, 2, 2, 1, 1): 12,
    (2, 2, 2, 2): 1,
    (3, 3, 1, 1): -2,
    (6, 2): 2,
}


@pytest.mark.parametrize("n", range(9))
def test_z2_coefficient_pinned(n):
    for mu in partitions_of(n):
        assert z2_numerator(mu) == Z2_TWELFTHS.get(mu, 0), mu


def test_z2_low_degree_coefficients():
    assert z2_numerator(()) == 0
    assert z2_numerator((1,)) == 0


def test_z2_support():
    # z2 involves only p_1, p_2, p_3 and p_6
    for n in range(13):
        for mu in partitions_of(n):
            if any(part not in (1, 2, 3, 6) for part in mu):
                assert z2_numerator(mu) == 0, mu


def test_z2_identity_coefficient_n4():
    # p_1^4 coefficient comes only from the P_1^{-1} term
    assert z2_numerator((1, 1, 1, 1)) == -1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_check_euler_golden(n):
    report = check_euler(n, np.array(TOP[n]), np.array(NEXT[n]))
    assert len(report) == len(partitions_of(n))
    assert all(entry.ok for entry in report)
    for entry in report:
        if any(part not in (1, 2, 3, 6) for part in entry.cycle_type):
            assert entry.coefficient == 0
            assert entry.bracket == 0


def test_check_euler_detects_corruption():
    top = list(TOP[5])
    top[0] += 1
    report = check_euler(5, np.array(top), np.array(NEXT[5]))
    assert not all(entry.ok for entry in report)


def test_ratio_str_writes_what_fraction_writes():
    # the verify output prints every Euler value through ratio_str
    for den in range(1, 12 * 40320 + 1, 997):
        for num in (-5 * den, -den - 1, -7, -1, 0, 1, 6, den, 3 * den + 2):
            assert ratio_str(num, den) == str(Fraction(num, den)), (num, den)
