"""The exact truncated power series shared by the transfer and the pinned series."""

import random
from fractions import Fraction

import pytest

from clusterexp.numerics import Series
from test_mayer import log_series_per_site


def convolve(a, b) -> list:
    """Oracle: the schoolbook product of two series, truncated to len(a)."""
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]


def random_series(rng: random.Random, order: int, fractions: bool, head=None) -> Series:
    def coefficient():
        if rng.random() < 0.25:
            return 0
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 7)) if fractions else num

    coeffs = [coefficient() for _ in range(order + 1)]
    if head is not None:
        coeffs[0] = head
    return Series(coeffs)


@pytest.mark.parametrize("fractions", [False, True])
def test_log_matches_the_power_sum_oracle(fractions):
    rng = random.Random(3 + fractions)
    for order in range(0, 8):
        for _ in range(6):
            s = random_series(rng, order, fractions, head=1)
            got = s.log()
            assert isinstance(got, Series)
            assert list(got) == log_series_per_site(list(s), order, 1)


@pytest.mark.parametrize("fractions", [False, True])
def test_division_times_divisor_is_the_dividend(fractions):
    rng = random.Random(11 + fractions)
    for order in range(0, 8):
        for _ in range(6):
            a = random_series(rng, order, fractions)
            b = random_series(rng, order, fractions, head=1)
            assert convolve(a / b, b) == list(a)


def test_division_by_divisors_with_zero_coefficients():
    a = Series((2, -1, 0, 5, 3))
    for b in (Series((1, 0, 0, 0, 0)), Series((1, 0, -3, 0, 0)), Series((1, 0, 0, 0, 7))):
        assert convolve(a / b, b) == list(a)
    # 1 / (1 - t) is the geometric series
    assert Series((1, 0, 0, 0, 0)) / Series((1, -1, 0, 0, 0)) == (1, 1, 1, 1, 1)


def test_scalar_times_series_is_the_monomial_c_t_times_it():
    s = Series((1, 2, 3, 4))
    assert 3 * s == (0, 3, 6, 9)
    assert 1 * s == (0, 1, 2, 3)
    assert -2 * Series((Fraction(1, 3), 5)) == (0, Fraction(-2, 3))
    assert isinstance(3 * s, Series) and len(3 * s) == len(s)


def test_sum_is_termwise():
    assert Series((1, 2, 3)) + Series((4, 5, 6)) == (5, 7, 9)
    assert isinstance(Series((1,)) + Series((2,)), Series)


def test_ints_stay_ints():
    a, b = Series((3, -1, 4, 1)), Series((1, 5, -9, 2))
    for got in (a + b, 7 * a, 1 * a, a / b):
        assert all(type(c) is int for c in got), got


def test_fractions_stay_exact():
    a = Series((Fraction(1, 3), Fraction(2, 5), 0))
    assert all(type(c) is Fraction for c in (1 * a)[1:])
    assert (a / Series((1, Fraction(1, 2), 0))) == (Fraction(1, 3), Fraction(7, 30), Fraction(-7, 60))


def test_order_zero():
    s = Series((5,))
    assert s + Series((2,)) == (7,)
    assert 3 * s == (0,)
    assert s / Series((1,)) == (5,)
    assert Series((1,)).log() == (0,)
