"""Number-theoretic helpers against brute-force and classical identities."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from borwein import (
    divisors,
    euler_phi,
    generalized_binomial,
    is_prime,
    mobius,
    ramanujan_sum,
    trinomial_coeff,
)


def test_divisors_examples():
    assert divisors(6) == (1, 2, 3, 6)
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_brute_force():
    for n in range(1, 200):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sum_vanishes():
    # Σ_{d|n} μ(d) = [n == 1]
    assert sum(mobius(d) for d in divisors(1)) == 1
    for n in range(2, 201):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_euler_phi_brute_force():
    assert euler_phi(1) == 1
    assert euler_phi(3) == 2
    assert euler_phi(6) == 2
    for n in range(1, 120):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_ramanujan_examples():
    assert ramanujan_sum(3, 0) == 2
    assert ramanujan_sum(6, 3) == -2
    assert ramanujan_sum(6, 1) == 1


def test_ramanujan_at_zero_is_totient():
    for d in range(1, 101):
        assert ramanujan_sum(d, 0) == euler_phi(d)


def test_ramanujan_row_sums_vanish():
    for d in range(2, 101):
        assert sum(ramanujan_sum(d, b) for b in range(d)) == 0


def test_ramanujan_depends_only_on_gcd():
    for d in range(1, 101):
        for b in range(-5, 2 * d, 7):
            assert ramanujan_sum(d, b) == ramanujan_sum(d, math.gcd(b, d))


def test_ramanujan_matches_root_of_unity_sum():
    # independent oracle: Σ over primitive d-th roots ζ of ζ^b
    for d in range(1, 31):
        for b in range(d):
            val = sum(
                cmath.exp(2j * cmath.pi * k * b / d)
                for k in range(1, d + 1)
                if math.gcd(k, d) == 1
            )
            assert abs(val.imag) < 1e-9
            assert round(val.real) == ramanujan_sum(d, b)


def test_generalized_binomial_extends_binomial():
    for n in range(8):
        for k in range(10):
            assert generalized_binomial(n, k) == math.comb(n, k)
    # C(2/3 - 1, 0) = 1 and C(-1/3, 1) = -1/3 show up in the literal form
    assert generalized_binomial(Fraction(-1, 3), 0) == 1
    assert generalized_binomial(Fraction(-1, 3), 1) == Fraction(-1, 3)


def _trinomial_by_multinomials(m: int, k: int) -> int:
    # pick c twos and k-2c ones among m slots
    return sum(
        math.comb(m, c) * math.comb(m - c, k - 2 * c)
        for c in range(0, k // 2 + 1)
        if k - 2 * c <= m - c
    )


def test_trinomial_examples_and_oracle():
    assert trinomial_coeff(2, 2) == 3
    assert trinomial_coeff(7, 0) == 1
    assert trinomial_coeff(2, 5) == 0
    for m in range(11):
        for k in range(2 * m + 3):
            assert trinomial_coeff(m, k) == _trinomial_by_multinomials(m, k)


def test_trinomial_row_identities():
    for m in range(31):
        row = [trinomial_coeff(m, k) for k in range(2 * m + 1)]
        assert sum(row) == 3**m
        assert sum((-1) ** k * c for k, c in enumerate(row)) == 1
        assert row == row[::-1]


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]



def test_is_prime_brute_force():
    for n in range(-3, 3000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n)))
    assert not is_prime(961)  # 31²
    assert not is_prime(10007**2)
    assert is_prime(1_000_003)
