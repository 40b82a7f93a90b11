"""Exact integer arithmetic helpers.

Divisors, Möbius, totient and Ramanujan sums for the divisor formula;
binomials, including the rational ones of the literal closed form;
trinomial coefficients, the independent reference row for G_3; and
primality. Divisors, Möbius, totient and primality all read one cached
trial-division factorization, _factorization. Everything is pure and
exact: plain ``int`` (or ``Fraction``) in, plain ``int`` (or
``Fraction``) out, no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "divisors",
    "mobius",
    "euler_phi",
    "ramanujan_sum",
    "binomial",
    "generalized_binomial",
    "trinomial_coeff",
    "is_prime",
]


@lru_cache(maxsize=None)
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p ascending."""
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors is defined for n >= 1, got {n}")
    ds = [1]
    for p, e in _factorization(n):
        ds += [d * p**i for i in range(1, e + 1) for d in ds]
    return tuple(sorted(ds))


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Möbius function: (-1)^(number of prime factors) if squarefree, else 0."""
    if n < 1:
        raise ValueError(f"mobius is defined for n >= 1, got {n}")
    factors = _factorization(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) & 1 else 1


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi is defined for n >= 1, got {n}")
    for p, _ in _factorization(n):
        n -= n // p
    return n


def ramanujan_sum(d: int, b: int) -> int:
    """Ramanujan sum Φ_d(b) = Σ_{i | gcd(d,b)} μ(d/i)·i.

    Evaluated through the Möbius formula, never through complex roots of
    unity, so the result is an exact integer. gcd(d, 0) is read as d,
    which gives Φ_d(0) = φ(d).
    """
    if d < 1:
        raise ValueError(f"ramanujan_sum needs d >= 1, got {d}")
    g = math.gcd(d, b)
    return sum(mobius(d // i) * i for i in divisors(g))


def binomial(n: int, k: int) -> int:
    """C(n, k) for nonnegative n; 0 when k is out of range."""
    if n < 0:
        raise ValueError(f"binomial is defined for n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def generalized_binomial(a: Fraction | int, k: int) -> Fraction:
    """C(a, k) = a(a-1)...(a-k+1) / k! for arbitrary rational a."""
    from fractions import Fraction

    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(a) - i
    return num / math.factorial(k)


def trinomial_coeff(m: int, k: int) -> int:
    """Coefficient of x^k in (1+x+x²)^m; 0 when k is outside 0..2m."""
    if m < 0:
        raise ValueError(f"trinomial_coeff is defined for m >= 0, got {m}")
    if k < 0 or k > 2 * m:
        return 0
    return _trinomial_row(m)[k]


@lru_cache(maxsize=64)
def _trinomial_row(m: int) -> tuple[int, ...]:
    row = [1]
    for _ in range(m):
        prev = row
        row = [0] * (len(prev) + 2)
        for i, c in enumerate(prev):
            row[i] += c
            row[i + 1] += c
            row[i + 2] += c
    return tuple(row)


def is_prime(n: int) -> bool:
    """Trial-division primality check; inputs here are desk-scale."""
    return n >= 2 and _factorization(n) == ((n, 1),)
