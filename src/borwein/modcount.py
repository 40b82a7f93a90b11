"""Signed subset-sum counting over Z_N for D = Z_N without 3Z_N.

For N = 3(n+1), D = {a in Z_N : 3 does not divide a} has 2N/3 elements.
M(k, b) counts k-subsets of D summing to b mod N; the signed count
M(b) = Σ_k (-1)^k M(k, b) equals the residue-class partial sums of the
Borwein product, and the claim under test is M(b) > 0 whenever 3 | b.

Three independent evaluators are kept deliberately separate:

* a knapsack DP over the elements of D (the reference),
* exhaustive subset enumeration (|D| <= 24 only): every subset of D
  counted once, as a pair of subsets walked directly in the two halves
  of D (meet in the middle),
* an exact divisor-grouped closed form: characters of Z_N of a fixed
  order d all produce the same elementary-symmetric generating
  polynomial G_d(t), a power of a sparse closed-form base, and the
  character sum collapses to Ramanujan sums, so
  M(k, b) = (1/N) Σ_{d|N} Φ_d(b) · [t^k] G_d(t) with the division by N
  exact over the integers.

A fourth evaluator, literal_closed_form, reproduces a published closed
form verbatim (main term 2·3^{N/3}/N plus a divisor correction). It
disagrees with the oracles for small N, so it is report-only: its
discrepancies are recorded as data and never gate anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Callable

from .exactmath import binomial, divisors, generalized_binomial, ramanujan_sum
from .qpoly import IntPolynomial, InexactDivisionError, eval_at, pow_trunc
from .report import CrossCheck, ReportDocument, Violation, new_report
from .series import expand_borwein, residue_partial_sums

__all__ = [
    "CapacityError",
    "OracleMismatchError",
    "SignedCountTable",
    "dp_signed_counts",
    "enumerate_signed_counts",
    "character_class_polynomial",
    "divisor_formula_eval",
    "divisor_formula_table",
    "LiteralFormEvaluation",
    "literal_closed_form",
    "cross_validate",
]

ENUMERATION_CAPACITY = 24


class CapacityError(ValueError):
    """Brute-force enumeration refused: |D| over 24, i.e. past n = 11.

    The bound keeps the set of points that cross-check against
    enumeration fixed, and with it the report bytes; the
    meet-in-the-middle walk itself would stay cheap well beyond it.
    """


class OracleMismatchError(Exception):
    """Two evaluators that must agree exactly did not."""


@dataclass(frozen=True)
class SignedCountTable:
    """All counts for one n: counts[k][b] = M(k, b), signed[b] = M(b)."""

    n: int
    counts: tuple[tuple[int, ...], ...]
    signed: tuple[int, ...]

    @property
    def N(self) -> int:
        return 3 * (self.n + 1)


def _signed_from_counts(counts: list[list[int]], N: int) -> tuple[int, ...]:
    signed = [0] * N
    for k, row in enumerate(counts):
        if k & 1:
            for b in range(N):
                signed[b] -= row[b]
        else:
            for b in range(N):
                signed[b] += row[b]
    return tuple(signed)


def dp_signed_counts(n: int) -> SignedCountTable:
    """Reference evaluator: 0/1-knapsack DP over the elements of D.

    Elements are taken in ascending order with a k-major table, updating
    subset sizes downward so each element is used at most once.
    """
    if n < 0:
        raise ValueError(f"dp_signed_counts needs n >= 0, got {n}")
    N = 3 * (n + 1)
    elements = [a for a in range(N) if a % 3]
    size = len(elements)
    counts = [[0] * N for _ in range(size + 1)]
    counts[0][0] = 1
    for idx, a in enumerate(elements, start=1):
        for k in range(min(idx, size), 0, -1):
            prev = counts[k - 1]
            rotated = prev[-a:] + prev[:-a]
            counts[k] = list(map(add, counts[k], rotated))
    return SignedCountTable(
        n=n,
        counts=tuple(tuple(row) for row in counts),
        signed=_signed_from_counts(counts, N),
    )


def _subset_sum_histogram(part: list[int], N: int) -> list[list[int]]:
    """hist[k][s] = number of k-subsets of part whose sum is s mod N.

    Walks every subset once by bitmask: a mask's sum is the sum of the
    mask without its lowest bit plus that bit's element.
    """
    hist = [[0] * N for _ in range(len(part) + 1)]
    hist[0][0] = 1
    sums = [0] * (1 << len(part))
    for mask in range(1, 1 << len(part)):
        low = mask & -mask
        s = sums[mask ^ low] + part[low.bit_length() - 1]
        if s >= N:
            s -= N
        sums[mask] = s
        hist[mask.bit_count()][s] += 1
    return hist


def enumerate_signed_counts(n: int) -> SignedCountTable:
    """Brute-force oracle: every subset of D, counted by meet in the middle.

    D splits into a low half and a high half. Every subset of each half
    is walked directly, giving histograms over (size, sum mod N); a
    subset of D is exactly one (low part, high part) pair, so
    M(k, b) = Σ H_low[k1][s1] · H_high[k - k1][b - s1]. That is
    2·2^(|D|/2) walked subsets in place of 2^|D|, and no recurrence
    over the elements of D as in the DP.

    Refuses when |D| = 2N/3 exceeds 24. The guard fixes which points
    report the dp_vs_enumeration cross-check (n <= 11), so it keeps the
    report shape stable; run time no longer needs it.
    """
    if n < 0:
        raise ValueError(f"enumerate_signed_counts needs n >= 0, got {n}")
    N = 3 * (n + 1)
    elements = [a for a in range(N) if a % 3]
    size = len(elements)
    if size > ENUMERATION_CAPACITY:
        raise CapacityError(
            f"enumeration over 2^{size} subsets exceeds the 2^{ENUMERATION_CAPACITY} guard"
        )
    half = size // 2
    low = _subset_sum_histogram(elements[:half], N)
    high = _subset_sum_histogram(elements[half:], N)
    counts = [[0] * N for _ in range(size + 1)]
    for k1, low_row in enumerate(low):
        for s1, c in enumerate(low_row):
            if not c:
                continue
            for k2, high_row in enumerate(high):
                # rotated[b] = high_row[(b - s1) % N]
                rotated = high_row[-s1:] + high_row[:-s1]
                counts[k1 + k2] = list(
                    map(add, counts[k1 + k2], map(c.__mul__, rotated))
                )
    return SignedCountTable(
        n=n,
        counts=tuple(tuple(row) for row in counts),
        signed=_signed_from_counts(counts, N),
    )


@lru_cache(maxsize=None)
def _class_polynomial(N: int, d: int) -> IntPolynomial:
    # In x = -t the χ-values over D give (1 - x^d)^(2N/(3d)) when 3 ∤ d,
    # and (1 + x^{d/3} + x^{2d/3})^(N/d) when 3 | d: the full orbit
    # (1 - x^d)^(N/d) less the 3Z_N part, whose restricted character
    # has order d/gcd(d, 3).
    if d % 3:
        base = [1] + [0] * (d - 1) + [-((-1) ** d)]
        return pow_trunc(IntPolynomial(base), 2 * N // (3 * d))
    e = d // 3
    base = [1] + [0] * (e - 1) + [(-1) ** e] + [0] * (e - 1) + [1]
    return pow_trunc(IntPolynomial(base), N // d)


def character_class_polynomial(N: int, d: int) -> IntPolynomial:
    """G_d(t) = ∏_{a in D} (1 + χ(a)·t) for any character χ of Z_N of order d.

    The product depends only on the order d, not on the choice of χ, and
    its coefficients are plain integers. It is built without complex
    numbers as one power of a sparse closed-form base, of degree 2N/3.
    """
    if N < 3 or N % 3:
        raise ValueError(f"N must be a positive multiple of 3, got {N}")
    if d < 1 or N % d:
        raise ValueError(f"d must divide N = {N}, got {d}")
    return _class_polynomial(N, d)


def _character_sum(
    N: int, k: int | None, b: int, weights: dict[int, int], phi: Callable[[int], int]
) -> int:
    """(1/N)·Σ_{d|N} Φ_d(b)·w_d, with phi(d) = Φ_d(b) asked only where w_d ≠ 0.

    The division by N must be exact; a remainder raises.
    """
    total = sum(phi(d) * w for d, w in weights.items() if w)
    quotient, remainder = divmod(total, N)
    if remainder:
        raise InexactDivisionError(
            f"character sum {total} not divisible by N={N} at (k={k}, b={b})"
        )
    return quotient


def divisor_formula_eval(n: int, b: int) -> int:
    """Closed-form signed count M(b).

    M(k, b) = (1/N) Σ_{d|N} Φ_d(b)·[t^k] G_d(t); summing over k with
    alternating signs turns [t^k] G_d into G_d(-1). The division by N
    must be exact; a remainder raises.
    """
    if n < 0:
        raise ValueError(f"divisor_formula_eval needs n >= 0, got {n}")
    N = 3 * (n + 1)
    weights = {d: eval_at(_class_polynomial(N, d), -1) for d in divisors(N)}
    return _character_sum(N, None, b, weights, lambda d: ramanujan_sum(d, b))


def divisor_formula_table(n: int) -> SignedCountTable:
    """Whole table via the divisor formula; same contract as the DP."""
    N = 3 * (n + 1)
    class_polys = {d: _class_polynomial(N, d) for d in divisors(N)}
    phi = [{d: ramanujan_sum(d, b) for d in class_polys} for b in range(N)]
    counts: list[list[int]] = []
    for k in range(2 * N // 3 + 1):
        weights = {d: g[k] for d, g in class_polys.items()}
        counts.append(
            [_character_sum(N, k, b, weights, phi[b].__getitem__) for b in range(N)]
        )
    return SignedCountTable(
        n=n,
        counts=tuple(tuple(row) for row in counts),
        signed=_signed_from_counts(counts, N),
    )


@dataclass(frozen=True)
class LiteralFormEvaluation:
    """Result of the report-only literal closed form at (n, b).

    value = main_term + correction, all exact rationals; oracle is the
    DP's M(b) and discrepancy = value - oracle. Conventions applied
    (the printed form leaves them open): the inner sum runs over
    multiples k of d in [0, 2N/3], and binomials with fractional top
    argument 2N/(3d) + k/d - 1 use the generalized (rational) binomial.
    """

    n: int
    b: int
    main_term: Fraction
    correction: Fraction
    oracle: int

    @property
    def value(self) -> Fraction:
        return self.main_term + self.correction

    @property
    def discrepancy(self) -> Fraction:
        return self.value - self.oracle


@lru_cache(maxsize=None)
def _literal_inner_sum(N: int, d: int) -> Fraction:
    """Σ_{k = 0, d, ..., 2N/3} C(2N/(3d) + k/d - 1, k/d): the same for every b."""
    inner = Fraction(0)
    for j in range(2 * N // 3 // d + 1):
        top = Fraction(2 * N, 3 * d) + j - 1
        if top.denominator == 1 and top >= 0:
            inner += binomial(int(top), j)
        else:
            inner += generalized_binomial(top, j)
    return inner


def literal_closed_form(n: int, b: int) -> LiteralFormEvaluation:
    """Evaluate the literal closed form 2·3^{N/3}/N + (1/N)·Σ_{d|N, d∉{1,3}} ...

    Report-only comparator: kept verbatim even though it disagrees with
    the exact evaluators for small N (e.g. n=1, b=0 gives 13/3 against
    the true 4). Requires 3 | b, matching the claim it annotates.
    """
    if n < 0:
        raise ValueError(f"literal_closed_form needs n >= 0, got {n}")
    if b % 3:
        raise ValueError(f"literal_closed_form is stated for 3 | b, got b={b}")
    N = 3 * (n + 1)
    main = Fraction(2 * 3 ** (N // 3), N)
    correction = Fraction(0)
    for d in divisors(N):
        if d in (1, 3):
            continue
        correction += Fraction(ramanujan_sum(d, b)) * _literal_inner_sum(N, d)
    correction /= N
    oracle = divisor_formula_eval(n, b)
    return LiteralFormEvaluation(
        n=n, b=b, main_term=main, correction=correction, oracle=oracle
    )


def _table_shape(t: SignedCountTable) -> str:
    lengths = sorted({len(row) for row in t.counts})
    return f"{len(t.counts)} rows of length {'/'.join(map(str, lengths))}"


def _compare_tables(
    name_a: str, a: SignedCountTable, name_b: str, b: SignedCountTable
) -> None:
    N = a.N
    if [len(row) for row in a.counts] != [len(row) for row in b.counts]:
        raise OracleMismatchError(
            f"{name_a} vs {name_b} differ in shape at N={N}: "
            f"{_table_shape(a)} != {_table_shape(b)}"
        )
    for k, (row_a, row_b) in enumerate(zip(a.counts, b.counts)):
        if row_a != row_b:
            bad = next(i for i in range(N) if row_a[i] != row_b[i])
            raise OracleMismatchError(
                f"{name_a} vs {name_b} disagree at (N={N}, k={k}, b={bad}): "
                f"{row_a[bad]} != {row_b[bad]}"
            )


def cross_validate(n: int) -> ReportDocument:
    """Pit the evaluators against each other and test the positivity claim.

    Exact-equality checks (any failure raises OracleMismatchError):
    DP table == divisor-formula table, DP == enumeration while within
    capacity, and the signed vector == the residue partial sums of the
    Borwein product. The claim M(b) > 0 for 3 | b goes to violations;
    literal-closed-form discrepancies go to data.
    """
    doc = new_report("modcount", {"n": n})
    N = 3 * (n + 1)
    dp = dp_signed_counts(n)
    divisor = divisor_formula_table(n)
    _compare_tables("dp", dp, "divisor-formula", divisor)
    doc.cross_checks.append(
        CrossCheck(
            name="dp_vs_divisor_formula",
            expected=str(list(dp.signed)),
            actual=str(list(divisor.signed)),
        )
    )
    if 2 * N // 3 <= ENUMERATION_CAPACITY:
        listed = enumerate_signed_counts(n)
        _compare_tables("dp", dp, "enumeration", listed)
        doc.cross_checks.append(
            CrossCheck(
                name="dp_vs_enumeration",
                expected=str(list(dp.signed)),
                actual=str(list(listed.signed)),
            )
        )
    else:
        doc.data["enumeration"] = "skipped (over capacity)"
    sums = residue_partial_sums(expand_borwein(n))
    if sums != dp.signed:
        bad = next(i for i in range(N) if sums[i] != dp.signed[i])
        raise OracleMismatchError(
            f"partial sums vs dp signed disagree at (N={N}, b={bad}): "
            f"{sums[bad]} != {dp.signed[bad]}"
        )
    doc.cross_checks.append(
        CrossCheck(
            name="signed_vs_partial_sums",
            expected=str(list(dp.signed)),
            actual=str(list(sums)),
        )
    )
    for b in range(0, N, 3):
        if dp.signed[b] <= 0:
            doc.violations.append(
                Violation(
                    kind="nonpositive-signed-count",
                    location={"n": n, "residue": b},
                    value=dp.signed[b],
                    expected=">0",
                )
            )
    doc.data["signed"] = list(dp.signed)
    doc.data["literal_form"] = [
        {
            "b": b,
            "value": str(ev.value),
            "oracle": ev.oracle,
            "discrepancy": str(ev.discrepancy),
        }
        for b in range(0, N, 3)
        for ev in (literal_closed_form(n, b),)
    ]
    return doc.finish()
