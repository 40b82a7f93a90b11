"""Signed subset-sum counting over Z_N for D = Z_N without 3Z_N.

For N = 3(n+1), D = {a in Z_N : 3 does not divide a} has 2N/3 elements.
M(k, b) counts k-subsets of D summing to b mod N; the signed count
M(b) = Σ_k (-1)^k M(k, b) equals the residue-class partial sums of the
Borwein product, and the claim under test is M(b) > 0 whenever 3 | b
(M(0) > 1 at b = 0, where the paper's sum leaves out the leading term).

Three independent evaluators are kept deliberately separate:

* a knapsack DP over the elements of D (the reference),
* exhaustive subset enumeration (|D| <= 24 only): every subset of D
  counted once, as a pair of subsets walked directly in the two halves
  of D (meet in the middle),
* an exact divisor-grouped closed form: characters of Z_N of a fixed
  order d all produce the same elementary-symmetric generating
  polynomial G_d(t), a power of a sparse closed-form base, and the
  character sum collapses to Ramanujan sums c_d, so row k of the table
  is (1/N) Σ_{d|N} [t^k] G_d(t) · (c_d(0), ..., c_d(N-1)), a sum of one
  Ramanujan row per divisor, with the division by N exact. Its
  single-value route, divisor_formula_eval, sums over k first: one
  weight G_d(-1) per divisor gives the whole signed vector M.

A fourth evaluator, literal_closed_form, returns the values of a
published closed form taken verbatim (main term 2·3^{N/3}/N plus a
divisor correction, one binomial per divisor by the hockey-stick
identity) at every 3 | b. Its divisor weights differ from the exact
ones, so it is report-only: its discrepancies are recorded as data.

Every evaluator takes n alone and only returns values. cross_validate
makes every comparison, at every b, on one path (_first_difference),
and alone raises OracleMismatchError; the claim itself is
series.partial_sum_violations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, ne, sub
from typing import TYPE_CHECKING

from .exactmath import divisors, generalized_binomial, ramanujan_sum
from .qpoly import IntPolynomial, InexactDivisionError, eval_at, pow_trunc
from .report import CrossCheck, ReportDocument, new_report
from .series import expand_borwein, partial_sum_violations, residue_partial_sums

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CapacityError",
    "OracleMismatchError",
    "SignedCountTable",
    "dp_signed_counts",
    "enumerate_signed_counts",
    "character_class_polynomial",
    "divisor_formula_eval",
    "divisor_formula_table",
    "literal_closed_form",
    "cross_validate",
]

ENUMERATION_CAPACITY = 24
_Rows = Sequence[Sequence[int]]


class CapacityError(ValueError):
    """Brute-force enumeration refused: |D| over 24, i.e. past n = 11.

    The bound keeps the set of points that cross-check against
    enumeration fixed, and with it the report bytes; the
    meet-in-the-middle walk itself would stay cheap well beyond it.
    """


class OracleMismatchError(ArithmeticError):
    """Two evaluators that must agree exactly did not.

    An ArithmeticError, like qpoly's InexactDivisionError and
    MirrorMismatchError, so one handler covers every internal failure.
    """


@dataclass(frozen=True)
class SignedCountTable:
    """All counts for one n: counts[k][b] = M(k, b), signed[b] = M(b)."""

    n: int
    counts: tuple[tuple[int, ...], ...]
    signed: tuple[int, ...]

    @property
    def N(self) -> int:
        return 3 * (self.n + 1)


def _table(n: int, counts: list[list[int]]) -> SignedCountTable:
    """Freeze counts[k][b] = M(k, b) with its alternating row sum M(b)."""
    signed = [0] * len(counts[0])
    for k, row in enumerate(counts):
        signed = list(map(sub if k & 1 else add, signed, row))
    return SignedCountTable(n=n, counts=tuple(map(tuple, counts)), signed=tuple(signed))


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
    return _table(n, counts)


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
    return _table(n, counts)


@lru_cache(maxsize=None)
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


def _over_N(N: int, k: int | None, b: int, total: int) -> int:
    """The character sum at (k, b) divided by N; a remainder raises."""
    quotient, remainder = divmod(total, N)
    if remainder:
        raise InexactDivisionError(
            f"character sum {total} not divisible by N={N} at (k={k}, b={b})"
        )
    return quotient


def divisor_formula_eval(n: int) -> tuple[int, ...]:
    """Closed-form signed counts (M(0), ..., M(N-1)).

    M(k, b) = (1/N) Σ_{d|N} c_d(b)·[t^k] G_d(t), with c_d the Ramanujan
    sum; summing over k with alternating signs turns [t^k] G_d into
    G_d(-1). That weight is evaluated once per divisor, and c_d(b) is
    asked for only where it is nonzero. Every division by N must be
    exact; a remainder raises.
    """
    if n < 0:
        raise ValueError(f"divisor_formula_eval needs n >= 0, got {n}")
    N = 3 * (n + 1)
    weights = {d: eval_at(character_class_polynomial(N, d), -1) for d in divisors(N)}
    nonzero = [(d, w) for d, w in weights.items() if w]
    return tuple(
        _over_N(N, None, b, sum(ramanujan_sum(d, b) * w for d, w in nonzero))
        for b in range(N)
    )


def divisor_formula_table(n: int) -> SignedCountTable:
    """Whole table via the divisor formula; same contract as the DP.

    Row k is (1/N)·Σ_{d|N} [t^k] G_d · (c_d(0), ..., c_d(N-1)): a sum of
    Ramanujan rows, one per divisor, with every entry divided exactly.
    """
    N = 3 * (n + 1)
    rows = [
        (character_class_polynomial(N, d), [ramanujan_sum(d, b) for b in range(N)])
        for d in divisors(N)
    ]
    counts: list[list[int]] = []
    for k in range(2 * N // 3 + 1):
        totals = [0] * N
        for g, ramanujan_row in rows:
            if g[k]:
                totals = list(map(add, totals, map(g[k].__mul__, ramanujan_row)))
        counts.append([_over_N(N, k, b, total) for b, total in enumerate(totals)])
    return _table(n, counts)


def literal_closed_form(n: int) -> tuple[Fraction, ...]:
    """The literal closed form 2·3^{N/3}/N + (1/N)·Σ_{d|N, d∉{1,3}} ..., exactly.

    Returns its values at b = 0, 3, ..., N-3, the residues of the claim
    it annotates. As printed, divisor d adds c_d(b) times the inner sum
    Σ_{k = 0, d, ..., 2N/3} C(2N/(3d) + k/d - 1, k/d); the printed form
    leaves open that k runs over the multiples of d in [0, 2N/3] and that
    a fractional top argument takes the generalized (rational) binomial.
    With m = 2N/(3d), K = ⌊m⌋ and j = k/d, the hockey-stick identity
    Σ_{j=0}^{K} C(m-1+j, j) = C(m+K, K) holds for rational m too, so each
    inner sum is one binomial, C(2m, m) when m is an integer. The exact
    evaluators weigh divisor d by 3^{N/d}·[3 | d] instead; with those
    weights this shape equals divisor_formula_eval. Report-only: kept
    verbatim though it disagrees from n = 1 on (n=1, b=0 gives 13/3, not 4).
    """
    if n < 0:
        raise ValueError(f"literal_closed_form needs n >= 0, got {n}")
    from fractions import Fraction

    N = 3 * (n + 1)
    inner = []
    for d in divisors(N):
        if d not in (1, 3):
            K = 2 * N // (3 * d)
            inner.append((d, generalized_binomial(Fraction(2 * N, 3 * d) + K, K)))
    main = Fraction(2 * 3 ** (N // 3), N)
    return tuple(
        main + sum((ramanujan_sum(d, b) * s for d, s in inner), Fraction(0)) / N
        for b in range(0, N, 3)
    )


def _table_shape(t: SignedCountTable) -> str:
    lengths = sorted({len(row) for row in t.counts})
    return f"{len(t.counts)} rows of length {'/'.join(map(str, lengths))}"


def _first_difference(what: str, N: int, left: _Rows, right: _Rows) -> None:
    """Raise OracleMismatchError at the first entry where two tables differ.

    Entry b of every row sits at residue b. A signed vector is a table
    of one row, and its location names b alone.
    """
    for k, rows in enumerate(zip(left, right)):
        diff = list(map(ne, *rows))
        if True in diff:
            b = diff.index(True)
            where = f"k={k}, b={b}" if len(left) > 1 else f"b={b}"
            raise OracleMismatchError(
                f"{what} disagree at (N={N}, {where}): {rows[0][b]} != {rows[1][b]}"
            )


def cross_validate(n: int) -> ReportDocument:
    """Pit the evaluators against each other and test the positivity claim.

    Exact-equality checks (any failure raises OracleMismatchError):
    DP table == divisor-formula table, DP == enumeration while within
    capacity, and the DP's signed vector == the residue partial sums of
    the Borwein product == divisor_formula_eval(n), at every b.
    The claim M(b) > 0 for 3 | b goes to violations; literal-closed-form
    discrepancies against divisor_formula_eval go to data.

    Each CrossCheck is appended only after _first_difference has passed
    on the values it names, so the report's cross_checks record the
    agreement that was checked; they cannot fail.
    """
    doc = new_report("modcount", {"n": n})
    N = 3 * (n + 1)
    dp = dp_signed_counts(n)
    tables = [("dp_vs_divisor_formula", "divisor-formula", divisor_formula_table(n))]
    if 2 * N // 3 <= ENUMERATION_CAPACITY:
        tables.append(("dp_vs_enumeration", "enumeration", enumerate_signed_counts(n)))
    else:
        doc.data["enumeration"] = "skipped (over capacity)"
    for check, name, table in tables:
        if [len(row) for row in dp.counts] != [len(row) for row in table.counts]:
            raise OracleMismatchError(
                f"dp vs {name} differ in shape at N={N}: "
                f"{_table_shape(dp)} != {_table_shape(table)}"
            )
        _first_difference(f"dp vs {name}", N, dp.counts, table.counts)
        doc.cross_checks.append(
            CrossCheck(check, str(list(dp.signed)), str(list(table.signed)))
        )
    sums = residue_partial_sums(expand_borwein(n))
    _first_difference("partial sums vs dp signed", N, [sums], [dp.signed])
    doc.cross_checks.append(
        CrossCheck("signed_vs_partial_sums", str(list(dp.signed)), str(list(sums)))
    )
    oracles = divisor_formula_eval(n)
    _first_difference("divisor-formula eval vs dp signed", N, [oracles], [dp.signed])
    doc.violations = partial_sum_violations(dp.signed, n, "nonpositive-signed-count")
    doc.data["signed"] = list(dp.signed)
    doc.data["literal_form"] = [
        {"b": b, "value": str(v), "oracle": m, "discrepancy": str(v - m)}
        for b, v, m in zip(range(0, N, 3), literal_closed_form(n), oracles[::3])
    ]
    return doc.finish()
