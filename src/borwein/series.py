"""The Borwein product and its sign structure.

Expands P_n(q) = ∏_{j=0}^n (1-q^{3j+1})(1-q^{3j+2}), decomposes it as
A(q³) - q·B(q³) - q²·C(q³), checks the conjectured sign pattern
(a_j ≥ 0 when 3|j, a_j ≤ 0 otherwise), evaluates the alternating
Gaussian-binomial form of A, and accumulates the residue-class partial
sums whose strict positivity at b ≡ 0 (mod 3), the class of 0 less its
leading coefficient, is the claim under test.
partial_sum_violations states that claim once, for both routes to the
sums: the folded expansion here and the signed counts of modcount.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, sub

from .qpoly import IntPolynomial, ProductSpec, expand_product, gaussian_binomial
from .report import ReportDocument, Violation, new_report

__all__ = [
    "BorweinSeries",
    "TripleDecomposition",
    "expand_borwein",
    "decompose_abc",
    "check_sign_pattern",
    "sign_violations",
    "a_via_qbinomial",
    "residue_partial_sums",
    "partial_sum_violations",
    "verify_partial_sums",
]


@dataclass(frozen=True)
class BorweinSeries:
    """Exact coefficients a_0..a_{3(n+1)²} of ∏_{j=0}^n (1-q^{3j+1})(1-q^{3j+2})."""

    n: int
    poly: IntPolynomial

    @property
    def degree(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class TripleDecomposition:
    """Stride-3 split A_i = a_{3i}, B_i = -a_{3i+1}, C_i = -a_{3i+2}.

    B and C carry flipped signs so the conjecture reads uniformly:
    A, B, C all have nonnegative coefficients.
    """

    a: IntPolynomial
    b: IntPolynomial
    c: IntPolynomial


def expand_borwein(n: int) -> BorweinSeries:
    """Expand the product for index n; degree is exactly 3(n+1)²."""
    if n < 0:
        raise ValueError(f"expand_borwein needs n >= 0, got {n}")
    spec = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=n)
    return BorweinSeries(n=n, poly=expand_product(spec))


def decompose_abc(s: BorweinSeries) -> TripleDecomposition:
    cs = s.poly.coeffs
    return TripleDecomposition(
        a=IntPolynomial(cs[0::3]),
        b=IntPolynomial([-v for v in cs[1::3]]),
        c=IntPolynomial([-v for v in cs[2::3]]),
    )


def sign_violations(
    poly: IntPolynomial, modulus: int, n: int, kind: str = "sign"
) -> list[Violation]:
    """Indices where the mod-`modulus` sign pattern fails.

    Expected: coefficient ≥ 0 at exponents divisible by the modulus,
    ≤ 0 elsewhere. Each residue class is first checked by the extreme of
    one slice; the coefficients are walked one by one only when some
    class fails, so violations come out in ascending exponent order.
    """
    cs = poly.coeffs
    for r in range(modulus):
        cls = cs[r::modulus]
        if cls and (min(cls) < 0 if r == 0 else max(cls) > 0):
            break
    else:
        return []
    return [
        Violation(
            kind=kind,
            location={"n": n, "exponent": j},
            value=c,
            expected="<=0" if j % modulus else ">=0",
        )
        for j, c in enumerate(cs)
        if (c > 0 if j % modulus else c < 0)
    ]


def check_sign_pattern(s: BorweinSeries) -> list[Violation]:
    """Conjectured pattern: a_j ≥ 0 when 3 | j, a_j ≤ 0 otherwise.

    Returns the violations in ascending exponent order; [] means it holds.
    """
    return sign_violations(s.poly, 3, s.n)


def a_via_qbinomial(m: int) -> IntPolynomial:
    """A-polynomial for m factor-pairs as an alternating q-binomial sum.

    Σ_{k=-⌊m/3⌋}^{⌊m/3⌋} (-1)^k q^{k(9k-1)/2} [2m; m+3k]_q, which equals
    the A-component of the product with n = m-1. The term exponent
    k(9k-1)/2 is 4 at k = 1 and 5 at k = -1.
    """
    if m < 1:
        raise ValueError(f"a_via_qbinomial needs m >= 1, got {m}")
    bound = m // 3
    # term k has degree m² - 9k² and shift k(9k-1)/2, so it ends at
    # m² - k(9k+1)/2 <= m²: every term fits in the k = 0 term's length
    acc = [0] * (m * m + 1)
    for k in range(-bound, bound + 1):
        cs = gaussian_binomial(2 * m, m + 3 * k).coeffs
        shift = k * (9 * k - 1) // 2
        end = shift + len(cs)
        acc[shift:end] = map(sub if k & 1 else add, acc[shift:end], cs)
    return IntPolynomial(acc)


def residue_partial_sums(s: BorweinSeries) -> tuple[int, ...]:
    """Column sums of a_j over residue classes j ≡ b (mod N), N = 3(n+1)."""
    N = 3 * (s.n + 1)
    sums = [0] * N
    cs = s.poly.coeffs
    for b in range(N):
        sums[b] = sum(cs[b::N])
    return tuple(sums)


def partial_sum_violations(sums: Sequence[int], n: int, kind: str) -> list[Violation]:
    """The paper's claim on sums[b], b mod N: its sum S(b) at every 3 | b is > 0.

    The paper sums a_b + a_{b+N} + ... + a_{b+nN}, n + 1 terms. At
    b = 3k with 1 ≤ k ≤ n that is the whole class, S(b) = sums[b]. The
    class of 0 also holds the leading coefficient a_{3(n+1)²} = 1, one
    term past the paper's sum, so S(0) = sums[0] - 1. One violation of
    the given kind, with value S(b), per failing entry, in ascending
    residue order; entries at 3 ∤ b are never flagged.
    """
    claimed = [sums[b] - (b == 0) for b in range(0, len(sums), 3)]
    return [
        Violation(kind=kind, location={"n": n, "residue": 3 * k}, value=s, expected=">0")
        for k, s in enumerate(claimed)
        if s <= 0
    ]


def verify_partial_sums(n: int) -> ReportDocument:
    """Check strict positivity of the paper's sums at residues b with 3 | b.

    The full vector is recorded so it can be cross-checked against the
    independent signed subset-sum evaluators. Entries at 3 ∤ b are
    observed to be negative but that is recorded, not asserted.
    """
    doc = new_report("partial-sums", {"n": n})
    sums = residue_partial_sums(expand_borwein(n))
    doc.violations = partial_sum_violations(sums, n, "nonpositive-partial-sum")
    doc.data["partial_sums"] = list(sums)
    doc.data["negative_elsewhere"] = all(
        sums[b] < 0 for b in range(len(sums)) if b % 3
    )
    return doc.finish()
