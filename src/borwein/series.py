"""The Borwein product and its sign structure.

Expands P_n(q) = ∏_{j=0}^n (1-q^{3j+1})(1-q^{3j+2}), decomposes it as
A(q³) - q·B(q³) - q²·C(q³), checks the conjectured sign pattern
(a_j ≥ 0 when 3|j, a_j ≤ 0 otherwise), evaluates the alternating
Gaussian-binomial form of A, and accumulates the residue-class partial
sums whose strict positivity at b ≡ 0 (mod 3), the class of 0 less its
leading coefficient, is the claim under test.
partial_sum_violations states that claim once, for both routes to the
sums: the folded expansion here and the signed counts of modcount.

Each claim function checks one point and returns its report:
verify_sign_pattern, verify_partial_sums, verify_identity and
verify_conjecture23. expand_product grows an index's products from the
previous index's, so an ascending range of points chains with no code
here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, sub

from .qpoly import IntPolynomial, ProductSpec, eval_at, expand_product, gaussian_binomial
from .report import CrossCheck, ReportDocument, Violation, new_report

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
    "verify_sign_pattern",
    "verify_partial_sums",
    "verify_identity",
    "verify_conjecture23",
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


def verify_sign_pattern(n: int) -> ReportDocument:
    """Sign pattern plus the structural facts for a single n.

    expand_product mirrors the upper half of every product, fresh or
    grown from the previous index, so `palindromic` holds by
    construction: what backs it is expand_product's check that the
    terms it computes past the midpoint equal their mirrors.
    """
    doc = new_report("verify", {"n": n})
    s = expand_borwein(n)
    doc.violations.extend(check_sign_pattern(s))
    expected_degree = 3 * (n + 1) * (n + 1)
    doc.cross_checks.append(
        CrossCheck("degree", str(expected_degree), str(s.degree))
    )
    doc.cross_checks.append(
        CrossCheck("endpoints", "1,1", f"{s.poly[0]},{s.poly[s.degree]}")
    )
    doc.cross_checks.append(
        CrossCheck("palindromic", "True", str(s.poly.is_palindromic()))
    )
    doc.cross_checks.append(CrossCheck("value_at_1", "0", str(eval_at(s.poly, 1))))
    doc.data["degree"] = s.degree
    return doc.finish()


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


def verify_identity(m: int) -> ReportDocument:
    """Alternating q-binomial sum vs the A-component of the product."""
    doc = new_report("identity", {"m": m})
    via_product = decompose_abc(expand_borwein(m - 1)).a
    via_binomials = a_via_qbinomial(m)
    if via_binomials == via_product:
        doc.cross_checks.append(CrossCheck("a_polynomial", "match", "match"))
    else:
        bad = next(
            e
            for e in range(max(len(via_binomials), len(via_product)))
            if via_binomials[e] != via_product[e]
        )
        doc.cross_checks.append(
            CrossCheck(
                "a_polynomial",
                "match",
                f"mismatch at exponent {bad}: {via_binomials[bad]} != {via_product[bad]}",
            )
        )
    doc.data["degree"] = via_product.degree
    return doc.finish()


def verify_conjecture23(n: int) -> ReportDocument:
    """Sign sweeps for the squared (mod 3) and mod-5 product variants."""
    doc = new_report("conjecture23", {"n": n})
    squared = expand_product(
        ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=n, multiplicity=2)
    )
    mod5 = expand_product(
        ProductSpec(modulus=5, residues=frozenset({1, 2, 3, 4}), upper_index=n)
    )
    doc.violations.extend(sign_violations(squared, 3, n, kind="sign-squared"))
    doc.violations.extend(sign_violations(mod5, 5, n, kind="sign-mod5"))
    doc.data["squared_degree"] = squared.degree
    doc.data["mod5_degree"] = mod5.degree
    return doc.finish()
