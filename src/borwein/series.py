"""The Borwein product and its sign structure.

Expands P_n(q) = ∏_{j=0}^n (1-q^{3j+1})(1-q^{3j+2}), decomposes it as
A(q³) - q·B(q³) - q²·C(q³), checks the conjectured sign pattern
(a_j ≥ 0 when 3|j, a_j ≤ 0 otherwise), evaluates the alternating
Gaussian-binomial form of A, and accumulates the residue-class partial
sums whose strict positivity at b ≡ 0 (mod 3) is the claim under test.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    out: list[Violation] = []
    for j, c in enumerate(cs):
        if j % modulus == 0:
            if c < 0:
                out.append(
                    Violation(
                        kind=kind,
                        location={"n": n, "exponent": j},
                        value=c,
                        expected=">=0",
                    )
                )
        elif c > 0:
            out.append(
                Violation(
                    kind=kind,
                    location={"n": n, "exponent": j},
                    value=c,
                    expected="<=0",
                )
            )
    return out


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
    acc: list[int] = []
    for k in range(-bound, bound + 1):
        term = gaussian_binomial(2 * m, m + 3 * k)
        shift = k * (9 * k - 1) // 2
        sign = -1 if k & 1 else 1
        need = shift + len(term.coeffs)
        if len(acc) < need:
            acc.extend([0] * (need - len(acc)))
        for e, c in enumerate(term.coeffs, start=shift):
            acc[e] += sign * c
    return IntPolynomial(acc)


def residue_partial_sums(s: BorweinSeries) -> tuple[int, ...]:
    """Column sums of a_j over residue classes j ≡ b (mod N), N = 3(n+1)."""
    N = 3 * (s.n + 1)
    sums = [0] * N
    cs = s.poly.coeffs
    for b in range(N):
        sums[b] = sum(cs[b::N])
    return tuple(sums)


def verify_partial_sums(n: int) -> ReportDocument:
    """Check strict positivity of the partial sums at residues b with 3 | b.

    The full vector is recorded so it can be cross-checked against the
    independent signed subset-sum evaluators. Entries at 3 ∤ b are
    observed to be negative but that is recorded, not asserted.
    """
    doc = new_report("partial-sums", {"n": n})
    series = expand_borwein(n)
    sums = residue_partial_sums(series)
    for b in range(0, len(sums), 3):
        if sums[b] <= 0:
            doc.violations.append(
                Violation(
                    kind="nonpositive-partial-sum",
                    location={"n": n, "residue": b},
                    value=sums[b],
                    expected=">0",
                )
            )
    doc.data["partial_sums"] = list(sums)
    doc.data["negative_elsewhere"] = all(
        sums[b] < 0 for b in range(len(sums)) if b % 3
    )
    return doc.finish()
