"""Partition-theoretic checks for the infinite-product analogs.

The n = ∞ analog of the Borwein product for a prime p is the eta
quotient ∏_{p∤n} (1-q^n) with coefficients a_{p,j}. This module builds
the prefix a_{p,0..J} as a plain tuple, from Euler's pentagonal series
times the partition series in q^p; counts restricted partitions;
implements the two-term partition formula for a_{p,pk} (Stanley's
formula); and checks sign coherence of coefficient pairs at distance p.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .exactmath import is_prime
from .qpoly import IntPolynomial
from .report import ReportDocument, Violation, new_report

__all__ = [
    "RestrictedPartitionSpec",
    "pentagonal_series",
    "eta_quotient_coeffs",
    "restricted_partition_counts",
    "verify_stanley",
    "sign_coherence_check",
]


@dataclass(frozen=True)
class RestrictedPartitionSpec:
    """Parts are positive integers whose residue mod `modulus` is allowed.

    forbidden is reduced into [0, modulus) and deduplicated on
    construction; an empty forbidden set gives unrestricted partitions.
    """

    modulus: int
    forbidden: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(
            self, "forbidden", frozenset(r % self.modulus for r in self.forbidden)
        )

    def allows(self, part: int) -> bool:
        return part >= 1 and (part % self.modulus) not in self.forbidden


def pentagonal_series(J: int) -> IntPolynomial:
    """Euler's pentagonal series Σ_{m∈Z} (-1)^m q^{m(3m-1)/2} through degree J."""
    if J < 0:
        raise ValueError(f"pentagonal_series needs J >= 0, got {J}")
    coeffs = [0] * (J + 1)
    coeffs[0] = 1
    m = 1
    while m * (3 * m - 1) // 2 <= J:
        sign = -1 if m & 1 else 1
        coeffs[m * (3 * m - 1) // 2] += sign
        if m * (3 * m + 1) // 2 <= J:
            coeffs[m * (3 * m + 1) // 2] += sign
        m += 1
    return IntPolynomial(coeffs)


def _partition_numbers(K: int) -> list[int]:
    """p(0..K) by Euler's recurrence p(k) = -Σ_{e>=1} c_e p(k-e).

    c is the pentagonal series, whose inverse is Σ p(k) q^k; only its
    O(√K) nonzero terms enter each sum.
    """
    terms = [(e, c) for e, c in enumerate(pentagonal_series(K).coeffs) if e and c]
    parts = [1] * (K + 1)
    for k in range(1, K + 1):
        total = 0
        for e, c in terms:
            if e > k:
                break
            total -= c * parts[k - e]
        parts[k] = total
    return parts


def eta_quotient_coeffs(p: int, J: int) -> tuple[int, ...]:
    """Coefficients a_{p,0..J} of ∏_{n<=J, p∤n} (1-q^n): J+1 entries.

    Through degree J this is (q;q)_∞ / (q^p;q^p)_∞: Euler's pentagonal
    series times Σ_k p(k) q^{pk}. Each of the O(√J) pentagonal terms
    ±q^e adds the partition numbers into the exponents e, e+p, e+2p, ...,
    so the cost is O(J·√J/p) instead of a pass per factor.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if J < 0:
        raise ValueError(f"truncation must be >= 0, got {J}")
    parts = _partition_numbers(J // p)
    out = [0] * (J + 1)
    for e, c in enumerate(pentagonal_series(J).coeffs):
        if c:
            out[e::p] = map(add if c > 0 else sub, out[e::p], parts)
    return tuple(out)


def restricted_partition_counts(
    spec: RestrictedPartitionSpec, kmax: int
) -> tuple[int, ...]:
    """Vector of partition counts 0..kmax in one DP sweep over parts."""
    if kmax < 0:
        return ()
    dp = [0] * (kmax + 1)
    dp[0] = 1
    for part in range(1, kmax + 1):
        if not spec.allows(part):
            continue
        for s in range(part, kmax + 1):
            dp[s] += dp[s - part]
    return tuple(dp)


def _stanley_pieces(
    p: int,
) -> tuple[RestrictedPartitionSpec, RestrictedPartitionSpec | None, int, int]:
    """(first spec, second spec or None, derived offset, t) for a prime p."""
    if p == 2:
        raise ValueError(
            "p = 2 is unsupported: no odd-residue split of 3p exists for it"
        )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    m = 3 * p
    first = RestrictedPartitionSpec(
        modulus=m, forbidden=frozenset({0, (3 * p - 1) // 2, (3 * p + 1) // 2})
    )
    if p == 3:
        # no positive t has 3 | 3t+1, so the second subseries is absent
        return first, None, 0, 0
    t = 1 if p % 3 == 2 else 2
    second = RestrictedPartitionSpec(
        modulus=m,
        forbidden=frozenset(
            {
                0,
                ((3 - 2 * t) * p - 1) // 2 % m,
                ((3 + 2 * t) * p + 1) // 2 % m,
            }
        ),
    )
    # minimal exponent of the recentered second pentagonal subseries;
    # equals the often-quoted t(pt+1)/6 only when t = 1
    delta = (p + 1) // 6 if t == 1 else (p - 1) // 6
    return first, second, delta, t


def verify_stanley(p: int, K: int) -> ReportDocument:
    """Check Stanley's two-term partition formula for a_{p,pk}, 0 <= k <= K.

    The right-hand side is P_{≢0,(3p-1)/2,(3p+1)/2 (mod 3p)}(k) plus, for
    p > 3, the second restricted count at k - Δ (the derived offset,
    reported as `offset`) with residues ((3∓2t)p∓1)/2 reduced mod 3p.
    Both terms enter positively; the pentagonal signs are absorbed by
    the recentering.

    For p ≡ 1 (mod 3) the report also records how the often-quoted
    offset t(pt+1)/6 behaves; its first mismatch is data, not a
    violation, because the derived offset is the validated contract.
    """
    doc = new_report("stanley", {"p": p, "k_max": K})
    first, second, delta, t = _stanley_pieces(p)
    prefix = eta_quotient_coeffs(p, p * K)
    first_counts = restricted_partition_counts(first, K)
    second_counts = (
        restricted_partition_counts(second, K) if second is not None else ()
    )

    def rhs(k: int, offset: int) -> int:
        """The two-term value at k, the second term recentred by offset."""
        value = first_counts[k]
        if second is not None and k >= offset:
            value += second_counts[k - offset]
        return value

    for k in range(K + 1):
        lhs, expected = prefix[p * k], rhs(k, delta)
        if lhs != expected:
            doc.violations.append(
                Violation(
                    kind="partition-formula-mismatch",
                    location={"p": p, "k": k},
                    value=lhs,
                    expected=str(expected),
                )
            )
    doc.data["offset"] = delta
    doc.data["t"] = t
    if second is not None:
        printed_delta = t * (p * t + 1) // 6
        doc.data["quoted_offset"] = printed_delta
        if printed_delta != delta:
            witness = None
            for k in range(K + 1):
                lhs, expected = prefix[p * k], rhs(k, printed_delta)
                if lhs != expected:
                    witness = {"k": k, "lhs": lhs, "rhs": expected}
                    break
            doc.data["quoted_offset_first_mismatch"] = witness
    return doc.finish()


def sign_coherence_check(p: int, J: int) -> ReportDocument:
    """Check a_{p,j}·a_{p,j+p} >= 0 for all 0 <= j <= J-p."""
    doc = new_report("coherence", {"p": p, "j_max": J})
    cs = eta_quotient_coeffs(p, J)
    for j in range(J - p + 1):
        if cs[j] * cs[j + p] < 0:
            doc.violations.append(
                Violation(
                    kind="sign-incoherence",
                    location={"p": p, "exponent": j},
                    value=cs[j] * cs[j + p],
                    expected=">=0",
                )
            )
    doc.data["truncation"] = J
    return doc.finish()
