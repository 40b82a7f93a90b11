"""Partition-theoretic checks for the infinite-product analogs.

The n = ∞ analog of the Borwein product for a prime p is the eta
quotient ∏_{p∤n} (1-q^n) with coefficients a_{p,j}. This module builds
the prefix a_{p,0..J} from Euler's pentagonal series times the
partition series in q^p; counts partitions whose parts avoid residues
mod a modulus; implements the two-term partition formula for a_{p,pk}
(Stanley's formula); and checks sign coherence of coefficient pairs at
distance p. Series and counts go in and out as plain integers and
tuples of them, so the module loads no polynomial type.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import add, sub

from .exactmath import is_prime
from .report import ReportDocument, Violation, new_report

__all__ = [
    "pentagonal_series",
    "eta_quotient_coeffs",
    "restricted_partition_counts",
    "verify_stanley",
    "sign_coherence_check",
]


def pentagonal_series(J: int) -> tuple[int, ...]:
    """Euler's pentagonal series Σ_{m∈Z} (-1)^m q^{m(3m-1)/2}: J+1 coefficients."""
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
    return tuple(coeffs)


def _partition_numbers(K: int) -> list[int]:
    """p(0..K) by Euler's recurrence p(k) = -Σ_{e>=1} c_e p(k-e).

    c is the pentagonal series, whose inverse is Σ p(k) q^k; only its
    O(√K) nonzero terms enter each sum.
    """
    terms = [(e, c) for e, c in enumerate(pentagonal_series(K)) if e and c]
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
    for e, c in enumerate(pentagonal_series(J)):
        if c:
            out[e::p] = map(add if c > 0 else sub, out[e::p], parts)
    return tuple(out)


def restricted_partition_counts(
    modulus: int, forbidden: Iterable[int], kmax: int
) -> tuple[int, ...]:
    """Partition counts 0..kmax in one DP sweep over parts.

    A part is allowed when its residue mod `modulus` is not in
    `forbidden`, which is read mod `modulus`; an empty set gives
    unrestricted partitions.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    forbidden = {r % modulus for r in forbidden}
    if kmax < 0:
        return ()
    dp = [0] * (kmax + 1)
    dp[0] = 1
    for part in range(1, kmax + 1):
        if part % modulus in forbidden:
            continue
        for s in range(part, kmax + 1):
            dp[s] += dp[s - part]
    return tuple(dp)


def _stanley_pieces(p: int) -> tuple[set[int], set[int] | None, int, int]:
    """(first count's forbidden residues mod 3p, second's or None, derived offset, t)."""
    if p == 2:
        raise ValueError(
            "p = 2 is unsupported: no odd-residue split of 3p exists for it"
        )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    first = {0, (3 * p - 1) // 2, (3 * p + 1) // 2}
    if p == 3:
        # no positive t has 3 | 3t+1, so the second subseries is absent
        return first, None, 0, 0
    t = 1 if p % 3 == 2 else 2
    second = {0, ((3 - 2 * t) * p - 1) // 2, ((3 + 2 * t) * p + 1) // 2}
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
    first_counts = restricted_partition_counts(3 * p, first, K)
    second_counts = (
        restricted_partition_counts(3 * p, second, K) if second is not None else ()
    )

    def mismatches(offset: int) -> Iterator[dict[str, int]]:
        """{k, lhs, rhs} wherever the prefix and the two-term value differ."""
        for k in range(K + 1):
            rhs = first_counts[k]
            if second is not None and k >= offset:
                rhs += second_counts[k - offset]
            if prefix[p * k] != rhs:
                yield {"k": k, "lhs": prefix[p * k], "rhs": rhs}

    for m in mismatches(delta):
        doc.violations.append(
            Violation(
                kind="partition-formula-mismatch",
                location={"p": p, "k": m["k"]},
                value=m["lhs"],
                expected=str(m["rhs"]),
            )
        )
    doc.data["offset"] = delta
    doc.data["t"] = t
    if second is not None:
        printed_delta = t * (p * t + 1) // 6
        doc.data["quoted_offset"] = printed_delta
        if printed_delta != delta:
            doc.data["quoted_offset_first_mismatch"] = next(
                mismatches(printed_delta), None
            )
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
