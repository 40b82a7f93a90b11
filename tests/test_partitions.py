"""Eta quotients, pentagonal numbers, restricted partitions, coherence."""

from __future__ import annotations

import pytest

import borwein.partitions as partitions
from borwein import (
    IntPolynomial,
    ProductSpec,
    eta_quotient_coeffs,
    expand_product,
    mul_sparse_factor,
    pentagonal_series,
    restricted_partition_counts,
    sign_coherence_check,
    verify_stanley,
)


def brute_partition_count(k: int, allowed: list[int]) -> int:
    """Count partitions of k into parts from `allowed` by descending recursion."""

    def rec(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        return sum(
            rec(remaining - part, part)
            for part in allowed
            if part <= min(remaining, max_part)
        )

    return rec(k, k)


def test_pentagonal_series_prefix():
    assert pentagonal_series(15) == (
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1,
    )
    assert pentagonal_series(0) == (1,)


def test_pentagonal_series_matches_euler_product():
    J = 400
    spec = ProductSpec(J + 1, frozenset(range(1, J + 1)), 0, truncation=J)
    assert IntPolynomial(pentagonal_series(J)) == expand_product(spec)


def test_pentagonal_recurrence_for_unrestricted_partitions():
    # p(k) via Σ (-1)^m [p(k - m(3m-1)/2) + p(k - m(3m+1)/2)] against the DP
    kmax = 400
    counts = restricted_partition_counts(1, frozenset(), kmax)
    assert counts[:10] == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)
    assert counts[100] == 190569292
    for k in range(1, kmax + 1):
        total = 0
        m = 1
        while m * (3 * m - 1) // 2 <= k:
            sign = -1 if m % 2 == 0 else 1
            total += sign * counts[k - m * (3 * m - 1) // 2]
            if m * (3 * m + 1) // 2 <= k:
                total += sign * counts[k - m * (3 * m + 1) // 2]
            m += 1
        assert counts[k] == total


def test_eta_quotient_small_prefixes():
    assert eta_quotient_coeffs(2, 4) == (1, -1, 0, -1, 1)
    assert eta_quotient_coeffs(3, 6) == (1, -1, -1, 1, -1, 0, 2)
    assert eta_quotient_coeffs(5, 6) == (1, -1, -1, 0, 0, 2, -1)
    assert eta_quotient_coeffs(7, 8) == (1, -1, -1, 0, 0, 1, 0, 2, -1)


def test_eta_quotient_prefix_contract():
    # exactly J+1 plain ints, trailing zeros kept: a_{5,3} = a_{5,4} = 0
    prefix = eta_quotient_coeffs(5, 4)
    assert type(prefix) is tuple
    assert prefix == (1, -1, -1, 0, 0)
    assert len(eta_quotient_coeffs(3, 40)) == 41


def test_eta_quotient_validation():
    with pytest.raises(ValueError):
        eta_quotient_coeffs(4, 10)
    with pytest.raises(ValueError):
        eta_quotient_coeffs(1, 10)
    with pytest.raises(ValueError):
        eta_quotient_coeffs(3, -1)


def test_eta_quotient_truncation_zero():
    assert eta_quotient_coeffs(5, 0) == (1,)


def test_eta_quotient_against_direct_product():
    # multiply out (1-q^n) for p ∤ n term by term, no ProductSpec involved
    for p, J in ((2, 60), (3, 60), (5, 80), (11, 90)):
        direct = IntPolynomial((1,))
        for m in range(1, J + 1):
            if m % p:
                direct = IntPolynomial(mul_sparse_factor(direct, m).coeffs[: J + 1])
        assert IntPolynomial(eta_quotient_coeffs(p, J)) == direct


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_eta_quotient_matches_truncated_product(p):
    extra = {11: [4040], 13: [2652]}.get(p, [])
    for J in [0, 1, p - 1, p, p + 1, 2 * p, 97, 600, *extra]:
        spec = ProductSpec(p, frozenset(range(1, p)), J // p, truncation=J)
        assert IntPolynomial(eta_quotient_coeffs(p, J)) == expand_product(spec), J


def test_partition_numbers_match_dp():
    assert partitions._partition_numbers(400) == list(
        restricted_partition_counts(1, frozenset(), 400)
    )


def test_eta_quotient_times_p_part_is_pentagonal():
    # restoring the removed factors (1-q^{pn}) must rebuild Euler's product
    for p in (2, 3, 5, 7):
        J = 120
        rebuilt = IntPolynomial(eta_quotient_coeffs(p, J))
        for m in range(p, J + 1, p):
            rebuilt = IntPolynomial(mul_sparse_factor(rebuilt, m).coeffs[: J + 1])
        assert rebuilt == IntPolynomial(pentagonal_series(J))


def test_restricted_partition_counts_reduce_forbidden():
    # 13 ≡ 4 and -5 ≡ 4 (mod 9): only parts ≡ 0 or 4 are left out
    kmax = 13
    allowed = [m for m in range(1, kmax + 1) if m % 9 not in (0, 4)]
    counts = restricted_partition_counts(9, {0, 13, -5}, kmax)
    assert counts == tuple(brute_partition_count(k, allowed) for k in range(kmax + 1))


def test_restricted_partition_counts_validation():
    with pytest.raises(ValueError):
        restricted_partition_counts(0, frozenset(), 5)


def test_restricted_partition_counts_against_enumeration():
    cases = [
        (9, frozenset({0, 4, 5})),
        (15, frozenset({0, 7, 8})),
        (15, frozenset({0, 2, 13})),
        (3, frozenset({1})),
    ]
    kmax = 25
    for modulus, forbidden in cases:
        allowed = [m for m in range(1, kmax + 1) if m % modulus not in forbidden]
        counts = restricted_partition_counts(modulus, forbidden, kmax)
        for k in range(kmax + 1):
            assert counts[k] == brute_partition_count(k, allowed)


def test_restricted_partition_count_edge_cases():
    assert restricted_partition_counts(3, frozenset({0}), -1) == ()
    assert restricted_partition_counts(3, frozenset({0}), 0) == (1,)
    assert restricted_partition_counts(3, frozenset({0}), 3)[3] == 2  # 1+1+1, 2+1


def test_stanley_rejects_bad_primes():
    with pytest.raises(ValueError):
        verify_stanley(9, 3)
    with pytest.raises(ValueError):
        verify_stanley(2, 10)


def test_stanley_matches_eta_column():
    for p, K in ((3, 60), (5, 60), (7, 50), (11, 40), (13, 40)):
        assert verify_stanley(p, K).violations == [], f"p={p}"


def test_verify_stanley_reports():
    doc = verify_stanley(5, 80)
    assert doc.status == "pass"
    assert doc.violations == []
    assert doc.data["offset"] == 1
    assert doc.data["t"] == 1
    assert doc.data["quoted_offset"] == 1
    assert "quoted_offset_first_mismatch" not in doc.data


def test_verify_stanley_p3_has_single_term():
    doc = verify_stanley(3, 80)
    assert doc.status == "pass"
    assert doc.data["offset"] == 0
    assert doc.data["t"] == 0
    assert "quoted_offset" not in doc.data


def test_verify_stanley_p7_quoted_offset_mismatch():
    # t = 2 for p ≡ 1 (mod 3); the quoted t(pt+1)/6 = 5 fails immediately
    doc = verify_stanley(7, 80)
    assert doc.status == "pass"
    assert doc.data["offset"] == 1
    assert doc.data["t"] == 2
    assert doc.data["quoted_offset"] == 5
    assert doc.data["quoted_offset_first_mismatch"] == {"k": 1, "lhs": 2, "rhs": 1}


def test_verify_stanley_p13_quoted_offset_mismatch():
    doc = verify_stanley(13, 40)
    assert doc.status == "pass"
    assert doc.data["offset"] == 2
    assert doc.data["quoted_offset"] == 9
    assert doc.data["quoted_offset_first_mismatch"] is not None


def test_sign_coherence_small():
    doc = sign_coherence_check(3, 200)
    assert doc.status == "pass"
    assert doc.violations == []
    assert doc.data["truncation"] == 200


def test_sign_coherence_all_small_primes():
    for p in (2, 3, 5, 7, 11):
        doc = sign_coherence_check(p, 300)
        assert doc.status == "pass", f"p={p}"


def test_sign_coherence_would_catch_a_flip():
    # the check is live: the pentagonal series itself violates it at p=5
    # (a_1 = -1, a_6 = +1 would need... ) use a constructed prefix instead
    cs = eta_quotient_coeffs(5, 30)
    assert any(
        cs[j] * cs[j + 5] > 0 for j in range(26)
    )  # sanity: products mostly nonzero
    flipped = [-c if j == 5 else c for j, c in enumerate(cs)]
    bad = [j for j in range(26) if flipped[j] * flipped[j + 5] < 0]
    assert bad  # the flip creates at least one incoherent pair
