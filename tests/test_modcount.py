"""Signed subset-sum evaluators: agreement, closed forms, known tables."""

from __future__ import annotations

import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest

import borwein.cli as cli
import borwein.modcount as modcount
from borwein import (
    CapacityError,
    InexactDivisionError,
    OracleMismatchError,
    SignedCountTable,
    Violation,
    character_class_polynomial,
    cross_validate,
    divisor_formula_eval,
    divisor_formula_table,
    divisors,
    dp_signed_counts,
    enumerate_signed_counts,
    exact_div,
    generalized_binomial,
    literal_closed_form,
    mobius,
    mul_sparse_factor,
    trinomial_coeff,
)
from borwein.qpoly import IntPolynomial


def _cyclotomic(d: int) -> list[int]:
    """±Φ_d(x) as ∏_{e|d} (1 - x^e)^{μ(d/e)}, coefficients ascending.

    The μ = 1 factors are multiplied first, so every divide is exact.
    """
    phi = IntPolynomial((1,))
    for e in [e for e in divisors(d) if mobius(d // e) == 1]:
        phi = mul_sparse_factor(phi, e)
    for e in [e for e in divisors(d) if mobius(d // e) == -1]:
        phi = exact_div(phi, e)
    return list(phi.coeffs)


def _reduce(p: list[int], phi: list[int]) -> list[int]:
    """p mod phi over the integers; phi's leading coefficient is ±1."""
    p = list(p)
    k = len(phi) - 1
    for i in range(len(p) - 1, k - 1, -1):
        q = p[i] * phi[-1]
        for j, f in enumerate(phi):
            p[i - k + j] -= q * f
    return p[:k]


def _exact_class_poly(N: int, d: int, m: int = 1) -> list[int]:
    """∏_{a: 3∤a} (1 + ζ^{m·a}·t) for ζ a primitive d-th root of unity, exactly.

    Each coefficient in t lives in Z[x]/(x^d - 1), where multiplying by
    x^a is a rotation, and is reduced mod Φ_d(x) at the end: Z[x]/Φ_d is
    Z[ζ], so a coefficient that is an integer reduces to that constant.
    """
    coeffs = [[1] + [0] * (d - 1)]
    for a in range(N):
        if a % 3 == 0:
            continue
        s = m * a % d
        shifted = [c[-s:] + c[:-s] if s else c for c in coeffs]
        coeffs = [
            list(map(operator.add, low, high))
            for low, high in zip(coeffs + [[0] * d], [[0] * d] + shifted)
        ]
    phi = _cyclotomic(d)
    reduced = [_reduce(c, phi) for c in coeffs]
    assert all(not any(r[1:]) for r in reduced), (N, d, m)
    return [r[0] for r in reduced]


def test_dp_table_n1():
    t = dp_signed_counts(1)
    assert t.N == 6
    assert t.counts[0] == (1, 0, 0, 0, 0, 0)
    assert t.counts[1] == (0, 1, 1, 0, 1, 1)
    assert t.counts[2] == (2, 1, 0, 2, 0, 1)
    assert t.counts[3] == (0, 1, 1, 0, 1, 1)
    assert t.counts[4] == (1, 0, 0, 0, 0, 0)
    assert t.signed == (4, -1, -2, 2, -2, -1)


def test_dp_table_n0():
    t = dp_signed_counts(0)
    assert t.counts == ((1, 0, 0), (0, 1, 1), (1, 0, 0))
    assert t.signed == (2, -1, -1)


def test_dp_rejects_negative():
    with pytest.raises(ValueError):
        dp_signed_counts(-1)


def test_row_sums_are_binomials(dp_tables_upto_30):
    for n in (0, 1, 2, 7, 19, 30):
        t = dp_tables_upto_30[n]
        size = 2 * t.N // 3
        assert len(t.counts) == size + 1
        for k, row in enumerate(t.counts):
            assert sum(row) == math.comb(size, k)


def test_signed_vector_sums_to_zero(dp_tables_upto_30):
    for n in (0, 1, 5, 14, 30):
        assert sum(dp_tables_upto_30[n].signed) == 0


def test_signed_vector_is_symmetric(dp_tables_upto_30):
    # D is closed under negation mod N, so M(b) = M(N-b)
    for n in (0, 1, 4, 12, 30):
        t = dp_tables_upto_30[n]
        for b in range(1, t.N):
            assert t.signed[b] == t.signed[t.N - b]


def _combinations_reference(n: int) -> tuple[tuple[int, ...], ...]:
    """M(k, b) one subset at a time, straight from itertools.combinations."""
    N = 3 * (n + 1)
    elements = [a for a in range(N) if a % 3]
    counts = [[0] * N for _ in range(len(elements) + 1)]
    for k in range(len(elements) + 1):
        for subset in itertools.combinations(elements, k):
            counts[k][sum(subset) % N] += 1
    return tuple(tuple(row) for row in counts)


def test_enumeration_matches_combinations_reference():
    for n in range(5):
        assert enumerate_signed_counts(n).counts == _combinations_reference(n)


def test_enumeration_matches_dp():
    # every n that cross_validate enumerates, up to |D| = 24
    for n in range(12):
        table = enumerate_signed_counts(n)
        assert table.counts == dp_signed_counts(n).counts
        size = 2 * table.N // 3
        assert sum(map(sum, table.counts)) == 2**size


def test_enumeration_memory_stays_small():
    # a walk over all 2^24 subset sums at n = 11 would hold >= 128 MiB
    tracemalloc.start()
    try:
        enumerate_signed_counts(11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumeration_capacity_guard():
    # n = 11 is the last index within 2^24 subsets; n = 12 needs 2^26
    enumerate_signed_counts(11)
    with pytest.raises(CapacityError):
        enumerate_signed_counts(12)


def test_class_polynomial_is_spread_binomial_or_trinomial_row():
    # in x = -t: G_d = (1 - x^d)^(2N/(3d)) when 3 ∤ d, a signed binomial
    # row spread by d, and (1 + x^e + x^2e)^(N/d) with e = d/3 when 3 | d,
    # a trinomial row spread by e
    for N in range(3, 121, 3):
        for d in [d for d in range(1, N + 1) if N % d == 0]:
            expected = [0] * (2 * N // 3 + 1)
            if d % 3:
                m = 2 * N // (3 * d)
                for j in range(m + 1):
                    expected[d * j] = (-1) ** (j * (d + 1)) * math.comb(m, j)
            else:
                e, m = d // 3, N // d
                for j in range(2 * m + 1):
                    expected[e * j] = (-1) ** (e * j) * trinomial_coeff(m, j)
            g = character_class_polynomial(N, d)
            assert isinstance(g, IntPolynomial)
            assert g.coeffs == tuple(expected), (N, d)


def test_class_polynomial_g3_is_signed_trinomial_row():
    for N in (3, 6, 9, 12, 15, 30):
        g = character_class_polynomial(N, 3)
        m = N // 3
        assert g.degree == 2 * m
        for k in range(2 * m + 1):
            assert g[k] == (-1) ** k * trinomial_coeff(m, k)


def test_class_polynomial_frozen_n6():
    assert character_class_polynomial(6, 1).coeffs == (1, 4, 6, 4, 1)
    assert character_class_polynomial(6, 2).coeffs == (1, 0, -2, 0, 1)
    assert character_class_polynomial(6, 3).coeffs == (1, -2, 3, -2, 1)
    # (1+ωt)(1+ω²t)(1+ω⁴t)(1+ω⁵t) = (1+t+t²)(1-t+t²) for ω of order 6
    assert character_class_polynomial(6, 6).coeffs == (1, 0, 1, 0, 1)


def test_class_polynomial_validation():
    with pytest.raises(ValueError):
        character_class_polynomial(7, 1)
    with pytest.raises(ValueError):
        character_class_polynomial(0, 1)
    with pytest.raises(ValueError):
        character_class_polynomial(6, 4)
    with pytest.raises(ValueError):
        character_class_polynomial(6, 0)


def test_class_polynomial_matches_exact_character_product():
    for N in range(3, 61, 3):
        for d in divisors(N):
            product = _exact_class_poly(N, d)
            assert len(product) == 2 * N // 3 + 1
            assert product == list(character_class_polynomial(N, d).coeffs), (N, d)


def test_class_polynomial_independent_of_character_choice():
    # any character of order d gives the same product: for N = 9, d = 9
    # the characters are exp(2πi·m·a/9) with gcd(m, 9) = 1
    exact = list(character_class_polynomial(9, 9).coeffs)
    for m in (1, 2, 4, 5, 7, 8):
        assert _exact_class_poly(9, 9, m) == exact, m


def test_divisor_formula_point_values():
    assert divisor_formula_eval(1) == (4, -1, -2, 2, -2, -1)
    assert divisor_formula_eval(0) == (2, -1, -1)
    counts = divisor_formula_table(1).counts
    assert (counts[2][0], counts[2][3], counts[0][1]) == (2, 2, 0)


def test_character_sum_remainder_raises(monkeypatch, capsys):
    # Φ_6 one too large: at N = 6 the weight of d = 6 is 1 at k = 0 and
    # G_6(-1) = 3 for the signed form, so 6 no longer divides either sum
    exact = modcount.ramanujan_sum
    monkeypatch.setattr(
        modcount, "ramanujan_sum", lambda d, b: exact(d, b) + (d == 6)
    )
    with pytest.raises(
        InexactDivisionError,
        match=r"^character sum 27 not divisible by N=6 at \(k=None, b=0\)$",
    ):
        divisor_formula_eval(1)
    with pytest.raises(
        InexactDivisionError,
        match=r"^character sum 7 not divisible by N=6 at \(k=0, b=0\)$",
    ):
        divisor_formula_table(1)
    assert cli.run(["modcount", "--n", "1"]) == 3
    assert "not divisible by N=6" in capsys.readouterr().err


def test_divisor_formula_table_matches_dp(dp_tables_upto_30):
    for n in (0, 1, 2, 3, 6, 10, 20, 30):
        assert divisor_formula_table(n).counts == dp_tables_upto_30[n].counts


def test_divisor_formula_eval_matches_table():
    for n in (0, 1, 3, 6):
        t = divisor_formula_table(n)
        assert divisor_formula_eval(n) == t.signed


def test_positivity_on_multiples_of_three(dp_tables_upto_30):
    for n, t in enumerate(dp_tables_upto_30):
        for b in range(0, t.N, 3):
            assert t.signed[b] > 0, f"M({b}) at n={n}"


def test_literal_form_known_discrepancies():
    # the oracle values 4 and 2 and the discrepancies 1/3 and -1/3 are
    # checked in test_cross_validate_records_literal_form
    assert literal_closed_form(1) == (Fraction(13, 3), Fraction(5, 3))


def test_literal_form_validation():
    with pytest.raises(ValueError):
        literal_closed_form(-1)


def test_literal_form_more_frozen_points():
    # exact at n = 0, drifts afterwards; all report-only (the oracle
    # values are checked in test_cross_validate_records_literal_form)
    assert literal_closed_form(0) == (2,)
    assert literal_closed_form(2)[0] == Fraction(20, 3)


def test_literal_inner_sum_is_one_binomial():
    # hockey stick: Σ_{j=0}^{K} C(m-1+j, j) = C(m+K, K), for rational m
    # too; with m an integer and K = m it is the central binomial C(2m, m)
    for k in range(1, 31):
        m = Fraction(k, 3)
        for K in range(13):
            inner = sum(generalized_binomial(m - 1 + j, j) for j in range(K + 1))
            assert inner == generalized_binomial(m + K, K), (m, K)
    for m in range(1, 11):
        assert generalized_binomial(2 * m, m) == math.comb(2 * m, m)


def test_literal_weights_at_n12(monkeypatch):
    # one binomial per divisor d ∉ {1, 3}; the true weights are 0, 0, 9, 3
    N = 12
    weights: dict[int, Fraction] = {}

    def spy(a, K):
        d = Fraction(2 * N, 3) / (a - K)
        assert d.denominator == 1 and int(d) not in weights
        weights[int(d)] = generalized_binomial(a, K)
        return weights[int(d)]

    monkeypatch.setattr(modcount, "generalized_binomial", spy)
    literal_closed_form(N // 3 - 1)
    assert weights == {2: 70, 4: 6, 6: Fraction(7, 3), 12: 1}


def test_literal_shape_with_true_weights_is_the_divisor_formula(monkeypatch):
    # the form's shape is right: only its weights C(m+K, K) differ from
    # the true weight 3^{N/d}·[3 | d] of each divisor d
    for n in range(40):
        N = 3 * (n + 1)

        def true_weight(a, K):
            d = int(Fraction(2 * N, 3) / (a - K))
            return 3 ** (N // d) if d % 3 == 0 else 0

        monkeypatch.setattr(modcount, "generalized_binomial", true_weight)
        assert literal_closed_form(n) == divisor_formula_eval(n)[::3], n


def test_literal_form_first_nonpositive_at_n9_b3():
    for n in range(9):
        assert all(v > 0 for v in literal_closed_form(n)), n
    values = literal_closed_form(9)
    assert [3 * i for i, v in enumerate(values) if v <= 0][0] == 3


def test_cross_validate_passes():
    # n = 11 is the last point that enumerates: |D| = 24
    for n in (0, 1, 4, 11):
        doc = cross_validate(n)
        assert doc.status == "pass"
        assert doc.violations == []
        names = [c.name for c in doc.cross_checks]
        assert "dp_vs_divisor_formula" in names
        assert "dp_vs_enumeration" in names
        assert "signed_vs_partial_sums" in names
        assert all(c.agree for c in doc.cross_checks)
        assert doc.data["signed"][0] > 0


@pytest.mark.parametrize(
    "reshape, shape",
    [
        (lambda rows: rows[:-1], "8 rows of length 12"),
        (lambda rows: rows[:3] + (rows[3][:-1],) + rows[4:], "9 rows of length 11/12"),
    ],
    ids=["row-dropped", "short-row"],
)
def test_cross_validate_rejects_enumeration_of_wrong_shape(
    monkeypatch, reshape, shape
):
    # a missing or short row is an oracle mismatch naming both shapes,
    # not a silent pass or an IndexError
    def reshaped(n):
        t = dp_signed_counts(n)
        return SignedCountTable(n=n, counts=reshape(t.counts), signed=t.signed)

    monkeypatch.setattr(modcount, "enumerate_signed_counts", reshaped)
    with pytest.raises(
        OracleMismatchError,
        match=r"^dp vs enumeration differ in shape at N=12: "
        rf"9 rows of length 12 != {shape}$",
    ):
        cross_validate(3)


def test_cross_validate_checks_divisor_formula_eval(monkeypatch, capsys):
    # the G_d(-1) route is an evaluator of its own, so an off-by-one
    # there is an oracle mismatch, not just a shifted literal-form oracle
    exact = modcount.divisor_formula_eval
    monkeypatch.setattr(
        modcount, "divisor_formula_eval", lambda n: [m + 1 for m in exact(n)]
    )
    with pytest.raises(
        OracleMismatchError,
        match=r"^divisor-formula eval vs dp signed disagree at \(N=6, b=0\): 5 != 4$",
    ):
        cross_validate(1)
    assert cli.run(["modcount", "--n", "1"]) == 3
    assert "divisor-formula eval vs dp signed" in capsys.readouterr().err


def test_cross_validate_states_the_claim_on_the_signed_counts(monkeypatch):
    # the claim is series.partial_sum_violations, handed dp.signed and
    # modcount's own kind; what it returns is the report's violations
    calls = []
    flagged = Violation(
        kind="k", location={"n": 2, "residue": 3}, value=0, expected=">0"
    )

    def claim(sums, n, kind):
        calls.append((sums, n, kind))
        return [flagged]

    monkeypatch.setattr(modcount, "partial_sum_violations", claim)
    doc = cross_validate(2)
    assert calls == [(dp_signed_counts(2).signed, 2, "nonpositive-signed-count")]
    assert doc.violations == [flagged]
    assert doc.status == "fail"


def test_cross_validate_skips_enumeration_when_large():
    doc = cross_validate(12)
    assert doc.status == "pass"
    assert "dp_vs_enumeration" not in [c.name for c in doc.cross_checks]
    assert doc.data["enumeration"] == "skipped (over capacity)"


def test_cross_validate_records_literal_form():
    doc = cross_validate(1)
    rows = doc.data["literal_form"]
    assert rows[0] == {
        "b": 0,
        "value": "13/3",
        "oracle": 4,
        "discrepancy": "1/3",
    }
    assert rows[1]["b"] == 3 and rows[1]["discrepancy"] == "-1/3"
    assert cross_validate(0).data["literal_form"] == [
        {"b": 0, "value": "2", "oracle": 2, "discrepancy": "0"}
    ]
    assert cross_validate(2).data["literal_form"][0] == {
        "b": 0,
        "value": "20/3",
        "oracle": 8,
        "discrepancy": "-4/3",
    }
