"""Product expansion, triple decomposition, and partial-sum checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borwein import (
    IntPolynomial,
    Violation,
    a_via_qbinomial,
    check_sign_pattern,
    decompose_abc,
    eval_at,
    expand_borwein,
    partial_sum_violations,
    residue_partial_sums,
    sign_violations,
    verify_partial_sums,
)

N1_COEFFS = (1, -1, -1, 1, -1, 0, 2, 0, -1, 1, -1, -1, 1)


def test_expand_n0():
    s = expand_borwein(0)
    assert s.poly.coeffs == (1, -1, -1, 1)
    assert s.degree == 3


def test_expand_n1():
    s = expand_borwein(1)
    assert s.poly.coeffs == N1_COEFFS
    assert s.degree == 12


def test_expand_n2_spot_values():
    s = expand_borwein(2)
    assert s.degree == 27
    assert s.poly[0] == 1
    assert s.poly[9] == 3
    assert s.poly[27] == 1
    assert s.poly[28] == 0


def test_expand_rejects_negative():
    with pytest.raises(ValueError):
        expand_borwein(-1)


def test_degree_and_endpoints(series_upto_100):
    for n in (0, 1, 2, 5, 17, 50, 100):
        s = series_upto_100[n]
        assert s.degree == 3 * (n + 1) ** 2
        assert s.poly[0] == 1
        assert s.poly[s.degree] == 1


def test_palindromic(series_upto_100):
    for n in (0, 1, 2, 7, 31, 100):
        assert series_upto_100[n].poly.is_palindromic()


def test_vanishes_at_one(series_upto_100):
    for n in (0, 1, 13, 100):
        assert eval_at(series_upto_100[n].poly, 1) == 0


def test_decompose_n1():
    d = decompose_abc(expand_borwein(1))
    assert d.a.coeffs == (1, 1, 2, 1, 1)
    assert d.b.coeffs == (1, 1, 0, 1)
    assert d.c.coeffs == (1, 0, 1, 1)


def test_decompose_n2_a_component():
    d = decompose_abc(expand_borwein(2))
    assert d.a.coeffs == (1, 1, 2, 3, 2, 2, 3, 2, 1, 1)


def test_reassemble_round_trips(series_upto_100):
    for n in (0, 1, 2, 9, 40):
        cs = series_upto_100[n].poly.coeffs
        d = decompose_abc(series_upto_100[n])
        # a_D = 1 and a_{D-2} = a_{D-1} = -1 end the three slices, so no
        # component is trimmed and together they hold every coefficient
        assert d.a.coeffs == cs[0::3]
        assert d.b.coeffs == tuple(-v for v in cs[1::3])
        assert d.c.coeffs == tuple(-v for v in cs[2::3])


def test_reverse_of_b_is_c(series_upto_100):
    # palindromy of degree 3(n+1)² maps the B component onto C reversed
    for n in (0, 1, 2, 11, 60, 100):
        d = decompose_abc(series_upto_100[n])
        assert d.b.coeffs[::-1] == d.c.coeffs
        assert d.a.is_palindromic()


def test_sign_pattern_holds_through_100(series_upto_100):
    for n, s in enumerate(series_upto_100):
        assert check_sign_pattern(s) == [], f"violations at n={n}"


def test_sign_violations_detect_bad_coefficients():
    # a_3 should be >= 0, a_1 <= 0: flip both in a synthetic vector
    bad = IntPolynomial([1, 2, -1, -5])
    found = sign_violations(bad, 3, n=0)
    assert len(found) == 2
    by_exp = {v.location["exponent"]: v for v in found}
    assert by_exp[1].value == 2 and by_exp[1].expected == "<=0"
    assert by_exp[3].value == -5 and by_exp[3].expected == ">=0"
    assert all(v.kind == "sign" for v in found)
    assert all(v.location["n"] == 0 for v in found)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # classes 0 and 1 fail; the report interleaves them by exponent
        ([-1, 2, 0, 0, 5, -3, 0], [(0, -1, ">=0"), (1, 2, "<=0"), (4, 5, "<=0")]),
        ([0, -1, -1, -2], [(3, -2, ">=0")]),
        ([0, 0, 0, 0, 0, 7], [(5, 7, "<=0")]),
    ],
)
def test_sign_violations_pinned_in_ascending_order(coeffs, expected):
    found = sign_violations(IntPolynomial(coeffs), 3, n=2)
    assert [(v.location["exponent"], v.value, v.expected) for v in found] == expected
    assert all(v.location["n"] == 2 for v in found)


def test_sign_violations_custom_kind():
    found = sign_violations(IntPolynomial([0, 1]), 3, n=4, kind="sign-squared")
    assert [v.kind for v in found] == ["sign-squared"]


def test_sign_violations_zero_coefficients_pass():
    assert sign_violations(IntPolynomial([0, 0, 0, 0]), 3, n=0) == []
    assert sign_violations(IntPolynomial(), 3, n=0) == []


def test_a_via_qbinomial_small():
    assert a_via_qbinomial(1).coeffs == (1, 1)
    assert a_via_qbinomial(2).coeffs == (1, 1, 2, 1, 1)
    assert a_via_qbinomial(3).coeffs == (1, 1, 2, 3, 2, 2, 3, 2, 1, 1)


def test_a_via_qbinomial_rejects_zero():
    with pytest.raises(ValueError):
        a_via_qbinomial(0)


def test_a_identity_matches_product(series_upto_100):
    for m in range(1, 13):
        assert a_via_qbinomial(m) == decompose_abc(series_upto_100[m - 1]).a


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(13, 30))
def test_a_identity_matches_product_larger(m):
    assert a_via_qbinomial(m) == decompose_abc(expand_borwein(m - 1)).a


def test_partial_sums_n1():
    sums = residue_partial_sums(expand_borwein(1))
    assert sums == (4, -1, -2, 2, -2, -1)


def test_partial_sums_n0():
    assert residue_partial_sums(expand_borwein(0)) == (2, -1, -1)


def test_partial_sums_n2_first_entry():
    sums = residue_partial_sums(expand_borwein(2))
    assert len(sums) == 9
    assert sums[0] == 8


def test_partial_sums_total_is_zero(series_upto_100):
    # rows partition all coefficients and the product vanishes at q = 1
    for n in (0, 1, 2, 8, 33):
        assert sum(residue_partial_sums(series_upto_100[n])) == 0


def test_partial_sum_violations_flag_only_nonpositive_multiples_of_three():
    # zero and negative entries at 3 | b fail, in ascending residue order;
    # the entries at 3 ∤ b are never flagged, not even 7 at b = 7
    sums = (0, -1, 0, 5, 0, -3, -2, 7, -4)
    assert partial_sum_violations(sums, 2, "claim") == [
        Violation("claim", location={"n": 2, "residue": 0}, value=0, expected=">0"),
        Violation("claim", location={"n": 2, "residue": 6}, value=-2, expected=">0"),
    ]
    assert partial_sum_violations((4, -1, -2, 2, -2, -1), 1, "claim") == []


def test_verify_partial_sums_report():
    doc = verify_partial_sums(1)
    assert doc.status == "pass"
    assert doc.violations == []
    assert doc.data["partial_sums"] == [4, -1, -2, 2, -2, -1]
    assert doc.data["negative_elsewhere"] is True


def test_verify_partial_sums_positive_through_40():
    for n in (0, 3, 10, 25, 40):
        doc = verify_partial_sums(n)
        assert doc.status == "pass", f"n={n}"
        sums = doc.data["partial_sums"]
        assert all(sums[b] > 0 for b in range(0, len(sums), 3))
        assert all(sums[b] < 0 for b in range(len(sums)) if b % 3)
