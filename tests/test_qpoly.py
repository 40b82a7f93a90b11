"""Polynomial engine: kernels against reference semantics and each other."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borwein.cli as cli
import borwein.qpoly as qpoly
from borwein import (
    InexactDivisionError,
    IntPolynomial,
    MirrorMismatchError,
    ProductSpec,
    binomial,
    eval_at,
    exact_div,
    expand_product,
    gaussian_binomial,
    mul_sparse_factor,
    pow_trunc,
)

small_polys = st.builds(
    IntPolynomial, st.lists(st.integers(-9, 9), min_size=0, max_size=12)
)


def schoolbook(P: IntPolynomial, Q: IntPolynomial) -> IntPolynomial:
    """Reference product: every pair of terms, one at a time."""
    out = [0] * (len(P) + len(Q))
    for i, a in enumerate(P):
        for j, b in enumerate(Q):
            out[i + j] += a * b
    return IntPolynomial(out)


def test_zero_polynomial_representation():
    z = IntPolynomial([0, 0, 0])
    assert z.degree == -1
    assert z == IntPolynomial()
    assert z.coeffs == ()


def test_trailing_zeros_trimmed_everywhere():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    # (1+q)(1-q) = 1 - q^2: the zero at q^1 stays, as it is not trailing
    assert mul_sparse_factor(IntPolynomial([1, 1]), 1).coeffs == (1, 0, -1)
    assert pow_trunc(IntPolynomial([0, 0]), 3).coeffs == ()


def test_indexing_out_of_range_is_zero():
    p = IntPolynomial([5, -3])
    assert p[0] == 5 and p[1] == -3
    assert p[2] == 0 and p[100] == 0


def test_mul_sparse_factor_examples():
    p = IntPolynomial([1, -1])
    assert mul_sparse_factor(p, 2).coeffs == (1, -1, -1, 1)
    assert mul_sparse_factor(IntPolynomial((1,)), 5).coeffs == (1, 0, 0, 0, 0, -1)
    step = mul_sparse_factor(IntPolynomial([1, -1, -1, 1]), 4)
    assert step.coeffs == (1, -1, -1, 1, -1, 1, 1, -1)


def test_schoolbook_reference_examples():
    one_plus = IntPolynomial([1, 1])
    one_minus = IntPolynomial([1, -1])
    assert schoolbook(one_plus, one_minus).coeffs == (1, 0, -1)
    p = IntPolynomial([3, 0, 2, -1])
    assert schoolbook(p, IntPolynomial((1,))) == p
    assert schoolbook(p, IntPolynomial()) == IntPolynomial()
    g3 = IntPolynomial([1, -1, 1])
    assert schoolbook(g3, g3).coeffs == (1, -2, 3, -2, 1)


def test_exact_div_examples():
    # (1 - q^6) / (1 - q^2) = 1 + q^2 + q^4
    assert exact_div(IntPolynomial([1, 0, 0, 0, 0, 0, -1]), 2).coeffs == (1, 0, 1, 0, 1)
    assert exact_div(IntPolynomial([1, 0, 0, 0, -1]), 1).coeffs == (1, 1, 1, 1)
    assert exact_div(IntPolynomial([1, -2, 1]), 1).coeffs == (1, -1)
    # (1 - q)(1 - q^3) / (1 - q^3) = 1 - q
    assert exact_div(IntPolynomial([1, -1, 0, -1, 1]), 3).coeffs == (1, -1)
    assert exact_div(IntPolynomial(), 4) == IntPolynomial()


def test_exact_div_raises_on_remainder():
    with pytest.raises(InexactDivisionError):
        exact_div(IntPolynomial([1, 1, 1]), 1)
    with pytest.raises(InexactDivisionError):
        exact_div(IntPolynomial([1, 0, 0, -1]), 2)
    for k in (0, -3):
        with pytest.raises(ValueError):
            exact_div(IntPolynomial([1, -1]), k)


def test_pow_trunc_examples():
    assert pow_trunc(IntPolynomial([1, 1]), 2).coeffs == (1, 2, 1)
    assert pow_trunc(IntPolynomial([5, -2, 3]), 0) == IntPolynomial((1,))
    assert pow_trunc(IntPolynomial([1, 1, 1]), 2).coeffs == (1, 2, 3, 2, 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_polys, st.integers(1, 8))
def test_sparse_factor_matches_dense_multiply(p, m):
    factor = IntPolynomial([1] + [0] * (m - 1) + [-1])
    assert mul_sparse_factor(p, m) == schoolbook(p, factor)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_polys, st.integers(0, 5))
def test_pow_trunc_matches_repeated_schoolbook(p, e):
    expected = IntPolynomial((1,))
    for _ in range(e):
        expected = schoolbook(expected, p)
    assert pow_trunc(p, e) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_polys, small_polys, st.integers(-3, 3))
def test_multiplication_commutes_with_evaluation(a, b, x):
    assert eval_at(schoolbook(a, b), x) == eval_at(a, x) * eval_at(b, x)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert gaussian_binomial(17, 0) == IntPolynomial((1,))
    assert gaussian_binomial(6, 3).coeffs == (1, 1, 2, 3, 3, 3, 3, 2, 1, 1)
    assert gaussian_binomial(3, 5) == IntPolynomial()


def test_gaussian_binomial_structure():
    for n in range(21):
        for k in range(n + 1):
            g = gaussian_binomial(n, k)
            assert g.degree == k * (n - k)
            assert g.is_palindromic()
            assert eval_at(g, 1) == binomial(n, k)
            assert g == gaussian_binomial(n, n - k)
            assert all(c > 0 for c in g.coeffs)


def test_gaussian_binomial_against_product_formula():
    # [n;k] · ∏_{i=1..k}(1-q^i) = ∏_{i=n-k+1..n}(1-q^i)
    for n in range(2, 13):
        for k in range(n + 1):
            num = functools.reduce(
                mul_sparse_factor, range(n - k + 1, n + 1), IntPolynomial((1,))
            )
            # divide by (1-q^i) one factor at a time
            quotient = functools.reduce(exact_div, range(1, k + 1), num)
            assert quotient == gaussian_binomial(n, k)


def q_pascal_rows(n_max):
    """Rows 0..n_max of the q-Pascal triangle, [n;k] = [n-1;k-1] + q^k·[n-1;k].

    Additions only, no division: the reference for the ratio recurrence.
    """
    row = [[1]]
    yield row
    for r in range(1, n_max + 1):
        new = [[1]]
        for j in range(1, r):
            shifted = [0] * j + row[j]
            prev = row[j - 1]
            if len(prev) < len(shifted):
                prev, shifted = shifted, prev
            new.append(list(map(operator.add, prev, shifted)) + prev[len(shifted) :])
        new.append([1])
        row = new
        yield row


def test_gaussian_binomial_matches_q_pascal_triangle():
    for n, row in enumerate(q_pascal_rows(60)):
        assert [gaussian_binomial(n, k).coeffs for k in range(n + 1)] == [
            tuple(entry) for entry in row
        ]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_polys, st.integers(1, 8))
def test_divide_by_one_minus_q_power_round_trips(p, k):
    assert exact_div(mul_sparse_factor(p, k), k) == p


def test_divide_by_one_minus_q_power_raises_on_remainder():
    # none is a multiple: two leave a remainder, two are shorter than 1 - q^k
    for p, k in (([1, 1, 1], 2), ([1], 1), ([1, -1], 3), ([1, 0, -1, 1], 2)):
        with pytest.raises(InexactDivisionError):
            exact_div(IntPolynomial(p), k)


def test_product_spec_validation():
    with pytest.raises(ValueError):
        ProductSpec(modulus=0, residues=frozenset({1}), upper_index=1)
    with pytest.raises(ValueError):
        ProductSpec(modulus=3, residues=frozenset(), upper_index=1)
    with pytest.raises(ValueError):
        ProductSpec(modulus=3, residues=frozenset({0, 1}), upper_index=1)
    with pytest.raises(ValueError):
        ProductSpec(modulus=3, residues=frozenset({3}), upper_index=1)
    with pytest.raises(ValueError):
        ProductSpec(modulus=3, residues=frozenset({1}), upper_index=-1)
    with pytest.raises(ValueError):
        ProductSpec(modulus=3, residues=frozenset({1}), upper_index=1, multiplicity=0)


def test_expand_product_examples():
    borwein1 = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=1)
    assert expand_product(borwein1).coeffs == (
        1, -1, -1, 1, -1, 0, 2, 0, -1, 1, -1, -1, 1,
    )
    borwein0 = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=0)
    assert expand_product(borwein0).coeffs == (1, -1, -1, 1)
    third = ProductSpec(modulus=5, residues=frozenset({1, 2, 3, 4}), upper_index=0)
    expanded = expand_product(third)
    assert expanded.degree == 10
    reference = IntPolynomial((1,))
    for m in (1, 2, 3, 4):
        reference = mul_sparse_factor(reference, m)
    assert expanded == reference


def test_expand_product_structure():
    for spec in (
        ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=4),
        ProductSpec(modulus=5, residues=frozenset({1, 4}), upper_index=3),
        ProductSpec(modulus=2, residues=frozenset({1}), upper_index=5, multiplicity=2),
    ):
        p = expand_product(spec)
        assert p.degree == spec.full_degree
        assert p[0] == 1
        assert eval_at(p, 1) == 0


def test_expand_product_truncated_matches_full():
    spec = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=3)
    full = expand_product(spec)
    for t in (0, 5, 17, 48):
        truncated = expand_product(
            ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=3, truncation=t)
        )
        assert truncated == IntPolynomial(full.coeffs[: t + 1])


def test_expand_product_multiplicity_squares():
    base = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=2)
    squared = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=2, multiplicity=2)
    p = expand_product(base)
    assert expand_product(squared) == schoolbook(p, p)


def test_eval_at_examples():
    assert eval_at(IntPolynomial([1, 0, -1]), 1) == 0
    assert eval_at(gaussian_binomial(4, 2), 1) == 6
    g = schoolbook(IntPolynomial([1, -1, 1]), IntPolynomial([1, -1, 1]))
    assert eval_at(g, -1) == 9
    assert eval_at(IntPolynomial([1, 2, 3]), -2) == 1 - 4 + 12


def test_big_coefficients_stay_exact():
    # (1+q)^200 has central coefficient C(200,100), about 2^197
    p = pow_trunc(IntPolynomial([1, 1]), 200)
    assert p[100] == math.comb(200, 100)
    assert eval_at(p, 1) == 2**200


def unmirrored(spec: ProductSpec) -> IntPolynomial:
    """Oracle: one full sparse pass per factor, never mirrored."""
    full = functools.reduce(mul_sparse_factor, spec.exponents(), IntPolynomial((1,)))
    if spec.truncation is None:
        return full
    return IntPolynomial(full.coeffs[: spec.truncation + 1])


@st.composite
def product_specs(draw) -> ProductSpec:
    modulus = draw(st.integers(2, 7))
    spec = ProductSpec(
        modulus=modulus,
        residues=draw(st.frozensets(st.integers(1, modulus - 1), min_size=1)),
        upper_index=draw(st.integers(0, 8)),
        multiplicity=draw(st.integers(1, 3)),
    )
    half = spec.full_degree // 2
    w = modulus * spec.upper_index + max(spec.residues)
    near_half = [half - 1, half, half + 1, half + w - 1, half + w, spec.full_degree]
    truncation = draw(
        st.none()
        | st.sampled_from([t for t in near_half if t >= 0])
        | st.integers(0, spec.full_degree + 3)
    )
    return dataclasses.replace(spec, truncation=truncation)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(product_specs())
def test_expand_product_matches_unmirrored_oracle(spec):
    assert expand_product(spec) == unmirrored(spec)


def test_odd_factor_count_is_antipalindromic():
    # 7 factors (1-q^{3j+1}), degree 70 (even): a_{70-j} = -a_j, a_35 = 0
    spec = ProductSpec(modulus=3, residues=frozenset({1}), upper_index=6)
    p = expand_product(spec)
    assert p == unmirrored(spec)
    assert p.degree == 70
    assert p.coeffs == tuple(-c for c in p.coeffs[::-1])
    assert p[35] == 0


def test_expand_borwein_matches_unmirrored_oracle(series_upto_100):
    oracle = IntPolynomial((1,))
    for n, s in enumerate(series_upto_100):
        oracle = mul_sparse_factor(oracle, 3 * n + 1)
        oracle = mul_sparse_factor(oracle, 3 * n + 2)
        assert s.poly == oracle, n


def off_by_one_once(monkeypatch, index: int = 723) -> None:
    """Make the first kernel output that reaches index wrong by one there.

    At n = 20, a_723 is the top computed term, D/2 + w. Later passes
    move that error only to exponents above it, which are cut, so
    exactly one term computed past the midpoint is off by one. A window
    that starts at K holds a_723 at index 723 - K.
    """
    kernel = qpoly._sparse_step
    armed = True

    def broken(p, m, below):
        nonlocal armed
        out = kernel(p, m, below)
        if armed and len(out) > index:
            armed = False
            out[index] += 1
        return out

    monkeypatch.setattr(qpoly, "_sparse_step", broken)


def test_overlap_check_catches_one_wrong_term(monkeypatch):
    assert issubclass(MirrorMismatchError, ArithmeticError)
    off_by_one_once(monkeypatch)
    # n = 20: D = 1323, so the top computed term is 661 + 62 = 723,
    # whose mirror is 1323 - 723 = 600
    borwein20 = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=20)
    with pytest.raises(MirrorMismatchError, match=r"a_723 = \d+, but its mirror a_600 "):
        expand_product(borwein20)
    off_by_one_once(monkeypatch)
    assert cli.run(["verify", "--n", "20"]) == 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_polys)
def test_eval_at_plus_minus_one_matches_horner(p):
    for x in (1, -1):
        horner = 0
        for c in reversed(p.coeffs):
            horner = horner * x + c
        assert eval_at(p, x) == horner


# ---------------------------------------------------------------------------
# the passes split between this process and a forked helper


@pytest.fixture
def split_always(monkeypatch) -> list[int]:
    """Split every expansion; the list collects each split point chosen."""
    if not qpoly._may_fork():
        pytest.skip("needs fork and a second CPU")
    monkeypatch.setattr(qpoly, "_SPLIT_WORK", 0)
    splits: list[int] = []
    choose = qpoly._split_point

    def spy(lengths):
        splits.append(choose(lengths))
        return splits[-1]

    monkeypatch.setattr(qpoly, "_split_point", spy)
    return splits


def kept_terms(spec: ProductSpec) -> int:
    """expand_product's keep: the top exponent its passes compute."""
    w = spec.modulus * spec.upper_index + max(spec.residues)
    top = min(spec.full_degree // 2 + w, spec.full_degree)
    return top if spec.truncation is None else min(top, spec.truncation)


SPLIT_SPECS = [
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=20),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=9, multiplicity=2),
    ProductSpec(modulus=5, residues=frozenset({1, 2, 3, 4}), upper_index=7),
    ProductSpec(modulus=3, residues=frozenset({1}), upper_index=6),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=12, truncation=90),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=12, truncation=300),
    ProductSpec(modulus=7, residues=frozenset({5, 6}), upper_index=5),
]


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=str)
def test_split_expansion_matches_serial(split_always, spec):
    expanded = expand_product(spec)
    assert len(split_always) == 1 and 0 < split_always[0] <= kept_terms(spec)
    assert expanded == unmirrored(spec)


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=str)
def test_split_at_the_window_edges_matches_serial(split_always, monkeypatch, spec):
    # K = 1 and 2 lie below the first exponent of the mod-7 spec, so the
    # boundary terms reach below exponent 0; K = keep leaves the helper one term
    keep = kept_terms(spec)
    for k in (1, 2, keep - 1, keep):
        if 0 < k <= keep:
            monkeypatch.setattr(qpoly, "_split_point", lambda lengths: k)
            assert expand_product(spec) == unmirrored(spec), k


def test_overlap_check_catches_one_wrong_upper_window_term(split_always, monkeypatch):
    # the lower window [0, 300) never outputs more than 300 + 62 terms, so
    # only the helper's window reaches index 423, which holds a_723
    monkeypatch.setattr(qpoly, "_split_point", lambda lengths: 300)
    off_by_one_once(monkeypatch, 723 - 300)
    borwein20 = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=20)
    with pytest.raises(MirrorMismatchError, match=r"a_723 = \d+, but its mirror a_600 "):
        expand_product(borwein20)
    assert multiprocessing.active_children() == []


def test_lost_helper_raises_and_leaves_no_process(split_always, monkeypatch):
    kernel = qpoly._sparse_step
    parent = os.getpid()

    def helper_fails(p, m, below):
        if os.getpid() != parent:
            raise RuntimeError("helper lost")
        return kernel(p, m, below)

    monkeypatch.setattr(qpoly, "_sparse_step", helper_fails)
    borwein20 = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=20)
    with pytest.raises(ChildProcessError, match=r"exited \(code 1\) before returning"):
        expand_product(borwein20)
    assert multiprocessing.active_children() == []
    assert cli.run(["verify", "--n", "20"]) == 4
    assert multiprocessing.active_children() == []


def test_failing_parent_leaves_no_process(split_always, monkeypatch):
    kernel = qpoly._sparse_step
    parent = os.getpid()
    calls = 0

    def parent_fails(p, m, below):
        nonlocal calls
        if os.getpid() == parent:
            calls += 1
            if calls == 20:
                raise RuntimeError("parent fails")
        return kernel(p, m, below)

    monkeypatch.setattr(qpoly, "_sparse_step", parent_fails)
    borwein20 = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=20)
    with pytest.raises(RuntimeError, match="parent fails"):
        expand_product(borwein20)
    assert multiprocessing.active_children() == []


def test_pool_workers_never_fork_a_helper():
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(qpoly._may_fork).result() is False


def test_split_point_balances_the_windows():
    # n = 250: the lower window takes about 0.43 of the kept terms
    spec = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=250)
    keep = kept_terms(spec)
    lengths = list(itertools.accumulate(
        spec.exponents(), lambda n, m: min(n + m, keep + 1), initial=1
    ))[1:]
    assert sum(lengths) >= qpoly._SPLIT_WORK
    assert 0.40 < qpoly._split_point(lengths) / keep < 0.46
    # a product that never outgrows one term cannot be shared
    assert qpoly._split_point([1, 1, 1]) == 0
