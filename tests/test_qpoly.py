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
from multiprocessing.connection import Connection

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
            assert eval_at(g, 1) == math.comb(n, k)
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
        assert p.degree == sum(spec.exponents())
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
    degree = sum(spec.exponents())
    half = degree // 2
    w = modulus * spec.upper_index + max(spec.residues)
    near_half = [half - 1, half, half + 1, half + w - 1, half + w, degree]
    truncation = draw(
        st.none()
        | st.sampled_from([t for t in near_half if t >= 0])
        | st.integers(0, degree + 3)
    )
    return dataclasses.replace(spec, truncation=truncation)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(product_specs())
def test_expand_product_matches_unmirrored_oracle(spec):
    qpoly._held.clear()  # examples of one family at consecutive indices would chain
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


# ---------------------------------------------------------------------------
# held products: the next index of a family grows from the previous one


def borwein_spec(n: int, truncation: int | None = None) -> ProductSpec:
    return ProductSpec(modulus=3, residues={1, 2}, upper_index=n, truncation=truncation)


def squared_spec(n: int) -> ProductSpec:
    return ProductSpec(modulus=3, residues={1, 2}, upper_index=n, multiplicity=2)


def mod5_spec(n: int) -> ProductSpec:
    return ProductSpec(modulus=5, residues={1, 2, 3, 4}, upper_index=n)


def test_chained_products_match_fresh_expansion(series_upto_100, fresh_expansions):
    expected = {}
    for n in range(61):
        for spec in (squared_spec(n), mod5_spec(n)):
            qpoly._held.clear()
            expected[spec] = expand_product(spec)
    qpoly._held.clear()
    del fresh_expansions[:]
    for n in range(61):
        assert expand_product(borwein_spec(n)) == series_upto_100[n].poly, n
    # conjecture23's two families alternate, as its sweep asks for them
    for n in range(61):
        for spec in (squared_spec(n), mod5_spec(n)):
            assert expand_product(spec) == expected[spec], spec
    assert fresh_expansions == [borwein_spec(0), squared_spec(0), mod5_spec(0)]


@pytest.mark.parametrize(
    "requests",
    [
        [(5, None, True), (6, None, False), (8, None, True)],  # a gap
        [(5, None, True), (5, None, True), (6, None, False)],  # the same index
        [(5, None, True), (4, None, True), (5, None, False)],  # a lower index
        # a truncated spec neither reuses nor replaces the held product
        [(5, None, True), (6, 40, True), (6, None, False)],
    ],
    ids=["gap", "same-index", "lower-index", "truncated"],
)
def test_only_the_next_index_reuses_the_held_product(fresh_expansions, requests):
    for n, truncation, fresh in requests:
        spec = borwein_spec(n, truncation)
        del fresh_expansions[:]
        assert expand_product(spec) == unmirrored(spec), spec
        assert fresh_expansions == ([spec] if fresh else []), spec


def test_at_most_two_families_are_held(fresh_expansions):
    for spec in (borwein_spec(3), squared_spec(3), mod5_spec(3)):
        expand_product(spec)
    # keyed by (modulus, residues, multiplicity), oldest first
    assert list(qpoly._held) == [(3, {1, 2}, 2), (5, {1, 2, 3, 4}, 1)]
    assert [index for index, _ in qpoly._held.values()] == [3, 3]
    # the oldest family was let go, so its next index expands from scratch
    del fresh_expansions[:]
    assert expand_product(borwein_spec(4)) == unmirrored(borwein_spec(4))
    assert fresh_expansions == [borwein_spec(4)]
    assert len(qpoly._held) == 2


def off_by_one_once(monkeypatch, m: int = 62) -> None:
    """Make pass m wrong by one at a_723, the top computed term at n = 20.

    The pass's output on the last chunk, which ends at a_723, is changed
    there once. The passes after it move that error only to exponents
    above 723, which are cut, so exactly one term computed past the
    midpoint is off by one. Set qpoly._CHUNK before calling this.
    """
    kernel = qpoly._sparse_step
    last = 724 % qpoly._CHUNK or qpoly._CHUNK  # the width of the last chunk
    armed = True

    def broken(p, factor, below):
        nonlocal armed
        out = kernel(p, factor, below)
        if armed and factor == m and len(out) == last:
            armed = False
            out[-1] += 1
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


def test_overlap_check_catches_one_wrong_term_in_a_chained_step(monkeypatch):
    # P_20 grown from the held P_19 runs only the passes m = 61 and 62,
    # through the same halved loop as a fresh expansion, and is checked
    expand_product(borwein_spec(19))
    off_by_one_once(monkeypatch)
    with pytest.raises(MirrorMismatchError, match=r"a_723 = \d+, but its mirror a_600 "):
        expand_product(borwein_spec(20))
    off_by_one_once(monkeypatch)
    assert cli.run(["verify", "--n-min", "19", "--n-max", "20"]) == 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_polys)
def test_eval_at_plus_minus_one_matches_horner(p):
    for x in (1, -1):
        horner = 0
        for c in reversed(p.coeffs):
            horner = horner * x + c
        assert eval_at(p, x) == horner


# ---------------------------------------------------------------------------
# the passes chunk by chunk, in this process or with the first stage in
# one forked helper


def kept_terms(spec: ProductSpec) -> int:
    """expand_product's keep: the top exponent its passes compute."""
    degree = sum(spec.exponents())
    top = min(degree // 2 + max(spec.exponents()), degree)
    return top if spec.truncation is None else min(top, spec.truncation)


def kept_passes(spec: ProductSpec) -> list[int]:
    """The factor exponents expand_product runs a pass for."""
    return [m for m in spec.exponents() if m <= kept_terms(spec)]


# With 7-term chunks these span from one chunk (truncation 5) to 104
# (n = 20, whose last chunk holds 3 terms), and every spec has passes
# with m >= 7, which read terms below the chunk before the one below.
SPLIT_SPECS = [
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=20),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=9, multiplicity=2),
    ProductSpec(modulus=5, residues=frozenset({1, 2, 3, 4}), upper_index=7),
    ProductSpec(modulus=3, residues=frozenset({1}), upper_index=6),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=12, truncation=5),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=12, truncation=90),
    ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=12, truncation=300),
    ProductSpec(modulus=7, residues=frozenset({5, 6}), upper_index=5),
]

BORWEIN20 = SPLIT_SPECS[0]


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunked_expansion_matches_unmirrored(monkeypatch, chunk):
    monkeypatch.setattr(qpoly, "_CHUNK", chunk)
    for spec in SPLIT_SPECS:
        qpoly._held.clear()
        assert expand_product(spec) == unmirrored(spec), spec


@dataclasses.dataclass
class Splits:
    """What split_always saw: each cut _cut_point chose, each process started."""

    cuts: list[int]
    started: list[multiprocessing.process.BaseProcess]

    def one_helper_each(self, expansions: int) -> bool:
        """One helper per split expansion, and none of them still running."""
        return len(self.started) == expansions and multiprocessing.active_children() == []


@pytest.fixture
def split_always(monkeypatch) -> Splits:
    """Split every expansion, in 7-term chunks, and log cuts and processes."""
    if not qpoly._may_fork():
        pytest.skip("needs fork and a second CPU")
    monkeypatch.setattr(qpoly, "_SPLIT_WORK", 0)
    monkeypatch.setattr(qpoly, "_CHUNK", 7)
    splits = Splits([], [])
    choose = qpoly._cut_point
    start = multiprocessing.process.BaseProcess.start

    def spy(lengths):
        splits.cuts.append(choose(lengths))
        return splits.cuts[-1]

    def counted_start(process):
        splits.started.append(process)
        start(process)

    monkeypatch.setattr(qpoly, "_cut_point", spy)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    return splits


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=str)
def test_split_expansion_matches_serial(split_always, spec):
    expanded = expand_product(spec)
    assert len(split_always.cuts) == 1
    assert 0 < split_always.cuts[0] < len(kept_passes(spec))
    assert expanded == unmirrored(spec)
    assert split_always.one_helper_each(1)


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=str)
def test_split_at_every_cut_matches_serial(split_always, monkeypatch, spec):
    # from the helper running only the first pass to this process running
    # only the last
    cuts = range(1, len(kept_passes(spec)))
    for cut in cuts:
        monkeypatch.setattr(qpoly, "_cut_point", lambda lengths: cut)
        assert expand_product(spec) == unmirrored(spec), cut
    assert split_always.one_helper_each(len(cuts))


@pytest.mark.parametrize("cut, m", [(41, 61), (1, 62)], ids=["helper", "parent"])
def test_overlap_check_catches_one_wrong_term_from_either_stage(
    split_always, monkeypatch, cut, m
):
    # n = 20 has 42 passes: cut 41 gives the helper m = 1..61 and this
    # process only m = 62, cut 1 gives the helper only m = 1
    monkeypatch.setattr(qpoly, "_cut_point", lambda lengths: cut)
    off_by_one_once(monkeypatch, m)
    with pytest.raises(MirrorMismatchError, match=r"a_723 = \d+, but its mirror a_600 "):
        expand_product(BORWEIN20)
    assert split_always.one_helper_each(1)


def test_lost_helper_raises_and_leaves_no_process(split_always, monkeypatch):
    kernel = qpoly._sparse_step
    parent = os.getpid()

    def helper_fails(p, factor, below):
        if os.getpid() != parent:
            raise RuntimeError("helper lost")
        return kernel(p, factor, below)

    monkeypatch.setattr(qpoly, "_sparse_step", helper_fails)
    with pytest.raises(ChildProcessError) as raised:
        expand_product(BORWEIN20)
    passes = kept_passes(BORWEIN20)
    cut = split_always.cuts[0]
    assert (
        f"the helper for the passes m = {passes[0]}..{passes[cut - 1]} exited (code 1) before"
        in str(raised.value)
    )
    assert split_always.one_helper_each(1)
    assert cli.run(["verify", "--n", "20"]) == 4
    assert split_always.one_helper_each(2)


@pytest.mark.parametrize(
    "owner, name", [(qpoly, "_sparse_step"), (Connection, "recv")], ids=["kernel", "recv"]
)
def test_failing_parent_leaves_no_process(split_always, monkeypatch, owner, name):
    exact = getattr(owner, name)
    parent = os.getpid()
    calls = 0

    def parent_fails(*args):
        nonlocal calls
        if os.getpid() == parent:
            calls += 1
            if calls == 200:
                raise RuntimeError("parent fails")
        return exact(*args)

    monkeypatch.setattr(owner, name, parent_fails)
    # P_100's first stage sends far more than a pipe holds, so the helper
    # is still at work when this process fails, in its own stage or while
    # receiving. The exception is kept, and with it every frame it passed
    # through: the helper must be stopped before the exception leaves
    # expand_product, not when those frames are freed.
    with pytest.raises(RuntimeError, match="parent fails") as raised:
        expand_product(ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=100))
    assert split_always.one_helper_each(1), raised


def test_pool_workers_never_fork_a_helper():
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(qpoly._may_fork).result() is False


def test_cut_point_halves_the_work():
    # n = 250: the helper and this process each get half the modelled
    # work, to within one pass
    spec = ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=250)
    keep = kept_terms(spec)
    lengths = [min(d + 1, keep + 1) for d in itertools.accumulate(kept_passes(spec))]
    total = sum(lengths)
    assert total >= qpoly._SPLIT_WORK
    cut = qpoly._cut_point(lengths)
    assert abs(2 * sum(lengths[:cut]) - total) <= 2 * lengths[cut - 1]
    # each stage runs at least one pass
    assert qpoly._cut_point([5, 1]) == qpoly._cut_point([1, 5]) == 1
