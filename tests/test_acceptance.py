"""Acceptance sweep: the eight headline checks, one printed line each.

Each test prints `criterion N: PASS/FAIL - summary` on the terminal
(bypassing capture) so the suite doubles as a human-readable scorecard.
All comparisons are exact; the two runtime targets and the memory bound
are asserted as hard limits well above the measured values.
"""

from __future__ import annotations

import json
import math
import resource
import time
from contextlib import contextmanager

import pytest

import borwein.cli as cli
from borwein import (
    decompose_abc,
    divisor_formula_table,
    dp_signed_counts,
    enumerate_signed_counts,
    a_via_qbinomial,
    eval_at,
    expand_borwein,
    eta_quotient_coeffs,
    gaussian_binomial,
    mobius,
    mul_sparse_factor,
    pentagonal_series,
    ramanujan_sum,
    residue_partial_sums,
    sign_coherence_check,
    trinomial_coeff,
    verify_stanley,
)
from borwein.qpoly import IntPolynomial


@contextmanager
def criterion(capsys, number: int, summary: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {summary}")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {number}: PASS - {summary}")


def test_criterion_1_sign_sweep_to_100(capsys, tmp_path):
    out = tmp_path / "verify.ndjson"
    with criterion(capsys, 1, "sign pattern holds for all n <= 100 in < 60 s"):
        t0 = time.perf_counter()
        code = cli.run(["verify", "--n-min", "0", "--n-max", "100", "--json", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh]
        assert len(docs) == 101
        assert all(d["status"] == "pass" for d in docs)
        assert all(d["violations"] == [] for d in docs)
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_partial_sums(capsys, series_upto_100, dp_tables_upto_30):
    with criterion(
        capsys, 2, "partial sums positive at 3|b for n <= 100, equal M(b) for n <= 30"
    ):
        for n, s in enumerate(series_upto_100):
            sums = residue_partial_sums(s)
            for b in range(0, len(sums), 3):
                assert sums[b] > 0, f"n={n} b={b}"
        for n, table in enumerate(dp_tables_upto_30):
            assert residue_partial_sums(series_upto_100[n]) == table.signed, f"n={n}"


def test_criterion_3_signed_count_oracles(capsys, dp_tables_upto_30):
    with criterion(
        capsys, 3, "divisor formula = DP for n <= 30, = enumeration for n <= 6, M > 0"
    ):
        for n, table in enumerate(dp_tables_upto_30):
            assert divisor_formula_table(n).counts == table.counts, f"n={n}"
            for b in range(0, table.N, 3):
                assert table.signed[b] > 0, f"n={n} b={b}"
        for n in range(7):
            assert enumerate_signed_counts(n).counts == dp_tables_upto_30[n].counts
        assert dp_tables_upto_30[1].signed == (4, -1, -2, 2, -2, -1)


def test_criterion_4_qbinomial_identity(capsys, series_upto_100):
    with criterion(capsys, 4, "alternating q-binomial sum equals A for m <= 30"):
        for m in range(1, 31):
            a = decompose_abc(series_upto_100[m - 1]).a
            assert a_via_qbinomial(m) == a, f"m={m}"
        assert a_via_qbinomial(2).coeffs == (1, 1, 2, 1, 1)
        assert a_via_qbinomial(3).coeffs == (1, 1, 2, 3, 2, 2, 3, 2, 1, 1)


def test_criterion_5_partition_suite(capsys):
    with criterion(
        capsys, 5, "pentagonal(400), partition formula K=100, coherence J=2000 in < 30 s"
    ):
        t0 = time.perf_counter()
        product = IntPolynomial((1,))
        for m in range(1, 401):
            product = IntPolynomial(mul_sparse_factor(product, m).coeffs[:401])
        assert IntPolynomial(pentagonal_series(400)) == product
        for p in (3, 5, 7, 11, 13):
            doc = verify_stanley(p, 100)
            assert doc.status == "pass", f"p={p}"
        mismatch = verify_stanley(7, 100).data["quoted_offset_first_mismatch"]
        assert mismatch == {"k": 1, "lhs": 2, "rhs": 1}
        for p in (2, 3, 5, 7, 11):
            assert sign_coherence_check(p, 2000).status == "pass", f"p={p}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_6_structural_invariants(capsys, series_upto_100):
    with criterion(
        capsys, 6, "series/Gaussian/arithmetic invariant suites hold in full"
    ):
        for n, s in enumerate(series_upto_100):
            assert s.degree == 3 * (n + 1) ** 2
            assert s.poly.is_palindromic()
            assert s.poly[0] == 1 and s.poly[s.degree] == 1
            assert eval_at(s.poly, 1) == 0
        for n in range(21):
            for k in range(n + 1):
                g = gaussian_binomial(n, k)
                assert g.is_palindromic()
                assert g.degree == k * (n - k)
                assert eval_at(g, 1) == math.comb(n, k)
        for m in range(2, 60):
            assert sum(mobius(d) for d in range(1, m + 1) if m % d == 0) == 0
        for n in range(1, 25):
            for b in range(2 * n):
                total = sum(ramanujan_sum(d, b) for d in range(1, n + 1) if n % d == 0)
                assert total == (n if b % n == 0 else 0)
        for m in range(8):
            for k in range(2 * m + 1):
                expected = sum(
                    math.comb(m, c) * math.comb(m - c, k - 2 * c)
                    for c in range(min(m, k // 2) + 1)
                )
                assert trinomial_coeff(m, k) == expected


def test_criterion_7_deterministic_reports(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    with criterion(
        capsys, 7, "byte-identical reruns for every subcommand, including --jobs 8"
    ):
        cases = [
            ["verify", "--n-min", "0", "--n-max", "20"],
            ["partial-sums", "--n-min", "0", "--n-max", "10"],
            ["modcount", "--n-min", "0", "--n-max", "6"],
            ["identity", "--n-min", "1", "--n-max", "12"],
            ["conjecture23", "--n-min", "0", "--n-max", "6"],
            ["stanley", "--k-max", "30"],
            ["coherence", "--j-max", "300"],
            ["expand", "--n", "5"],
        ]
        for i, argv in enumerate(cases):
            a = tmp_path / f"{i}a.ndjson"
            b = tmp_path / f"{i}b.ndjson"
            assert cli.run(argv + ["--json", str(a)]) == 0
            assert cli.run(argv + ["--json", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv[0]
        j1 = tmp_path / "jobs1.ndjson"
        j8 = tmp_path / "jobs8.ndjson"
        sweep = ["verify", "--n-min", "0", "--n-max", "20"]
        assert cli.run(sweep + ["--json", str(j1), "--jobs", "1"]) == 0
        assert cli.run(sweep + ["--json", str(j8), "--jobs", "8"]) == 0
        assert j1.read_bytes() == j8.read_bytes()


@pytest.mark.slow
def test_criterion_8_expand_n1000(capsys):
    with criterion(
        capsys, 8, "n = 1000 (degree 3,006,003) expands exactly in < 10 min"
    ):
        t0 = time.perf_counter()
        s = expand_borwein(1000)
        elapsed = time.perf_counter() - t0
        assert s.degree == 3_006_003
        assert s.poly[0] == 1 and s.poly[s.degree] == 1
        assert s.poly.is_palindromic()
        assert eval_at(s.poly, 1) == 0
        # independent prefix: ∏_{3∤m, m<=3002} (1-q^m) agrees through degree 3002
        eta = eta_quotient_coeffs(3, 3002)
        assert s.poly.coeffs[:3003] == eta
        assert elapsed < 600, f"took {elapsed:.1f}s"
        # the larger of this process and the helper of a split expansion
        peak_gib = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 2**20
        assert peak_gib < 4.0, f"peak RSS {peak_gib:.2f} GiB"
        with capsys.disabled():
            print(f"  (n=1000 expanded in {elapsed:.1f}s, peak RSS {peak_gib:.2f} GiB)")
