"""End-to-end command-line behavior: exit codes, outputs, manifests."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import importlib
import json
import os

import pytest

import borwein.cli as cli
import borwein.modcount as modcount
import borwein.partitions as partitions
import borwein.qpoly as qpoly
from borwein import IntPolynomial, OracleMismatchError, ProductSpec, expand_product
from borwein.report import new_report, report_to_json


def run_cli(*argv: str) -> int:
    return cli.run(list(argv))


def read_ndjson(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_verify_single_n_passes(tmp_path):
    out = tmp_path / "verify.ndjson"
    assert run_cli("verify", "--n", "3", "--json", str(out)) == 0
    docs = read_ndjson(out)
    assert len(docs) == 1
    assert docs[0]["command"] == "verify"
    assert docs[0]["params"] == {"n": "3"}
    assert docs[0]["status"] == "pass"
    assert docs[0]["violations"] == []
    names = {c["name"]: c for c in docs[0]["cross_checks"]}
    assert set(names) == {"degree", "endpoints", "palindromic", "value_at_1"}
    assert names["degree"]["actual"] == "48"
    assert all(c["agree"] for c in docs[0]["cross_checks"])


def test_verify_sweep_emits_ascending_ndjson(tmp_path):
    out = tmp_path / "sweep.ndjson"
    assert run_cli("verify", "--n-min", "0", "--n-max", "6", "--json", str(out)) == 0
    docs = read_ndjson(out)
    assert [d["params"]["n"] for d in docs] == ["0", "1", "2", "3", "4", "5", "6"]
    assert all(d["status"] == "pass" for d in docs)


def test_partial_sums_subcommand(tmp_path):
    out = tmp_path / "ps.ndjson"
    assert run_cli("partial-sums", "--n", "1", "--json", str(out)) == 0
    (doc,) = read_ndjson(out)
    assert doc["data"]["partial_sums"] == [4, -1, -2, 2, -2, -1]
    assert doc["data"]["negative_elsewhere"] is True


def test_partial_sums_reports_a_nonpositive_sum(tmp_path, monkeypatch):
    # the claim's failure path: a zero partial sum at b = 3 fails the point
    exact = cli.series.residue_partial_sums
    monkeypatch.setattr(
        cli.series,
        "residue_partial_sums",
        lambda s: exact(s)[:3] + (0,) + exact(s)[4:],
    )
    out = tmp_path / "ps.ndjson"
    assert run_cli("partial-sums", "--n", "1", "--json", str(out)) == 1
    (doc,) = read_ndjson(out)
    assert doc["status"] == "fail"
    assert doc["violations"] == [
        {
            "kind": "nonpositive-partial-sum",
            "location": {"n": 1, "residue": 3},
            "value": 0,
            "expected": ">0",
        }
    ]
    assert doc["data"]["partial_sums"] == [4, -1, -2, 0, -2, -1]


def test_identity_reports_a_located_mismatch(tmp_path, monkeypatch):
    # a_3 of the q-binomial sum at m = 5 is 3; one more must be located there
    exact = cli.series.a_via_qbinomial

    def corrupted(m: int) -> IntPolynomial:
        cs = list(exact(m).coeffs)
        if m == 5:
            cs[3] += 1
        return IntPolynomial(cs)

    monkeypatch.setattr(cli.series, "a_via_qbinomial", corrupted)
    out = tmp_path / "id.ndjson"
    assert run_cli("identity", "--n", "5", "--json", str(out)) == 1
    (doc,) = read_ndjson(out)
    assert doc["status"] == "fail"
    assert doc["cross_checks"] == [
        {
            "name": "a_polynomial",
            "expected": "match",
            "actual": "mismatch at exponent 3: 4 != 3",
            "agree": False,
        }
    ]


def test_verify_structural_checks_fail_on_a_corrupted_product(tmp_path, monkeypatch):
    # a_0 + 7 breaks the endpoints, the symmetry and P_3(1) = 0, but no sign
    exact = cli.series.expand_borwein

    def corrupted(n: int):
        poly = exact(n).poly
        return cli.series.BorweinSeries(n, IntPolynomial((poly[0] + 7, *poly.coeffs[1:])))

    monkeypatch.setattr(cli.series, "expand_borwein", corrupted)
    out = tmp_path / "verify.ndjson"
    assert run_cli("verify", "--n", "3", "--json", str(out)) == 1
    (doc,) = read_ndjson(out)
    assert doc["status"] == "fail"
    assert doc["violations"] == []
    failed = {c["name"]: c["actual"] for c in doc["cross_checks"] if not c["agree"]}
    assert failed == {"endpoints": "8,1", "palindromic": "False", "value_at_1": "7"}


def bumped(values, index: int) -> tuple[int, ...]:
    """values with 1 added at index."""
    return (*values[:index], values[index] + 1, *values[index + 1 :])


def negated(values, index: int) -> tuple[int, ...]:
    """values with the sign of the one at index flipped."""
    return (*values[:index], -values[index], *values[index + 1 :])


def bumped_table(table):
    """A signed-count table with M(1, 2) one too large; signed is untouched."""
    counts = list(table.counts)
    counts[1] = bumped(counts[1], 2)
    return dataclasses.replace(table, counts=tuple(counts))


# One corrupted value per row: the command, the module and function whose
# result is corrupted, how, the exit code, and the located message on stdout
# or stderr. At n = 1, N = 6: the DP's table has 5 rows (k = 0..4), its
# M(1, 2) is 1, and its M(2) and M(3) are -2 and 2; a_{15}
# of the p = 5 eta quotient is 4, the two-term formula's value at k = 3. At
# n = 0 the mod-5 product (1-q)(1-q^2)(1-q^3)(1-q^4), of degree 10, has
# a_1 = -1; the p = 5 eta quotient has a_1 = -1 and a_6 = -1. The paper's
# k = 0 sum at n = 1 is M(0) - 1 = 3, so M(0) = 1 leaves it at 0. P_3 has
# degree 48 and keeps its terms through a_35, so a_30 = 5 is checked
# against a_18 = 5. At N = 6, c_d(0) + 1 over the four divisors d adds 4
# to the character sum 6 at (k = 0, b = 0). Row 4 of the q-binomials
# starts with (1 - q^4)/(1 - q), so 2 - q^4 leaves a remainder. P_1 has
# a_3 = 1, and P_0 squared, of degree 6, has a_3 = 4.
FAILURE_PATHS = [
    pytest.param(
        ("verify", "--n", "1"), cli.series, "expand_borwein",
        lambda s: cli.series.BorweinSeries(s.n, IntPolynomial(negated(s.poly.coeffs, 3))),
        1, '{"kind": "sign", "location": {"n": 1, "exponent": 3}, "value": -1, '
        '"expected": ">=0"}',
        id="verify-sign",
    ),
    pytest.param(
        ("verify", "--n", "3"), cli.series, "expand_borwein",
        lambda s: cli.series.BorweinSeries(s.n, IntPolynomial((*s.poly.coeffs, 1))),
        1, '{"name": "degree", "expected": "48", "actual": "49", "agree": false}',
        id="verify-degree",
    ),
    pytest.param(
        ("partial-sums", "--n", "1"), cli.series, "residue_partial_sums",
        lambda sums: (1, *sums[1:]),
        1, '{"kind": "nonpositive-partial-sum", "location": {"n": 1, "residue": 0}, '
        '"value": 0, "expected": ">0"}',
        id="partial-sums-k0",
    ),
    pytest.param(
        ("verify", "--n", "3"), qpoly, "_expand_passes", lambda cs: list(bumped(cs, 30)),
        3, "computed a_30 = 6, but its mirror a_18 gives 5",
        id="verify-mirror",
    ),
    pytest.param(
        ("modcount", "--n", "1"), modcount, "ramanujan_sum", lambda c: c + 1,
        3, "character sum 10 not divisible by N=6 at (k=0, b=0)",
        id="modcount-inexact-division",
    ),
    pytest.param(
        ("identity", "--n", "2"), qpoly, "mul_sparse_factor",
        lambda poly: IntPolynomial(bumped(poly.coeffs, 0)),
        3, "degree 4 polynomial not divisible by 1 - q^1",
        id="identity-inexact-division",
    ),
    pytest.param(
        ("modcount", "--n", "1"), modcount, "divisor_formula_table", bumped_table,
        3, "dp vs divisor-formula disagree at (N=6, k=1, b=2): 1 != 2",
        id="modcount-divisor-table",
    ),
    pytest.param(
        ("modcount", "--n", "1"), modcount, "divisor_formula_table",
        lambda table: dataclasses.replace(table, counts=table.counts[:-1]),
        3, "dp vs divisor-formula differ in shape at N=6: "
        "5 rows of length 6 != 4 rows of length 6",
        id="modcount-divisor-table-shape",
    ),
    pytest.param(
        ("modcount", "--n", "1"), modcount, "divisor_formula_eval",
        lambda signed: bumped(signed, 2),
        3, "divisor-formula eval vs dp signed disagree at (N=6, b=2): -1 != -2",
        id="modcount-divisor-eval",
    ),
    pytest.param(
        ("modcount", "--n", "1"), modcount, "enumerate_signed_counts", bumped_table,
        3, "dp vs enumeration disagree at (N=6, k=1, b=2): 1 != 2",
        id="modcount-enumeration",
    ),
    pytest.param(
        ("modcount", "--n", "1"), modcount, "residue_partial_sums",
        lambda sums: bumped(sums, 3),
        3, "partial sums vs dp signed disagree at (N=6, b=3): 3 != 2",
        id="modcount-partial-sums",
    ),
    pytest.param(
        ("stanley", "--p", "5", "--k-max", "10"), partitions, "eta_quotient_coeffs",
        lambda prefix: bumped(prefix, 15),
        1, '{"kind": "partition-formula-mismatch", "location": {"p": 5, "k": 3}, '
        '"value": 5, "expected": "4"}',
        id="stanley-partition-formula",
    ),
    pytest.param(
        ("conjecture23", "--n", "0"), cli, "expand_product",
        lambda poly: IntPolynomial(negated(poly.coeffs, 1)) if poly.degree == 10 else poly,
        1, '{"kind": "sign-mod5", "location": {"n": 0, "exponent": 1}, "value": 1, '
        '"expected": "<=0"}',
        id="conjecture23-mod5",
    ),
    pytest.param(
        ("conjecture23", "--n", "0"), cli, "expand_product",
        lambda poly: IntPolynomial(negated(poly.coeffs, 3)) if poly.degree == 6 else poly,
        1, '{"kind": "sign-squared", "location": {"n": 0, "exponent": 3}, "value": -4, '
        '"expected": ">=0"}',
        id="conjecture23-squared",
    ),
    pytest.param(
        ("coherence", "--p", "5", "--j-max", "30"), partitions, "eta_quotient_coeffs",
        lambda prefix: negated(prefix, 1),
        1, '{"kind": "sign-incoherence", "location": {"p": 5, "exponent": 1}, '
        '"value": -1, "expected": ">=0"}',
        id="coherence-sign",
    ),
]


@pytest.mark.parametrize("argv, layer, name, corrupt, code, message", FAILURE_PATHS)
def test_check_fails_at_the_corrupted_value(
    monkeypatch, capsys, argv, layer, name, corrupt, code, message
):
    exact = getattr(layer, name)
    monkeypatch.setattr(layer, name, lambda *args: corrupt(exact(*args)))
    # a q-binomial row cached by an earlier test would skip the corrupted pass
    qpoly._gaussian_row.cache_clear()
    assert run_cli(*argv, "--json", "-") == code
    out, err = capsys.readouterr()
    assert message in out + err


def test_modcount_subcommand(tmp_path):
    out = tmp_path / "mc.ndjson"
    assert run_cli("modcount", "--n", "1", "--json", str(out)) == 0
    (doc,) = read_ndjson(out)
    assert doc["status"] == "pass"
    assert doc["data"]["signed"] == [4, -1, -2, 2, -2, -1]
    assert {c["name"] for c in doc["cross_checks"]} >= {
        "dp_vs_divisor_formula",
        "signed_vs_partial_sums",
    }


def test_identity_subcommand(tmp_path):
    out = tmp_path / "id.ndjson"
    assert run_cli("identity", "--n-min", "1", "--n-max", "8", "--json", str(out)) == 0
    docs = read_ndjson(out)
    assert len(docs) == 8
    assert all(
        c["actual"] == "match" for d in docs for c in d["cross_checks"]
    )


def test_conjecture23_subcommand(tmp_path):
    out = tmp_path / "c23.ndjson"
    assert run_cli("conjecture23", "--n-min", "0", "--n-max", "5", "--json", str(out)) == 0
    docs = read_ndjson(out)
    assert len(docs) == 6
    for d in docs:
        assert d["status"] == "pass"
        n = int(d["params"]["n"])
        assert d["data"]["squared_degree"] == 6 * (n + 1) ** 2
        assert d["data"]["mod5_degree"] == 10 * (n + 1) ** 2


def test_stanley_subcommand_single_prime(tmp_path):
    out = tmp_path / "st.ndjson"
    assert run_cli("stanley", "--p", "7", "--k-max", "40", "--json", str(out)) == 0
    (doc,) = read_ndjson(out)
    assert doc["status"] == "pass"
    assert doc["data"]["quoted_offset"] == 5
    assert doc["data"]["quoted_offset_first_mismatch"] == {"k": 1, "lhs": 2, "rhs": 1}


def test_stanley_default_prime_sweep(tmp_path):
    out = tmp_path / "stall.ndjson"
    assert run_cli("stanley", "--k-max", "25", "--json", str(out)) == 0
    docs = read_ndjson(out)
    assert [d["params"]["p"] for d in docs] == ["3", "5", "7", "11", "13"]
    assert all(d["status"] == "pass" for d in docs)


def test_coherence_subcommand(tmp_path):
    out = tmp_path / "coh.ndjson"
    assert run_cli("coherence", "--j-max", "400", "--json", str(out)) == 0
    docs = read_ndjson(out)
    assert [d["params"]["p"] for d in docs] == ["2", "3", "5", "7", "11"]
    assert all(d["status"] == "pass" for d in docs)


def test_coherence_rejects_composite_p():
    assert run_cli("coherence", "--p", "6", "--j-max", "50") == 2


def test_stanley_rejects_p2():
    assert run_cli("stanley", "--p", "2", "--k-max", "10") == 2


def test_expand_csv_round_trip(tmp_path):
    out = tmp_path / "n1.csv"
    assert run_cli("expand", "--n", "1", "--csv", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["exponent", "coefficient"]
    assert len(rows) == 14
    coeffs = [int(r[1]) for r in rows[1:]]
    assert coeffs == [1, -1, -1, 1, -1, 0, 2, 0, -1, 1, -1, -1, 1]
    assert [int(r[0]) for r in rows[1:]] == list(range(13))


def test_csv_dump_of_zero_polynomial_has_one_row(tmp_path):
    out = tmp_path / "zero.csv"
    with open(out, "w", newline="") as fh:
        cli._write_csv(IntPolynomial(()), fh)
    assert out.read_bytes() == b"exponent,coefficient\n0,0\n"


def test_expand_json_includes_coefficients(tmp_path):
    out = tmp_path / "n2.ndjson"
    assert run_cli("expand", "--n", "2", "--json", str(out)) == 0
    (doc,) = read_ndjson(out)
    assert doc["data"]["degree"] == 27
    assert doc["data"]["constant_term"] == 1
    assert doc["data"]["leading_term"] == 1
    assert len(doc["data"]["coefficients"]) == 28
    assert doc["data"]["coefficients"][9] == 3


def test_expand_rejects_negative_n():
    with pytest.raises(SystemExit) as exc:
        run_cli("expand", "--n", "-3")
    assert exc.value.code == 2


def test_expand_json_and_csv_must_differ(tmp_path, monkeypatch, capsys):
    # the paths are compared as files, not as strings: ./same.txt is same.txt
    monkeypatch.chdir(tmp_path)
    both = str(tmp_path / "both")
    for json_dest, csv_dest in [(both, both), ("./same.txt", "same.txt")]:
        with pytest.raises(SystemExit) as exc:
            run_cli("expand", "--n", "2", "--json", json_dest, "--csv", csv_dest)
        assert exc.value.code == 2
        assert "--json and --csv must name different files" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_expand_unwritable_destination_fails_before_expanding(
    tmp_path, monkeypatch, capsys, flag
):
    calls: list[int] = []

    def recorder(n: int):
        calls.append(n)
        raise AssertionError("expanded before the destination was opened")

    monkeypatch.setattr(cli.series, "expand_borwein", recorder)
    dest = tmp_path / "no-such-dir" / "out"
    assert run_cli("expand", "--n", "3", flag, str(dest)) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("cannot write output: ")


def test_expand_json_then_csv_on_stdout(capsys):
    assert run_cli("expand", "--n", "0", "--json", "-", "--csv", "-") == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[0])["data"]["coefficients"] == [1, -1, -1, 1]
    assert out[1:] == ["exponent,coefficient", "0,1", "1,-1", "2,-1", "3,1"]


def test_missing_required_range_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify")
    assert exc.value.code == 2


def test_n_and_n_max_conflict():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--n", "3", "--n-max", "5")
    assert exc.value.code == 2


@pytest.mark.parametrize("n_min", ["7", "0"])
def test_n_and_n_min_conflict(n_min, capsys):
    # --n used to win silently over --n-min, even one that is not the default
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--n", "3", "--n-min", n_min)
    assert exc.value.code == 2
    assert "--n and --n-min are mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("modcount", "--n", "1", "--jobs", jobs)
    assert exc.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_identity_range_minimum_is_one():
    with pytest.raises(SystemExit) as exc:
        run_cli("identity", "--n", "0")
    assert exc.value.code == 2


def test_fresh_without_manifest_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--n", "1", "--fresh")
    assert exc.value.code == 2


def test_manifest_naming_the_json_file_is_usage_error(tmp_path, monkeypatch, capsys):
    # saving the manifest would replace the report file being written
    calls: list[int] = []

    def recorder(n: int):
        calls.append(n)
        return new_report("verify", {"n": n}).finish()

    monkeypatch.setitem(cli._SWEEPS, "verify", cli._SWEEPS["verify"][:3] + (recorder,))
    monkeypatch.chdir(tmp_path)
    for json_dest in ("out.json", str(tmp_path / "out.json"), "./sub/../out.json"):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--n-max", "3", "--json", json_dest, "--manifest", "out.json")
        assert exc.value.code == 2
        assert "--json and --manifest must name different files" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out.json").exists()


def test_manifest_beside_json_on_stdout(tmp_path, monkeypatch, capsys):
    # `--json -` is stdout, never the file named "-"
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", "--n", "1", "--json", "-", "--manifest", "-") == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"n": "1"}
    assert json.loads((tmp_path / "-").read_text())["completed"] == {"1": "pass"}


@pytest.mark.parametrize(
    "command, flag", [("stanley", "--k-max"), ("coherence", "--j-max")]
)
def test_negative_prime_sweep_bound_is_usage_error(command, flag, capsys):
    for argv in ([flag, "-1"], ["--p", "5", flag, "-2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} must be >= 0" in err
        assert "truncation" not in err


def test_unwritable_json_destination(tmp_path):
    dest = tmp_path / "no-such-dir" / "out.ndjson"
    assert run_cli("verify", "--n", "1", "--json", str(dest)) == 2


def test_unwritable_json_destination_fails_before_any_point(tmp_path, monkeypatch):
    calls: list[int] = []

    def recorder(n: int):
        calls.append(n)
        return new_report("modcount", {"n": n}).finish()

    monkeypatch.setattr(modcount, "cross_validate", recorder)
    dest = tmp_path / "no-such-dir" / "out.ndjson"
    assert run_cli("modcount", "--n-min", "0", "--n-max", "3", "--json", str(dest)) == 2
    assert calls == []


def test_unwritable_manifest_fails_before_any_point(tmp_path, monkeypatch, capsys):
    calls: list[int] = []

    def recorder(n: int):
        calls.append(n)
        return new_report("modcount", {"n": n}).finish()

    modcount_row = cli._SWEEPS["modcount"][:3] + (recorder,)
    monkeypatch.setitem(cli._SWEEPS, "modcount", modcount_row)
    dest = tmp_path / "no-such-dir" / "m.json"
    assert run_cli("modcount", "--n", "2", "--manifest", str(dest)) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("cannot write output: ")


def test_oracle_mismatch_maps_to_exit_3(monkeypatch):
    def broken(n: int):
        raise OracleMismatchError("synthetic disagreement")

    monkeypatch.setattr(modcount, "cross_validate", broken)
    assert run_cli("modcount", "--n", "1") == 3


def test_jobs_parallel_output_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    serial = tmp_path / "serial.ndjson"
    parallel = tmp_path / "parallel.ndjson"
    assert run_cli("verify", "--n-min", "0", "--n-max", "8", "--json", str(serial)) == 0
    assert (
        run_cli(
            "verify", "--n-min", "0", "--n-max", "8", "--jobs", "4",
            "--json", str(parallel),
        )
        == 0
    )
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("partial-sums", "--n-min", "18", "--n-max", "22", "--json", "-"),
        ("verify", "--n-min", "18", "--n-max", "22", "--jobs", "2", "--json", "-"),
    ],
    ids=["partial-sums", "verify-jobs-2"],
)
def test_split_expansion_output_matches_unsplit(monkeypatch, capsys, argv):
    if not qpoly._may_fork():
        pytest.skip("needs fork and a second CPU")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    assert run_cli(*argv) == 0
    unsplit = capsys.readouterr().out
    # every expansion of this process splits; --jobs workers never do
    monkeypatch.setattr(qpoly, "_SPLIT_WORK", 0)
    cuts: list[int] = []
    choose = qpoly._cut_point

    def spy(lengths):
        cuts.append(choose(lengths))
        return cuts[-1]

    monkeypatch.setattr(qpoly, "_cut_point", spy)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == unsplit
    assert len(unsplit.splitlines()) == 5
    # serially every point splits: the first from 1, each later one from
    # the point before
    assert len(cuts) == (0 if "--jobs" in argv else 5)


def per_point_ndjson(point, points) -> bytes:
    """NDJSON of each point run on its own, its products expanded from scratch."""
    lines = []
    for p in points:
        qpoly._held.clear()
        lines.append(report_to_json(point(p)) + "\n")
    return "".join(lines).encode()


def upper_indices(specs) -> list[int]:
    return [spec.upper_index for spec in specs]


@pytest.mark.parametrize("command", ["verify", "conjecture23", "identity"])
def test_chained_sweep_matches_per_point_reports(
    tmp_path, monkeypatch, fresh_expansions, command
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    out = tmp_path / "chained.ndjson"
    assert run_cli(command, "--n-min", "5", "--n-max", "25", "--json", str(out)) == 0
    # the first point's products come from scratch, every later one is chained;
    # identity at m reads P_{m-1}
    assert upper_indices(fresh_expansions) == {
        "verify": [5], "conjecture23": [5, 5], "identity": [4]
    }[command]
    point = cli._SWEEPS[command][3]
    assert out.read_bytes() == per_point_ndjson(point, range(5, 26))


@pytest.mark.parametrize("first_range, fresh_after", [((0, 3), []), ((4, 6), [0, 7])])
def test_manifest_resume_expands_fresh_after_a_gap(
    tmp_path, monkeypatch, fresh_expansions, first_range, fresh_after
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    manifest = tmp_path / "m.json"
    lo, hi = first_range
    assert (
        run_cli(
            "verify", "--n-min", str(lo), "--n-max", str(hi),
            "--manifest", str(manifest),
        )
        == 0
    )
    out = tmp_path / "resumed.ndjson"
    # the held P_hi grows into P_{hi+1}; a gap or a lower index starts afresh
    del fresh_expansions[:]
    assert (
        run_cli(
            "verify", "--n-min", "0", "--n-max", "9",
            "--manifest", str(manifest), "--json", str(out),
        )
        == 0
    )
    assert upper_indices(fresh_expansions) == fresh_after
    remaining = [n for n in range(10) if not lo <= n <= hi]
    assert out.read_bytes() == per_point_ndjson(cli._SWEEPS["verify"][3], remaining)


@pytest.mark.parametrize(
    "command, lo",
    [
        ("verify", 0),
        ("conjecture23", 0),
        ("identity", 1),
        ("partial-sums", 0),
        ("modcount", 0),
    ],
)
def test_jobs_blocks_match_serial(tmp_path, monkeypatch, command, lo):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    serial = tmp_path / "serial.ndjson"
    parallel = tmp_path / "parallel.ndjson"
    span = ("--n-min", str(lo), "--n-max", "20")
    assert run_cli(command, *span, "--json", str(serial)) == 0
    assert run_cli(command, *span, "--jobs", "3", "--json", str(parallel)) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize(
    "cpus, affinity, expected",
    [
        (4, {0, 1, 2, 3}, [(4, 6)]),
        (8, {0, 1}, [(2, 11)]),
        (2, {0}, []),
        (4, None, [(4, 6)]),
        (None, None, []),
    ],
)
def test_jobs_clamped_to_cpu_count(tmp_path, monkeypatch, cpus, affinity, expected):
    requested: list[tuple[int, int]] = []

    class InlinePool:
        """Records max_workers and chunksize and runs map inline, starting no process."""

        def __init__(self, max_workers: int) -> None:
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            return None

        def map(self, fn, items, chunksize):
            requested.append((self.max_workers, chunksize))
            return map(fn, items)

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:  # no affinity set, as on platforms without one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    # _run_points imports the pool class where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    serial = tmp_path / "serial.ndjson"
    wide = tmp_path / "wide.ndjson"
    span = ("--n-min", "0", "--n-max", "20")
    assert run_cli("verify", *span, "--json", str(serial)) == 0
    assert run_cli("verify", *span, "--jobs", "64", "--json", str(wide)) == 0
    # 21 points in chunks of 6 for 4 workers, or of 11 for 2; the workers
    # are bounded by the affinity set where there is one, and otherwise by
    # the cpu count. One worker, as for one usable CPU or an unknown cpu
    # count, needs no pool.
    assert requested == expected
    assert serial.read_bytes() == wide.read_bytes()


def test_reruns_byte_identical_under_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    first = tmp_path / "a.ndjson"
    second = tmp_path / "b.ndjson"
    for dest in (first, second):
        assert run_cli("modcount", "--n-min", "0", "--n-max", "3", "--json", str(dest)) == 0
    assert first.read_bytes() == second.read_bytes()
    (doc, *_) = read_ndjson(first)
    assert doc["elapsed"] == 0.0
    assert doc["started"] == "2025-08-19T08:00:00Z"


def test_manifest_resume_skips_completed(tmp_path):
    manifest = tmp_path / "sweep.manifest.json"
    out = tmp_path / "first.ndjson"
    assert (
        run_cli(
            "verify", "--n-min", "0", "--n-max", "6",
            "--manifest", str(manifest), "--json", str(out),
        )
        == 0
    )
    assert len(read_ndjson(out)) == 7
    saved = json.loads(manifest.read_text())
    assert saved["format"] == 1
    assert sorted(map(int, saved["completed"])) == list(range(7))
    assert set(saved["completed"].values()) == {"pass"}

    out2 = tmp_path / "second.ndjson"
    assert (
        run_cli(
            "verify", "--n-min", "0", "--n-max", "10",
            "--manifest", str(manifest), "--json", str(out2),
        )
        == 0
    )
    docs = read_ndjson(out2)
    assert [d["params"]["n"] for d in docs] == ["7", "8", "9", "10"]
    saved = json.loads(manifest.read_text())
    assert sorted(map(int, saved["completed"])) == list(range(11))


def test_aborted_sweep_keeps_finished_points(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    manifest = tmp_path / "m.json"
    out = tmp_path / "out.ndjson"
    span = ("--n-min", "0", "--n-max", "5", "--manifest", str(manifest))
    cross_validate = modcount.cross_validate

    def fails_at_3(n: int):
        if n == 3:
            raise OracleMismatchError("synthetic disagreement at n = 3")
        return cross_validate(n)

    monkeypatch.setattr(modcount, "cross_validate", fails_at_3)
    assert run_cli("modcount", *span, "--json", str(out)) == 3
    assert out.read_bytes() == per_point_ndjson(cli._SWEEPS["modcount"][3], range(3))
    saved = json.loads(manifest.read_text())
    assert set(map(int, saved["completed"])) == {0, 1, 2}

    monkeypatch.setattr(modcount, "cross_validate", cross_validate)
    rerun = tmp_path / "rerun.ndjson"
    assert run_cli("modcount", *span, "--json", str(rerun)) == 0
    assert rerun.read_bytes() == per_point_ndjson(cli._SWEEPS["modcount"][3], range(3, 6))
    saved = json.loads(manifest.read_text())
    assert set(map(int, saved["completed"])) == set(range(6))


def test_range_sweep_streams_each_point(tmp_path, monkeypatch):
    out = tmp_path / "out.ndjson"
    lines_before: dict[int, int] = {}

    def recorder(n: int):
        lines_before[n] = len(out.read_bytes().splitlines())
        return new_report("modcount", {"n": n}).finish()

    monkeypatch.setattr(modcount, "cross_validate", recorder)
    assert run_cli("modcount", "--n-min", "4", "--n-max", "9", "--json", str(out)) == 0
    assert lines_before == {n: n - 4 for n in range(4, 10)}


def test_chained_sweep_streams_each_point(tmp_path, monkeypatch, fresh_expansions):
    out = tmp_path / "out.ndjson"
    lines_before: dict[int, int] = {}
    expand_borwein = cli.series.expand_borwein

    def recording_expand(n: int):
        lines_before[n] = len(out.read_bytes().splitlines())
        return expand_borwein(n)

    monkeypatch.setattr(cli.series, "expand_borwein", recording_expand)
    assert run_cli("verify", "--n-min", "2", "--n-max", "8", "--json", str(out)) == 0
    assert lines_before == {n: n - 2 for n in range(2, 9)}
    assert upper_indices(fresh_expansions) == [2]
    assert len(read_ndjson(out)) == 7


def test_manifest_mismatch_requires_fresh(tmp_path):
    manifest = tmp_path / "m.json"
    assert run_cli("verify", "--n", "1", "--manifest", str(manifest)) == 0
    # same file, different command: parameters hash differently
    assert run_cli("partial-sums", "--n", "1", "--manifest", str(manifest)) == 2
    assert (
        run_cli("partial-sums", "--n", "1", "--manifest", str(manifest), "--fresh") == 0
    )
    saved = json.loads(manifest.read_text())
    assert saved["command"] == "partial-sums"


# _params_hash("verify") as every earlier version wrote it; manifests they
# left behind load only while this stays the same
VERIFY_MANIFEST_HASH = "0d2052c3eb7ec701a2a0599da8fae5eb7c129a9fc457ac868b68091129c3d9ca"


def verify_manifest(completed: object) -> str:
    return json.dumps(
        {"format": 1, "params_hash": VERIFY_MANIFEST_HASH, "completed": completed}
    )


def test_manifest_corrupt_file_is_parameter_error(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    bodies = [
        "{not json",
        "[]",
        verify_manifest({"0": "bogus"}),
        verify_manifest({"zero": "pass"}),
    ]
    for body in bodies:
        manifest.write_text(body)
        capsys.readouterr()
        assert run_cli("verify", "--n", "1", "--manifest", str(manifest)) == 2, body
        assert capsys.readouterr().err.startswith("error: "), body


def test_manifest_hash_is_stable(tmp_path):
    manifest = tmp_path / "m.json"
    assert cli.Manifest(str(manifest), "verify").hash == VERIFY_MANIFEST_HASH
    manifest.write_text(verify_manifest({"0": "pass"}))
    out = tmp_path / "out.ndjson"
    assert (
        run_cli(
            "verify", "--n-min", "0", "--n-max", "2",
            "--manifest", str(manifest), "--json", str(out),
        )
        == 0
    )
    assert [d["params"]["n"] for d in read_ndjson(out)] == ["1", "2"]


def test_ndjson_to_stdout(capsys):
    assert run_cli("verify", "--n", "1", "--json", "-") == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["command"] == "verify"
    assert list(doc.keys())[:3] == ["command", "params", "status"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_progress_lines_go_to_stderr(capsys):
    assert run_cli("verify", "--n", "2") == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify n=2 pass" in captured.err


RANGE_OPTIONS = {
    "--n": None,
    "--n-min": None,
    "--n-max": None,
    "--json": None,
    "--jobs": 1,
    "--manifest": None,
    "--fresh": False,
}


@pytest.mark.parametrize(
    "command, options, lowest",
    [
        ("expand", {"--n": None, "--json": None, "--csv": None}, 0),
        ("verify", RANGE_OPTIONS, 0),
        ("partial-sums", RANGE_OPTIONS, 0),
        ("modcount", RANGE_OPTIONS, 0),
        ("identity", RANGE_OPTIONS, 1),
        ("conjecture23", RANGE_OPTIONS, 0),
        ("stanley", {"--p": None, "--k-max": 100, "--json": None}, None),
        ("coherence", {"--p": None, "--j-max": 2000, "--json": None}, None),
    ],
)
def test_subcommand_parser_shape(command, options, lowest, tmp_path):
    (subparsers,) = [
        a
        for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    sub = subparsers.choices[command]
    actual = {
        a.option_strings[-1]: a.default
        for a in sub._actions
        if not isinstance(a, argparse._HelpAction)
    }
    assert actual == options
    assert all(len(a.option_strings) == 1 for a in sub._actions[1:])
    if lowest is not None:
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--n", str(lowest - 1))
        assert exc.value.code == 2
        assert run_cli(command, "--n", str(lowest)) == 0
        if command in cli._SWEEPS:
            # without --n-min a sweep starts at the lowest index
            out = tmp_path / "out.ndjson"
            assert run_cli(command, "--n-max", str(lowest), "--json", str(out)) == 0
            label = cli._SWEEPS[command][2]
            assert [doc["params"] for doc in read_ndjson(out)] == [{label: str(lowest)}]
    else:
        for flag, value in (("--jobs", "2"), ("--manifest", "m.json")):
            with pytest.raises(SystemExit) as exc:
                run_cli(command, "--p", "5", flag, value)
            assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, worker, bound",
    [
        ("stanley", "verify_stanley", "--k-max"),
        ("coherence", "sign_coherence_check", "--j-max"),
    ],
)
def test_prime_workers_looked_up_at_call_time(monkeypatch, command, worker, bound):
    calls: list[tuple[int, int]] = []

    def recorder(p: int, limit: int):
        calls.append((p, limit))
        return new_report(command, {"p": p}).finish()

    monkeypatch.setattr(partitions, worker, recorder)
    assert run_cli(command, "--p", "5", bound, "30") == 0
    assert calls == [(5, 30)]


@pytest.mark.parametrize(
    "command, module, worker",
    [
        ("partial-sums", "series", "verify_partial_sums"),
        ("modcount", "modcount", "cross_validate"),
    ],
)
def test_range_workers_looked_up_at_call_time(monkeypatch, command, module, worker):
    calls: list[int] = []

    def recorder(n: int):
        calls.append(n)
        return new_report(command, {"n": n}).finish()

    monkeypatch.setattr(importlib.import_module(f"borwein.{module}"), worker, recorder)
    assert run_cli(command, "--n-min", "2", "--n-max", "3") == 0
    assert calls == [2, 3]
