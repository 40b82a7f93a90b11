"""End-to-end command-line behavior: exit codes, outputs, manifests."""

from __future__ import annotations

import csv
import json

import pytest

import borwein.cli as cli
from borwein import OracleMismatchError, ProductSpec, expand_product
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


def test_missing_required_range_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify")
    assert exc.value.code == 2


def test_n_and_n_max_conflict():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--n", "3", "--n-max", "5")
    assert exc.value.code == 2


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


def test_unwritable_json_destination(tmp_path):
    dest = tmp_path / "no-such-dir" / "out.ndjson"
    assert run_cli("verify", "--n", "1", "--json", str(dest)) == 2


def test_oracle_mismatch_maps_to_exit_3(monkeypatch):
    def broken(n: int):
        raise OracleMismatchError("synthetic disagreement")

    monkeypatch.setattr(cli, "modcount_one", broken)
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


def per_point_ndjson(one, points) -> bytes:
    return "".join(report_to_json(one(p)) + "\n" for p in points).encode()


def test_chained_products_match_fresh_expansion(series_upto_100):
    def borwein_fresh(doc, n, poly):
        return poly == series_upto_100[n].poly

    def conjecture23_fresh(doc, n, squared, mod5):
        return squared == expand_product(
            ProductSpec(modulus=3, residues={1, 2}, upper_index=n, multiplicity=2)
        ) and mod5 == expand_product(
            ProductSpec(modulus=5, residues={1, 2, 3, 4}, upper_index=n)
        )

    points = range(61)
    assert cli._chain(
        "verify", "n", points, cli._borwein_start, cli._borwein_steps, borwein_fresh
    ) == [True] * 61
    assert cli._chain(
        "conjecture23",
        "n",
        points,
        cli._conjecture23_start,
        cli._conjecture23_steps,
        conjecture23_fresh,
    ) == [True] * 61


@pytest.mark.parametrize(
    "command, one",
    [
        ("verify", cli.verify_one),
        ("conjecture23", cli.conjecture23_one),
        ("identity", cli.identity_one),
    ],
)
def test_chained_sweep_matches_per_point_reports(tmp_path, monkeypatch, command, one):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    out = tmp_path / "chained.ndjson"
    assert run_cli(command, "--n-min", "5", "--n-max", "25", "--json", str(out)) == 0
    assert out.read_bytes() == per_point_ndjson(one, range(5, 26))


@pytest.mark.parametrize("first_range", [(0, 3), (4, 6)])
def test_manifest_resume_chains_through_completed_points(
    tmp_path, monkeypatch, first_range
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
    assert (
        run_cli(
            "verify", "--n-min", "0", "--n-max", "9",
            "--manifest", str(manifest), "--json", str(out),
        )
        == 0
    )
    remaining = [n for n in range(10) if not lo <= n <= hi]
    assert out.read_bytes() == per_point_ndjson(cli.verify_one, remaining)


@pytest.mark.parametrize(
    "command, lo", [("verify", 0), ("conjecture23", 0), ("identity", 1)]
)
def test_jobs_blocks_match_serial(tmp_path, monkeypatch, command, lo):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    serial = tmp_path / "serial.ndjson"
    parallel = tmp_path / "parallel.ndjson"
    span = ("--n-min", str(lo), "--n-max", "20")
    assert run_cli(command, *span, "--json", str(serial)) == 0
    assert run_cli(command, *span, "--jobs", "3", "--json", str(parallel)) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("cpus, expected", [(4, [4]), (None, [])])
def test_jobs_clamped_to_cpu_count(tmp_path, monkeypatch, cpus, expected):
    requested: list[int] = []

    class InlinePool:
        """Records max_workers and runs map inline, starting no process."""

        def __init__(self, max_workers: int) -> None:
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755590400")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    serial = tmp_path / "serial.ndjson"
    wide = tmp_path / "wide.ndjson"
    span = ("--n-min", "0", "--n-max", "20")
    assert run_cli("verify", *span, "--json", str(serial)) == 0
    assert run_cli("verify", *span, "--jobs", "64", "--json", str(wide)) == 0
    # an unknown cpu count means one worker, which needs no pool
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


def test_manifest_corrupt_file_is_parameter_error(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text("{not json")
    assert run_cli("verify", "--n", "1", "--manifest", str(manifest)) == 2


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
