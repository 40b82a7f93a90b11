#!/usr/bin/env python3
"""Benchmark of the borwein command line on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record

A rep runs the workload's commands (perfbench/design.json) one after
another, each in a fresh child process, and checks every report line
against perfbench/reference.json. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1
untraced reps alternate with reps traced by perfbench/spans.py, and the
metrics are the per-layer ones. --record rewrites the reference from
every command any seed can produce.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import span_summary

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
MIN_REPS = 3
SETUP_CHILDREN = 7
SETUP_CODE = "import borwein.cli as cli; cli._build_parser()"
PLACEHOLDER = re.compile(r"\{(\w+)\}")
EXPAND_LOG = re.compile(r"^expand n=(\d+) degree=(-?\d+) (\w+)$", re.M)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fill(template: list[str], values: dict[str, int]) -> list[str]:
    """Substitute band values; placeholders without a value (the CSV path) stay."""
    return [
        PLACEHOLDER.sub(lambda m: str(values.get(m.group(1), m.group(0))), arg)
        for arg in template
    ]


def seed_values(workload: str, band: dict[str, list[int]], seed: int) -> dict[str, int]:
    rng = random.Random(f"{workload}:{seed}")
    return {name: rng.choice(band[name]) for name in sorted(band)}


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def point_key(record: dict) -> str:
    return f"{record['command']} {json.dumps(record['params'], sort_keys=True)}"


@dataclass
class CommandRun:
    command: list[str]
    returncode: int
    wall_s: float
    first_line_s: float | None
    stdout: bytes
    stderr: str
    csv_sha256: str | None
    csv_bytes: int
    trace: dict | None


class Bench:
    def __init__(self, design: dict) -> None:
        check = design["output_check"]
        self.claim_fields = check["claim_fields"]
        self.claim_data_keys = check["claim_data_keys"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["SOURCE_DATE_EPOCH"] = check["source_date_epoch"]

    # -- child processes ---------------------------------------------------

    def run_command(self, command: list[str], trace_id: str | None = None) -> CommandRun:
        csv_path = WORK / "expand.csv"
        args = [str(csv_path) if a == "{csv}" else a for a in command]
        if trace_id is None:
            argv = [sys.executable, "-m", "borwein.cli", *args]
        else:
            spans_path = WORK / "spans" / f"{trace_id}.json"
            argv = [sys.executable, str(HERE / "spans.py"), str(spans_path), trace_id, "--", *args]
        chunks: list[bytes] = []
        first_line_s = None
        err_path = WORK / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env) as proc:
                try:
                    fd = proc.stdout.fileno()
                    while chunk := os.read(fd, 1 << 16):
                        if first_line_s is None and b"\n" in chunk:
                            first_line_s = time.perf_counter() - start
                        chunks.append(chunk)
                    returncode = proc.wait()
                except BaseException:
                    proc.kill()
                    raise
            wall_s = time.perf_counter() - start
        csv_sha256, csv_bytes = None, 0
        if "{csv}" in command and csv_path.exists():
            data = csv_path.read_bytes()
            csv_sha256, csv_bytes = hashlib.sha256(data).hexdigest(), len(data)
            csv_path.unlink()
        trace = None
        if trace_id is not None and returncode == 0:
            trace = load_json(spans_path)
        return CommandRun(
            command=command,
            returncode=returncode,
            wall_s=wall_s,
            first_line_s=first_line_s,
            stdout=b"".join(chunks),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            csv_sha256=csv_sha256,
            csv_bytes=csv_bytes,
            trace=trace,
        )

    def setup_s(self) -> float:
        """Median launch-to-exit time of a child that imports and builds the parser."""
        argv = [sys.executable, "-c", SETUP_CODE]
        subprocess.run(argv, env=self.env, check=True)  # warm-up: compiles bytecode
        times = []
        for _ in range(SETUP_CHILDREN):
            start = time.perf_counter()
            subprocess.run(argv, env=self.env, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    # -- output check ------------------------------------------------------

    def records(self, run: CommandRun) -> list[dict | None]:
        """Claim records of a command's points, in output order; None if unreadable."""
        if "{csv}" in run.command:
            return [
                {
                    "command": "expand",
                    "params": {"n": n},
                    "status": status,
                    "violations": [],
                    "cross_checks": [],
                    "data": {"degree": int(degree)},
                    "csv_sha256": run.csv_sha256,
                }
                for n, degree, status in EXPAND_LOG.findall(run.stderr)
            ]
        out: list[dict | None] = []
        for line in run.stdout.decode("utf-8", errors="replace").splitlines():
            try:
                doc = json.loads(line)
                record = {f: doc[f] for f in self.claim_fields}
                record["data"] = {
                    k: doc["data"][k] for k in self.claim_data_keys if k in doc["data"]
                }
            except (ValueError, KeyError, TypeError):
                record = None
            out.append(record)
        return out

    def check(self, run: CommandRun, reference: dict) -> tuple[int, list[str]]:
        """Attempted points and one message per failed point."""
        expected = reference["commands"].get(" ".join(run.command))
        if expected is None:
            raise BenchError(f"no reference for {' '.join(run.command)}; rerun --record")
        if run.returncode != 0:
            return len(expected), [
                f"{' '.join(run.command)}: exit {run.returncode}: {run.stderr[-500:]}"
            ] * len(expected)
        got = self.records(run)
        problems = []
        for i, key in enumerate(expected):
            record = got[i] if i < len(got) else None
            if record is None:
                problems.append(f"{key}: missing or unreadable report line")
            elif point_key(record) != key:
                problems.append(f"{key}: got {point_key(record)} in its place")
            elif record["status"] != "pass":
                problems.append(f"{key}: status {record['status']}")
            elif digest(record) != reference["points"][key]:
                problems.append(f"{key}: claim fields differ from the reference")
        return len(expected), problems


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_values(runs: list[CommandRun], points: int, failed: int) -> dict[str, float]:
    """Every per-layer value one traced rep gives, keyed by metric name.

    Traced functions and layers that recorded no span read 0.
    """
    per_name: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    spans = 0
    self_total = 0.0
    for run in runs:
        for name in run.trace["traced"]:
            per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        try:
            summary, root_s = span_summary(run.trace)
        except ValueError as exc:
            raise BenchError(f"coverage: {exc}") from exc
        self_total += root_s
        spans += len(run.trace["name"])
        for name, entry in summary.items():
            acc = per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                acc[field] += value
        for name, value in run.trace["counters"].items():
            if name == "qpoly.max_coeff_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    values: dict[str, float] = {}
    for name, entry in per_name.items():
        for field, value in entry.items():
            values[f"{name}.{field}"] = value
        layer = name.split(".")[0]
        values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + entry["self_s"]
    values.update(counters)
    folded = counters.get("series.residue_partial_sums.coeffs_folded", 0)
    returned = counters.get("series.residue_partial_sums.sums_returned", 0)
    values["series.residue_partial_sums.coeffs_per_sum"] = folded / returned if returned else 0
    wall = sum(r.wall_s for r in runs)
    values["trace.wall_s"] = wall
    values["trace.unaccounted_s"] = wall - self_total
    values["trace.counters_s"] = per_name.get("bench.counters", {}).get("self_s", 0.0)
    values["trace.spans"] = spans
    values["cli.output_bytes"] = sum(len(r.stdout) + r.csv_bytes for r in runs)
    values["cli.points"] = points
    values["cli.points_failed"] = failed
    return values


def coverage_check(workload: dict, tracing: dict, values: dict[str, float], commands: int) -> None:
    """Fail loudly if a listed function left no span or the self times miss the wall."""
    silent = [f for f in workload["traced_functions"] if not values.get(f"{f}.calls")]
    if silent:
        raise BenchError(f"coverage: no spans recorded for {', '.join(silent)}")
    slack = tracing["coverage_slack"]
    wall, unaccounted = values["trace.wall_s"], values["trace.unaccounted_s"]
    limit = slack["per_command_s"] * commands + slack["share_of_wall"] * wall
    if not 0 <= unaccounted <= limit:
        raise BenchError(
            f"coverage: layer self times sum to {wall - unaccounted:.3f} s against "
            f"traced wall {wall:.3f} s; the gap must lie in [0, {limit:.3f}] s"
        )


# ---------------------------------------------------------------------------
# modes


def record(bench: Bench, design: dict) -> None:
    """Run every command any seed can produce and write perfbench/reference.json."""
    commands: dict[str, list[str]] = {}
    points: dict[str, str] = {}
    for name, workload in design["workloads"].items():
        band = workload["seed_band"]
        for template in workload["commands"]:
            used = sorted({p for arg in template for p in PLACEHOLDER.findall(arg) if p in band})
            for combo in itertools.product(*(band[p] for p in used)):
                command = fill(template, dict(zip(used, combo)))
                run = bench.run_command(command)
                if run.returncode != 0:
                    raise BenchError(f"{' '.join(command)} exited {run.returncode}: {run.stderr}")
                keys = []
                for rec in bench.records(run):
                    if rec is None or rec["status"] != "pass":
                        raise BenchError(f"{' '.join(command)}: bad point {rec}")
                    key, value = point_key(rec), digest(rec)
                    if points.setdefault(key, value) != value:
                        raise BenchError(f"{key}: output differs between commands")
                    keys.append(key)
                commands[" ".join(command)] = keys
                print(f"{name}: {' '.join(command)}: {len(keys)} points", file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "points": points}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(bench: Bench, design: dict, config: dict, args) -> dict:
    workload = design["workloads"][args.workload]
    values = seed_values(args.workload, workload["seed_band"], args.seed)
    commands = [fill(t, values) for t in workload["commands"]]
    reference = load_json(HERE / "reference.json")
    print(f"{args.workload} seed {args.seed}: {values}")
    attempted, problems = 0, []

    def rep(trace_id: str | None) -> tuple[list[CommandRun], int, int]:
        nonlocal attempted
        runs = [
            bench.run_command(c, trace_id and f"{trace_id}-cmd{j}")
            for j, c in enumerate(commands)
        ]
        points, failed = 0, 0
        for run in runs:
            n, bad = bench.check(run, reference)
            points += n
            failed += len(bad)
            problems.extend(bad)
        attempted += points
        return runs, points, failed

    for old in (WORK / "spans").glob("*.json"):
        old.unlink()
    setup = bench.setup_s()
    start = time.perf_counter()
    untraced: list[list[CommandRun]] = []
    traced: list[dict[str, float]] = []
    while True:
        untraced.append(rep(None)[0])
        if args.trace:
            runs, points, failed = rep(f"{args.workload}-seed{args.seed}-rep{len(traced)}")
            if any(r.trace is None for r in runs):
                raise BenchError(f"traced command failed: {problems[:3]}")
            traced.append(layer_values(runs, points, failed))
            coverage_check(workload, design["tracing"], traced[-1], len(commands))
            done = len(traced) >= 1
        else:
            done = len(untraced) >= MIN_REPS
        elapsed = time.perf_counter() - start
        step = elapsed / len(untraced)
        if done and elapsed + step > args.seconds:
            break
    walls = [sum(r.wall_s for r in runs) for runs in untraced]
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"ops_failed_frac = {len(problems)}/{attempted} = {len(problems) / attempted} (fraction)")
    if not args.trace:
        firsts = [runs[0].first_line_s or runs[0].wall_s for runs in untraced]
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        measured = {
            "wall_s": statistics.median(walls),
            "first_report_s": statistics.median(firsts),
            "peak_rss_mib": rss,
            "setup_s": setup,
        }
        print(f"reps: {len(walls)}; wall_s per rep: {[round(w, 3) for w in walls]}")
        wanted = config["end_to_end"]
    else:
        measured = {}
        for name in traced[0]:
            column = [t[name] for t in traced]
            if name.endswith((".s", "_s")):
                measured[name] = statistics.median(column)
            elif len(set(column)) > 1:
                raise BenchError(f"count {name} differs between traced reps: {column}")
            else:
                measured[name] = column[0]
        measured["trace.untraced_wall_s"] = statistics.median(walls)
        measured["trace.overhead_s"] = measured["trace.wall_s"] - measured["trace.untraced_wall_s"]
        wanted = config["per_layer"]
        for name in sorted(k for k in measured if k.endswith("self_s") and k.count(".") == 1):
            print(f"self time {name[:-7]:12s} {measured[name]:9.4f} s")
        print(f"tracing overhead: {measured['trace.overhead_s']:.4f} s "
              f"(traced {measured['trace.wall_s']:.4f} s, untraced {measured['trace.untraced_wall_s']:.4f} s)")
    unknown = [spec["name"] for spec in wanted if spec["name"] not in measured]
    if unknown:
        raise BenchError(f"no measurement named {', '.join(unknown)}")
    metrics = {}
    for spec in wanted:
        value = measured[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value} {spec['unit']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite perfbench/reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "borwein" / "cli.py").is_file():
        print(f"error: no borwein sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    design = load_json(HERE / "design.json")
    if not args.record and args.workload not in design["workloads"]:
        parser.error(f"--workload must be one of {sorted(design['workloads'])}")
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    bench = Bench(design)
    try:
        if args.record:
            record(bench, design)
            return 0
        result = measure(bench, design, load_json(ROOT / "BENCHMARK.json"), args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
