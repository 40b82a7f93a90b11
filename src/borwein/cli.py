"""Command-line front end.

One subcommand per claim family, each emitting machine-readable
ReportDocuments (NDJSON: one JSON object per parameter point, ascending)
plus optional CSV coefficient dumps. `expand` dumps one product; every
other subcommand is a sweep and one row of a table, _SWEEPS (ranges of
n) or _PRIME_SWEEPS (primes p). The parser is built from the tables,
and one driver, _sweep, runs any row: points, manifest, pool, log, emit
and exit code. A row names the claim function that returns one point's
report, by module and name; _claim_point looks it up when the point
runs, so a function rebound after import (by a tracer or a test) is the
one that runs. Serially every point's line is logged, written, flushed
and recorded in the manifest as soon as the point finishes; --jobs
gives each worker one contiguous chunk of the range and writes a
chunk's lines, in ascending order, once that chunk is done. Output is
order-deterministic; with SOURCE_DATE_EPOCH set, reruns are
byte-identical. A run that aborts keeps the lines and manifest entries
of the points it finished.

A command loads only what it runs. This module imports only report at
load time; a claim's module loads when its first point runs, series
when expand runs, and the standard library that one path needs (the
process pool for --jobs, hashlib for --manifest) loads in that path.

Exit codes: 0 all checks pass; 1 a claim check failed; 2 usage or
parameter error (including unwritable destinations and manifest
mismatches); 3 internal cross-validation failure (oracle mismatch,
inexact division, or a mirrored expansion whose overlap disagrees); 4
the helper process that runs the first half of a split expansion's
passes exited before returning its terms.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import partial
from importlib import import_module
from itertools import count
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TextIO

from .report import TOOL_VERSION, ReportDocument, new_report, report_to_json

if TYPE_CHECKING:
    from .qpoly import IntPolynomial

__all__ = ["run", "main"]

MANIFEST_FORMAT = 1


# ---------------------------------------------------------------------------
# manifest


def _params_hash(command: str) -> str:
    # "params" stays in the blob, always empty, so older manifests still load
    import hashlib

    blob = json.dumps(
        {"command": command, "params": {}, "tool_version": TOOL_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ManifestError(Exception):
    pass


class Manifest:
    """Per-n completion ledger keyed by a hash of command and tool version.

    Range endpoints and --jobs are not part of the hash: extending a
    range reuses every completed entry. Another command or tool version
    invalidates the file, which then requires --fresh.
    """

    def __init__(self, path: str, command: str):
        self.path = path
        self.command = command
        self.hash = _params_hash(command)
        self.completed: dict[int, str] = {}

    def load(self, fresh: bool) -> None:
        if fresh or not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"unreadable manifest {self.path}: {exc}") from exc
        completed = raw.get("completed", {}) if isinstance(raw, dict) else None
        if not isinstance(completed, dict) or not all(
            k.isdecimal() and isinstance(v, str) and v in _EXIT_CODES
            for k, v in completed.items()
        ):
            raise ManifestError(
                f"malformed manifest {self.path}: expected an object whose "
                f"'completed' maps point indices to one of {sorted(_EXIT_CODES)}"
            )
        if raw.get("format") != MANIFEST_FORMAT or raw.get("params_hash") != self.hash:
            raise ManifestError(
                f"manifest {self.path} does not match these parameters; "
                "pass --fresh to discard it"
            )
        self.completed = {int(k): v for k, v in completed.items()}

    def save(self) -> None:
        payload = {
            "format": MANIFEST_FORMAT,
            "command": self.command,
            "params_hash": self.hash,
            "tool_version": TOOL_VERSION,
            "completed": {str(n): s for n, s in sorted(self.completed.items())},
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# subcommand tables
#
# _SWEEPS: range command -> (help, lowest index, point label, module,
# claim), the claim called as claim(n).
# _PRIME_SWEEPS: prime command -> (help, bound flag, its default, module,
# claim, default primes), the claim called as claim(p, bound).
# A claim is a public function of borwein.<module>, named here and
# looked up by _claim_point when its point runs.

_SWEEPS: dict[str, tuple[str, int, str, str, str]] = {
    "verify": (
        "sign-pattern sweep over a range of n", 0, "n", "series", "verify_sign_pattern"
    ),
    "partial-sums": (
        "strict positivity of residue-class partial sums",
        0, "n", "series", "verify_partial_sums",
    ),
    "modcount": (
        "cross-validate the signed subset-sum evaluators",
        0, "n", "modcount", "cross_validate",
    ),
    "identity": (
        "alternating q-binomial form of the A-polynomial",
        1, "m", "series", "verify_identity",
    ),
    "conjecture23": (
        "sign sweeps for the squared and mod-5 products",
        0, "n", "series", "verify_conjecture23",
    ),
}

_PRIME_SWEEPS: dict[str, tuple[str, str, int, str, str, tuple[int, ...]]] = {
    "stanley": (
        "two-term partition formula for a_{p,pk}",
        "--k-max", 100, "partitions", "verify_stanley", (3, 5, 7, 11, 13),
    ),
    "coherence": (
        "sign coherence of pairs at distance p",
        "--j-max", 2000, "partitions", "sign_coherence_check", (2, 3, 5, 7, 11),
    ),
}

_EXIT_CODES = {"pass": 0, "fail": 1, "error": 3}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borwein",
        description="Exact verification sweeps for Borwein-product sign claims.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {TOOL_VERSION}"
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("expand", help="expand the product for one n and dump it")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--json", metavar="PATH|-")
    sub.add_argument("--csv", metavar="PATH|-", help="exponent,coefficient rows")

    for command, (help_text, *_) in _SWEEPS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--n", type=int, help="single index")
        sub.add_argument("--n-min", type=int, help="sweep start")
        sub.add_argument("--n-max", type=int, help="sweep end (inclusive)")
        sub.add_argument("--json", metavar="PATH|-", help="write NDJSON reports here")
        sub.add_argument("--jobs", type=int, default=1, help="parallel workers")
        sub.add_argument("--manifest", metavar="PATH", help="resumable completion ledger")
        sub.add_argument(
            "--fresh", action="store_true", help="discard a mismatched or stale manifest"
        )

    for command, (help_text, flag, default, *_, primes) in _PRIME_SWEEPS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--p", type=int, help=f"one prime (default sweep {primes})")
        sub.add_argument(flag, type=int, default=default, dest="bound")
        sub.add_argument("--json", metavar="PATH|-")
        # no such options: the driver runs these serially, without a manifest
        sub.set_defaults(jobs=1, manifest=None, fresh=False)

    return parser


def _resolve_range(
    parser: argparse.ArgumentParser, args: argparse.Namespace, minimum: int
) -> list[int]:
    if args.n is not None:
        for flag, value in (("--n-max", args.n_max), ("--n-min", args.n_min)):
            if value is not None:
                parser.error(f"--n and {flag} are mutually exclusive")
        if args.n < minimum:
            parser.error(f"--n must be >= {minimum}")
        return [args.n]
    if args.n_max is None:
        parser.error("one of --n or --n-max is required")
    n_min = minimum if args.n_min is None else args.n_min
    if args.n_max < n_min or n_min < minimum:
        parser.error(f"need {minimum} <= --n-min <= --n-max")
    return list(range(n_min, args.n_max + 1))


# ---------------------------------------------------------------------------
# drivers


def _sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run a command of either table; returns the exit code.

    The points run in ascending order. Serially each point is logged,
    written and recorded in the manifest as soon as it finishes. Under
    --jobs, min(jobs, len(points), _usable_cpus()) workers each take one
    contiguous chunk of the range, whose first point expands from scratch
    unless that worker has just run the point before it; a chunk's
    points go out once the chunk is done. The --json destination is
    opened, and the manifest written once, before any point runs, so an
    unwritable one fails at once. The exit code is that of the worst
    status among the new reports and the manifest's reused entries.
    """
    command = args.subcommand
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if _same_file(args.json, args.manifest):
        # saving the manifest would replace the report file being written
        parser.error("--json and --manifest must name different files")
    if command in _SWEEPS:
        _, minimum, label, module, claim = _SWEEPS[command]
        points = _resolve_range(parser, args, minimum)
        extra: tuple[int, ...] = ()
    else:
        _, flag, _, module, claim, primes = _PRIME_SWEEPS[command]
        if args.bound < 0:
            parser.error(f"{flag} must be >= 0")
        label = "p"
        points = [args.p] if args.p is not None else list(primes)
        extra = (args.bound,)
    # a partial of a top-level function pickles, so --jobs can send it
    point_fn = partial(_claim_point, module, claim, extra)
    manifest: Manifest | None = None
    statuses: list[str] = []
    if args.manifest:
        manifest = Manifest(args.manifest, command)
        manifest.load(fresh=args.fresh)
        statuses = [manifest.completed[n] for n in points if n in manifest.completed]
        if statuses:
            _log(f"{command}: {len(statuses)} completed entries reused from manifest")
        points = [n for n in points if n not in manifest.completed]
    elif args.fresh:
        parser.error("--fresh requires --manifest")
    with _open_dest(args.json, "\n") as out:
        if manifest is not None:
            manifest.save()
        docs = _run_points(point_fn, points, args.jobs)
        for point, doc in zip(points, docs, strict=True):
            _log(f"{command} {label}={point} {doc.status}")
            if out is not None:
                out.write(report_to_json(doc) + "\n")
                out.flush()
            if manifest is not None:
                manifest.completed[point] = doc.status
                manifest.save()
            statuses.append(doc.status)
    return max((_EXIT_CODES[s] for s in statuses), default=0)


def _claim_point(
    module: str, claim: str, extra: tuple[int, ...], point: int
) -> ReportDocument:
    """The report of borwein.<module>.<claim>, looked up now, at one point."""
    return getattr(import_module(f"borwein.{module}"), claim)(point, *extra)


def _run_points(
    point_fn: Callable[[int], ReportDocument], points: list[int], jobs: int
) -> Iterator[ReportDocument]:
    """Every point's report, ascending.

    Serially a report comes as soon as its point finishes; under a pool
    a chunk's reports come together once that chunk is done.
    """
    workers = min(jobs, len(points))
    if workers > 1:
        from .qpoly import _usable_cpus

        workers = min(workers, _usable_cpus())
    if workers <= 1:
        yield from map(point_fn, points)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(point_fn, points, chunksize=-(-len(points) // workers))


def _expand(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Expand P_n, write its report and CSV dump; returns the exit code.

    Both destinations are opened before the expansion, so an unwritable
    one fails at once instead of after the work.
    """
    if args.n < 0:
        parser.error("--n must be >= 0")
    if _same_file(args.json, args.csv):
        # two handles on one file would interleave the report and the dump
        parser.error("--json and --csv must name different files")
    from . import series

    with _open_dest(args.json, "\n") as out, _open_dest(args.csv, "") as csv:
        s = series.expand_borwein(args.n)
        doc = new_report("expand", {"n": args.n})
        doc.data["degree"] = s.degree
        doc.data["constant_term"] = s.poly[0]
        doc.data["leading_term"] = s.poly[s.degree]
        if out is not None:
            doc.data["coefficients"] = list(s.poly.coeffs)
        doc.finish()
        _log(f"expand n={args.n} degree={s.degree} {doc.status}")
        if out is not None:
            out.write(report_to_json(doc) + "\n")
        if csv is not None:
            _write_csv(s.poly, csv)
    return _EXIT_CODES[doc.status]


def _same_file(dest: str | None, other: str | None) -> bool:
    """Whether two destinations name one file; None and "-" (stdout) never do."""
    if dest in (None, "-") or other in (None, "-"):
        return False
    return os.path.realpath(dest) == os.path.realpath(other)


def _open_dest(dest: str | None, newline: str):
    """The file at dest opened for writing, stdout (left open) for "-",
    or None for an option not given."""
    if dest is None:
        return contextlib.nullcontext(None)
    if dest == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(dest, "w", encoding="utf-8", newline=newline)


def _write_csv(poly: IntPolynomial, fh: TextIO) -> None:
    """Coefficient dump: header exponent,coefficient, one row per exponent."""
    fh.write("exponent,coefficient\n")
    # the zero polynomial has no coefficients and dumps as one (0, 0) row
    fh.writelines(map("{},{}\n".format, count(), poly.coeffs or (0,)))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch a full command line; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "expand":
            return _expand(parser, args)
        return _sweep(parser, args)
    except ManifestError as exc:
        _log(f"error: {exc}")
        return 2
    except ArithmeticError as exc:  # oracle mismatch, inexact division, mirror mismatch
        _log(f"internal cross-validation failure: {exc}")
        return 3
    except ValueError as exc:
        _log(f"parameter error: {exc}")
        return 2
    except ChildProcessError as exc:
        _log(f"internal failure: {exc}")
        return 4
    except OSError as exc:
        _log(f"cannot write output: {exc}")
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
