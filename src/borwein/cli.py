"""Command-line front end.

One subcommand per claim family, each emitting machine-readable
ReportDocuments (NDJSON: one JSON object per parameter point, ascending)
plus optional CSV coefficient dumps. `expand` dumps one product; every
other subcommand is a sweep and one row of a table, _SWEEPS (ranges of
n) or _PRIME_SWEEPS (primes p). The parser is built from the tables,
and one driver, _sweep, runs any row: points, manifest, pool, log, emit
and exit code. A row's point function returns one point's report; it
names products by ProductSpec, and expand_product grows each index's
product from the previous index's, so this module holds no factor
exponents. Serially every point's line is logged, written, flushed and
recorded in the manifest as soon as the point finishes; --jobs gives
each worker one contiguous chunk of the range and writes a chunk's
lines, in ascending order, once that chunk is done. Output is
order-deterministic; with SOURCE_DATE_EPOCH set, reruns are
byte-identical. A run that aborts keeps the lines and manifest entries
of the points it finished.

A command loads only what it runs. This module imports series at the
top; the claim modules modcount and partitions load where a point
function calls them, and the standard library that one path needs (the
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
import importlib
import json
import os
import sys
from itertools import count
from typing import Callable, Iterator, Sequence, TextIO

from . import series
from .qpoly import IntPolynomial, ProductSpec, _usable_cpus, eval_at, expand_product
from .report import (
    TOOL_VERSION,
    CrossCheck,
    ReportDocument,
    new_report,
    report_to_json,
)
from .series import sign_violations

__all__ = ["run", "main"]

MANIFEST_FORMAT = 1


def __getattr__(name: str):
    """cli.modcount and cli.partitions: the claim modules, loaded on first use.

    A point function imports its claim module where it calls it, so a
    command loads only the modules it runs; this names the same module
    objects, for a caller (a tracer or a test) that rebinds a function.
    """
    if name in ("modcount", "partitions"):
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# point functions (top-level so process pools can pickle them)
#
# Each takes one index and returns its report. The products come from
# expand_product, which grows a family's next index from the one before,
# so an ascending range chains with no code here. partial-sums and
# modcount look their module function up on every call, so a function
# rebound after this module is imported (by a tracer or a test) runs;
# modcount is imported there, on the first call.


def _verify_point(n: int) -> ReportDocument:
    """Sign pattern plus the structural facts for a single n.

    expand_product mirrors the upper half of every product, fresh or
    grown from the previous index, so `palindromic` holds by
    construction: what backs it is expand_product's check that the
    terms it computes past the midpoint equal their mirrors.
    """
    doc = new_report("verify", {"n": n})
    s = series.expand_borwein(n)
    doc.violations.extend(series.check_sign_pattern(s))
    expected_degree = 3 * (n + 1) * (n + 1)
    doc.cross_checks.append(
        CrossCheck("degree", str(expected_degree), str(s.degree))
    )
    doc.cross_checks.append(
        CrossCheck("endpoints", "1,1", f"{s.poly[0]},{s.poly[s.degree]}")
    )
    doc.cross_checks.append(
        CrossCheck("palindromic", "True", str(s.poly.is_palindromic()))
    )
    doc.cross_checks.append(CrossCheck("value_at_1", "0", str(eval_at(s.poly, 1))))
    doc.data["degree"] = s.degree
    return doc.finish()


def _partial_sums_point(n: int) -> ReportDocument:
    return series.verify_partial_sums(n)


def _modcount_point(n: int) -> ReportDocument:
    from . import modcount

    return modcount.cross_validate(n)


def _identity_point(m: int) -> ReportDocument:
    """Alternating q-binomial sum vs the A-component of the product."""
    doc = new_report("identity", {"m": m})
    via_product = series.decompose_abc(series.expand_borwein(m - 1)).a
    via_binomials = series.a_via_qbinomial(m)
    if via_binomials == via_product:
        doc.cross_checks.append(CrossCheck("a_polynomial", "match", "match"))
    else:
        bad = next(
            e
            for e in range(max(len(via_binomials), len(via_product)))
            if via_binomials[e] != via_product[e]
        )
        doc.cross_checks.append(
            CrossCheck(
                "a_polynomial",
                "match",
                f"mismatch at exponent {bad}: {via_binomials[bad]} != {via_product[bad]}",
            )
        )
    doc.data["degree"] = via_product.degree
    return doc.finish()


def _conjecture23_point(n: int) -> ReportDocument:
    """Sign sweeps for the squared (mod 3) and mod-5 product variants."""
    doc = new_report("conjecture23", {"n": n})
    squared = expand_product(
        ProductSpec(modulus=3, residues=frozenset({1, 2}), upper_index=n, multiplicity=2)
    )
    mod5 = expand_product(
        ProductSpec(modulus=5, residues=frozenset({1, 2, 3, 4}), upper_index=n)
    )
    doc.violations.extend(sign_violations(squared, 3, n, kind="sign-squared"))
    doc.violations.extend(sign_violations(mod5, 5, n, kind="sign-mod5"))
    doc.data["squared_degree"] = squared.degree
    doc.data["mod5_degree"] = mod5.degree
    return doc.finish()


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

    def remaining(self, requested: Sequence[int]) -> list[int]:
        return [n for n in requested if n not in self.completed]


# ---------------------------------------------------------------------------
# subcommand tables
#
# _SWEEPS: range command -> (help, lowest index, point label, point function).
# _PRIME_SWEEPS: prime command -> (help, bound flag, its default, name of
# the `partitions` worker called as worker(p, bound), default primes).
# Prime workers are stored by name and looked up on every call, so a
# function rebound in `partitions` after this module is imported (by a
# tracer or a test) is the one that runs.

_SWEEPS: dict[str, tuple[str, int, str, Callable[[int], ReportDocument]]] = {
    "verify": ("sign-pattern sweep over a range of n", 0, "n", _verify_point),
    "partial-sums": (
        "strict positivity of residue-class partial sums", 0, "n", _partial_sums_point
    ),
    "modcount": (
        "cross-validate the signed subset-sum evaluators", 0, "n", _modcount_point
    ),
    "identity": (
        "alternating q-binomial form of the A-polynomial", 1, "m", _identity_point
    ),
    "conjecture23": (
        "sign sweeps for the squared and mod-5 products", 0, "n", _conjecture23_point
    ),
}

_PRIME_SWEEPS: dict[str, tuple[str, str, int, str, tuple[int, ...]]] = {
    "stanley": (
        "two-term partition formula for a_{p,pk}",
        "--k-max", 100, "verify_stanley", (3, 5, 7, 11, 13),
    ),
    "coherence": (
        "sign coherence of pairs at distance p",
        "--j-max", 2000, "sign_coherence_check", (2, 3, 5, 7, 11),
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

    for command, (help_text, minimum, _, _) in _SWEEPS.items():
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

    for command, (help_text, flag, default, _, primes) in _PRIME_SWEEPS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--p", type=int, help=f"one prime (default sweep {primes})")
        sub.add_argument(flag, type=int, default=default)
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
        _, minimum, label, point_fn = _SWEEPS[command]
        points = _resolve_range(parser, args, minimum)
    else:
        _, flag, _, worker, primes = _PRIME_SWEEPS[command]
        bound = getattr(args, flag[2:].replace("-", "_"))
        if bound < 0:
            parser.error(f"{flag} must be >= 0")
        label = "p"
        points = [args.p] if args.p is not None else list(primes)

        # nested, so never sent to a pool: prime commands have no --jobs
        def point_fn(p: int) -> ReportDocument:
            from . import partitions

            return getattr(partitions, worker)(p, bound)

    manifest: Manifest | None = None
    statuses: list[str] = []
    if args.manifest:
        manifest = Manifest(args.manifest, command)
        manifest.load(fresh=args.fresh)
        statuses = [manifest.completed[n] for n in points if n in manifest.completed]
        if statuses:
            _log(f"{command}: {len(statuses)} completed entries reused from manifest")
        points = manifest.remaining(points)
    elif args.fresh:
        parser.error("--fresh requires --manifest")
    with _open_json(args.json) as out:
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


def _run_points(
    point_fn: Callable[[int], ReportDocument], points: list[int], jobs: int
) -> Iterator[ReportDocument]:
    """Every point's report, ascending.

    Serially a report comes as soon as its point finishes; under a pool
    a chunk's reports come together once that chunk is done.
    """
    workers = min(jobs, len(points), _usable_cpus())
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
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_open_json(args.json))
        csv = None
        if args.csv is not None:
            csv = stack.enter_context(_open_dest(args.csv, ""))
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


def _open_dest(dest: str, newline: str):
    """The file at dest opened for writing, or stdout (left open) for "-"."""
    if dest == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(dest, "w", encoding="utf-8", newline=newline)


def _open_json(json_dest: str | None):
    """The NDJSON destination, or None when --json was not given."""
    if json_dest is None:
        return contextlib.nullcontext(None)
    return _open_dest(json_dest, "\n")


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
