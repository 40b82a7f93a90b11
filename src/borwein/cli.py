"""Command-line front end.

One subcommand per claim family, each emitting machine-readable
ReportDocuments (NDJSON: one JSON object per parameter point, ascending)
plus optional CSV coefficient dumps. `expand` dumps one product; every
other subcommand is a sweep and one row of a table, _SWEEPS (ranges of
n) or _PRIME_SWEEPS (primes p). The parser is built from the tables,
and one driver, _sweep, runs any row: points, manifest, blocks, log,
emit and exit code. Block workers are generators that yield one report
per point, ascending. Inside a block, verify, identity and conjecture23
grow each point's product from the previous point's instead of
expanding it again. Serially the whole range is one block and every
point's line is logged, written, flushed and recorded in the manifest
as soon as the point finishes; --jobs splits the range into one block
per worker and writes each block's lines, in ascending order, once that
block is done. Output is order-deterministic; with SOURCE_DATE_EPOCH
set, reruns are byte-identical. A run that aborts keeps the lines and
manifest entries of the points it finished.

Exit codes: 0 all checks pass; 1 a claim check failed; 2 usage or
parameter error (including unwritable destinations and manifest
mismatches); 3 internal cross-validation failure (oracle mismatch,
inexact division, or a mirrored expansion whose overlap disagrees).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import count
from typing import Callable, Iterator, Sequence, TextIO

from . import modcount, partitions, series
from .qpoly import (
    IntPolynomial,
    ProductSpec,
    eval_at,
    expand_product,
    mul_sparse_factor,
)
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


# ---------------------------------------------------------------------------
# block workers (top-level so process pools can pickle them)
#
# A worker takes an ascending list of points and yields one report per
# point, in order, as each point finishes. The Borwein-family workers
# chain inside the block: its first point expands from scratch, and each
# later index multiplies the previous index's products by its own factors.


def _chain(
    command: str,
    label: str,
    points: Sequence[int],
    start: Callable[[int], list[IntPolynomial]],
    steps: Callable[[int], list[tuple[int, ...]]],
    check: Callable[..., ReportDocument],
) -> Iterator[ReportDocument]:
    """Reports for `points`, each product grown from the previous index.

    start(n) expands the products of the block's first point; steps(n)
    lists, per product, the exponents m of the factors (1 - q^m) that
    take index n-1 to n. Indices between points are walked through but
    not reported. check(doc, n, *products) finishes one point's report.
    """
    wanted = set(points)
    products: list[IntPolynomial] = []
    for n in range(points[0], points[-1] + 1):
        doc = new_report(command, {label: n}) if n in wanted else None
        if not products:
            products = start(n)
        else:
            for i, exponents in enumerate(steps(n)):
                for m in exponents:
                    # Rebind after every pass: a helper doing several
                    # passes while its caller still holds the input would
                    # keep a third coefficient generation alive.
                    products[i] = mul_sparse_factor(products[i], m)
        if doc is not None:
            yield check(doc, n, *products)


def _borwein_start(n: int) -> list[IntPolynomial]:
    return [series.expand_borwein(n).poly]


def _borwein_steps(n: int) -> list[tuple[int, ...]]:
    return [(3 * n + 1, 3 * n + 2)]


def _verify_checks(doc: ReportDocument, n: int, poly: IntPolynomial) -> ReportDocument:
    """Sign pattern plus the structural facts for a single n.

    On a block's first point the product comes from expand_product, which
    mirrors its upper half, so `palindromic` holds by construction there:
    what backs it is expand_product's check that the terms it computes
    past the midpoint equal their mirrors. On later points of a block the
    product is grown by full sparse passes, and the check is direct.
    """
    s = series.BorweinSeries(n=n, poly=poly)
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


def verify_block(points: Sequence[int]) -> Iterator[ReportDocument]:
    return _chain("verify", "n", points, _borwein_start, _borwein_steps, _verify_checks)


def partial_sums_block(points: Sequence[int]) -> Iterator[ReportDocument]:
    return (series.verify_partial_sums(n) for n in points)


def modcount_block(points: Sequence[int]) -> Iterator[ReportDocument]:
    return (modcount.cross_validate(n) for n in points)


def _identity_checks(doc: ReportDocument, m: int, poly: IntPolynomial) -> ReportDocument:
    """Alternating q-binomial sum vs the A-component of the product."""
    via_binomials = series.a_via_qbinomial(m)
    via_product = series.decompose_abc(series.BorweinSeries(n=m - 1, poly=poly)).a
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


def identity_block(points: Sequence[int]) -> Iterator[ReportDocument]:
    return _chain(
        "identity",
        "m",
        points,
        lambda m: _borwein_start(m - 1),
        lambda m: _borwein_steps(m - 1),
        _identity_checks,
    )


def _conjecture23_start(n: int) -> list[IntPolynomial]:
    return [
        expand_product(
            ProductSpec(
                modulus=3, residues=frozenset({1, 2}), upper_index=n, multiplicity=2
            )
        ),
        expand_product(
            ProductSpec(modulus=5, residues=frozenset({1, 2, 3, 4}), upper_index=n)
        ),
    ]


def _conjecture23_steps(n: int) -> list[tuple[int, ...]]:
    return [
        (3 * n + 1, 3 * n + 1, 3 * n + 2, 3 * n + 2),
        (5 * n + 1, 5 * n + 2, 5 * n + 3, 5 * n + 4),
    ]


def _conjecture23_checks(
    doc: ReportDocument, n: int, squared: IntPolynomial, mod5: IntPolynomial
) -> ReportDocument:
    """Sign sweeps for the squared (mod 3) and mod-5 product variants."""
    doc.violations.extend(sign_violations(squared, 3, n, kind="sign-squared"))
    doc.violations.extend(sign_violations(mod5, 5, n, kind="sign-mod5"))
    doc.data["squared_degree"] = squared.degree
    doc.data["mod5_degree"] = mod5.degree
    return doc.finish()


def conjecture23_block(points: Sequence[int]) -> Iterator[ReportDocument]:
    return _chain(
        "conjecture23",
        "n",
        points,
        _conjecture23_start,
        _conjecture23_steps,
        _conjecture23_checks,
    )


# ---------------------------------------------------------------------------
# manifest


def _params_hash(command: str) -> str:
    # "params" stays in the blob, always empty, so older manifests still load
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
# _SWEEPS: range command -> (help, lowest index, point label, block worker).
# _PRIME_SWEEPS: prime command -> (help, bound flag, its default, name of
# the `partitions` worker called as worker(p, bound), default primes).
# Prime workers are stored by name and looked up on every call, so a
# function rebound in `partitions` after this module is imported (by a
# tracer or a test) is the one that runs.

_SWEEPS: dict[str, tuple[str, int, str, Callable[[Sequence[int]], Iterator[ReportDocument]]]] = {
    "verify": ("sign-pattern sweep over a range of n", 0, "n", verify_block),
    "partial-sums": (
        "strict positivity of residue-class partial sums", 0, "n", partial_sums_block
    ),
    "modcount": (
        "cross-validate the signed subset-sum evaluators", 0, "n", modcount_block
    ),
    "identity": (
        "alternating q-binomial form of the A-polynomial", 1, "m", identity_block
    ),
    "conjecture23": (
        "sign sweeps for the squared and mod-5 products", 0, "n", conjecture23_block
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


def _block_list(
    block_worker: Callable[[Sequence[int]], Iterator[ReportDocument]],
    points: Sequence[int],
) -> list[ReportDocument]:
    """A whole block's reports as a list: a pool can send that back, not a generator."""
    return list(block_worker(points))


def _sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run a command of either table; returns the exit code.

    The points run as contiguous blocks, merged in ascending order.
    Serially they form one block, and each point is logged, written and
    recorded in the manifest as soon as it finishes. Under --jobs they
    split into one block per worker, with min(jobs, len(points),
    os.cpu_count()) workers: every extra block starts its chain from
    scratch, and a block's points go out once the block is done. The
    --json destination is opened, and the manifest written once, before
    any point runs, so an unwritable one fails at once. The exit code is
    that of the worst status among the new reports and the manifest's
    reused entries.
    """
    command = args.subcommand
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if _same_file(args.json, args.manifest):
        # saving the manifest would replace the report file being written
        parser.error("--json and --manifest must name different files")
    if command in _SWEEPS:
        _, minimum, label, block_worker = _SWEEPS[command]
        points = _resolve_range(parser, args, minimum)
    else:
        _, flag, _, worker, primes = _PRIME_SWEEPS[command]
        bound = getattr(args, flag[2:].replace("-", "_"))
        if bound < 0:
            parser.error(f"{flag} must be >= 0")
        label = "p"
        points = [args.p] if args.p is not None else list(primes)

        # nested, so never sent to a pool: prime commands have no --jobs
        def block_worker(ps: Sequence[int]) -> Iterator[ReportDocument]:
            return (getattr(partitions, worker)(p, bound) for p in ps)

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
        docs = _run_blocks(block_worker, points, args.jobs)
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


def _run_blocks(
    block_worker: Callable[[Sequence[int]], Iterator[ReportDocument]],
    points: list[int],
    jobs: int,
) -> Iterator[ReportDocument]:
    """Every point's report, ascending.

    Serially a report comes as soon as its point finishes; under a pool
    a block's reports come together once that block is done.
    """
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers <= 1:
        if points:
            yield from block_worker(points)
        return
    blocks = [
        points[i * len(points) // workers : (i + 1) * len(points) // workers]
        for i in range(workers)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for block in pool.map(partial(_block_list, block_worker), blocks):
            yield from block


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
    except (modcount.OracleMismatchError, ArithmeticError) as exc:
        _log(f"internal cross-validation failure: {exc}")
        return 3
    except ValueError as exc:
        _log(f"parameter error: {exc}")
        return 2
    except OSError as exc:
        _log(f"cannot write output: {exc}")
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
