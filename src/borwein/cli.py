"""Command-line front end.

One subcommand per claim family, each emitting machine-readable
ReportDocuments (NDJSON: one JSON object per parameter point, ascending)
plus optional CSV coefficient dumps. Sweeps run their points as
contiguous blocks: inside a block, verify, identity and conjecture23
grow each point's product from the previous point's instead of
expanding it again. Serially the whole range is one block; --jobs
splits it into one block per worker and merges the reports in
ascending order, so output is order-deterministic; with
SOURCE_DATE_EPOCH set, reruns are byte-identical.

Exit codes: 0 all checks pass; 1 a claim check failed; 2 usage or
parameter error (including unwritable destinations and manifest
mismatches); 3 internal cross-validation failure (oracle mismatch,
inexact division, or a mirrored expansion whose overlap disagrees).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

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

_STANLEY_PRIMES = (3, 5, 7, 11, 13)
_COHERENCE_PRIMES = (2, 3, 5, 7, 11)


# ---------------------------------------------------------------------------
# block workers (top-level so process pools can pickle them)
#
# A worker takes an ascending list of points and returns one report per
# point. The Borwein-family workers chain inside the block: its first
# point expands from scratch, and each later index multiplies the
# previous index's products by its own factors.


def _chain(
    command: str,
    label: str,
    points: Sequence[int],
    start: Callable[[int], list[IntPolynomial]],
    steps: Callable[[int], list[tuple[int, ...]]],
    check: Callable[..., ReportDocument],
) -> list[ReportDocument]:
    """Reports for `points`, each product grown from the previous index.

    start(n) expands the products of the block's first point; steps(n)
    lists, per product, the exponents m of the factors (1 - q^m) that
    take index n-1 to n. Indices between points are walked through but
    not reported. check(doc, n, *products) finishes one point's report.
    """
    wanted = set(points)
    docs: list[ReportDocument] = []
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
            docs.append(check(doc, n, *products))
    return docs


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
    report = series.check_sign_pattern(s)
    doc.violations.extend(report.violations)
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


def verify_block(points: Sequence[int]) -> list[ReportDocument]:
    return _chain("verify", "n", points, _borwein_start, _borwein_steps, _verify_checks)


def verify_one(n: int) -> ReportDocument:
    return verify_block([n])[0]


def partial_sums_block(points: Sequence[int]) -> list[ReportDocument]:
    return [series.verify_partial_sums(n) for n in points]


def modcount_one(n: int) -> ReportDocument:
    return modcount.cross_validate(n)


def modcount_block(points: Sequence[int]) -> list[ReportDocument]:
    return [modcount_one(n) for n in points]


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


def identity_block(points: Sequence[int]) -> list[ReportDocument]:
    return _chain(
        "identity",
        "m",
        points,
        lambda m: _borwein_start(m - 1),
        lambda m: _borwein_steps(m - 1),
        _identity_checks,
    )


def identity_one(m: int) -> ReportDocument:
    return identity_block([m])[0]


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


def conjecture23_block(points: Sequence[int]) -> list[ReportDocument]:
    return _chain(
        "conjecture23",
        "n",
        points,
        _conjecture23_start,
        _conjecture23_steps,
        _conjecture23_checks,
    )


def conjecture23_one(n: int) -> ReportDocument:
    return conjecture23_block([n])[0]


# ---------------------------------------------------------------------------
# manifest


def _params_hash(command: str, params: dict[str, str]) -> str:
    blob = json.dumps(
        {"command": command, "params": params, "tool_version": TOOL_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ManifestError(Exception):
    pass


class Manifest:
    """Per-n completion ledger keyed by a hash of result-affecting params.

    Range endpoints are not part of the hash: extending a range reuses
    every completed entry. Any other parameter change (or a tool version
    change) invalidates the file, which then requires --fresh.
    """

    def __init__(self, path: str, command: str, params: dict[str, str]):
        self.path = path
        self.command = command
        self.hash = _params_hash(command, params)
        self.completed: dict[int, str] = {}

    def load(self, fresh: bool) -> None:
        if fresh or not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"unreadable manifest {self.path}: {exc}") from exc
        if raw.get("format") != MANIFEST_FORMAT or raw.get("params_hash") != self.hash:
            raise ManifestError(
                f"manifest {self.path} does not match these parameters; "
                "pass --fresh to discard it"
            )
        self.completed = {int(k): str(v) for k, v in raw.get("completed", {}).items()}

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
# sweep driver


def _run_sweep(
    block_worker: Callable[[Sequence[int]], list[ReportDocument]],
    points: Sequence[int],
    jobs: int,
) -> list[ReportDocument]:
    """Run the points as contiguous blocks, merging reports in ascending order.

    Serially the points form one block. Under jobs > 1 they split into
    one block per worker, with min(jobs, len(points), os.cpu_count())
    workers: every extra block starts its chain from scratch.
    """
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers <= 1:
        return block_worker(points) if points else []
    blocks = [
        points[i * len(points) // workers : (i + 1) * len(points) // workers]
        for i in range(workers)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [doc for docs in pool.map(block_worker, blocks) for doc in docs]


def _emit(docs: list[ReportDocument], json_dest: str | None) -> None:
    if json_dest is None:
        return
    text = "".join(report_to_json(d) + "\n" for d in docs)
    if json_dest == "-":
        sys.stdout.write(text)
    else:
        with open(json_dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_csv(poly: IntPolynomial, csv_dest: str) -> None:
    """Coefficient dump: header exponent,coefficient, one row per exponent."""

    def write_rows(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["exponent", "coefficient"])
        degree = poly.degree
        for e in range(degree + 1):
            writer.writerow([e, poly[e]])
        if degree < 0:
            writer.writerow([0, 0])

    if csv_dest == "-":
        write_rows(sys.stdout)
    else:
        with open(csv_dest, "w", encoding="utf-8", newline="") as fh:
            write_rows(fh)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _exit_code(docs: list[ReportDocument], prior_statuses: Sequence[str] = ()) -> int:
    statuses = [d.status for d in docs] + list(prior_statuses)
    if any(s == "error" for s in statuses):
        return 3
    if any(s == "fail" for s in statuses):
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_range_flags(sub: argparse.ArgumentParser, minimum: int) -> None:
    sub.add_argument("--n", type=int, help="single index")
    sub.add_argument("--n-min", type=int, default=minimum, help="sweep start")
    sub.add_argument("--n-max", type=int, help="sweep end (inclusive)")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", metavar="PATH|-", help="write NDJSON reports here")
    sub.add_argument("--jobs", type=int, default=1, help="parallel workers")
    sub.add_argument("--manifest", metavar="PATH", help="resumable completion ledger")
    sub.add_argument(
        "--fresh", action="store_true", help="discard a mismatched or stale manifest"
    )


def _resolve_range(
    parser: argparse.ArgumentParser, args: argparse.Namespace, minimum: int
) -> list[int]:
    if args.n is not None and args.n_max is not None:
        parser.error("--n and --n-max are mutually exclusive")
    if args.n is not None:
        if args.n < minimum:
            parser.error(f"--n must be >= {minimum}")
        return [args.n]
    if args.n_max is None:
        parser.error("one of --n or --n-max is required")
    if args.n_max < args.n_min or args.n_min < minimum:
        parser.error(f"need {minimum} <= --n-min <= --n-max")
    return list(range(args.n_min, args.n_max + 1))


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

    sub = subs.add_parser("verify", help="sign-pattern sweep over a range of n")
    _add_range_flags(sub, 0)
    _add_common_flags(sub)

    sub = subs.add_parser(
        "partial-sums", help="strict positivity of residue-class partial sums"
    )
    _add_range_flags(sub, 0)
    _add_common_flags(sub)

    sub = subs.add_parser(
        "modcount", help="cross-validate the signed subset-sum evaluators"
    )
    _add_range_flags(sub, 0)
    _add_common_flags(sub)

    sub = subs.add_parser(
        "identity", help="alternating q-binomial form of the A-polynomial"
    )
    _add_range_flags(sub, 1)
    _add_common_flags(sub)

    sub = subs.add_parser(
        "conjecture23", help="sign sweeps for the squared and mod-5 products"
    )
    _add_range_flags(sub, 0)
    _add_common_flags(sub)

    sub = subs.add_parser("stanley", help="two-term partition formula for a_{p,pk}")
    sub.add_argument("--p", type=int, help=f"one prime (default sweep {_STANLEY_PRIMES})")
    sub.add_argument("--k-max", type=int, default=100)
    sub.add_argument("--json", metavar="PATH|-")

    sub = subs.add_parser("coherence", help="sign coherence of pairs at distance p")
    sub.add_argument(
        "--p", type=int, help=f"one prime (default sweep {_COHERENCE_PRIMES})"
    )
    sub.add_argument("--j-max", type=int, default=2000)
    sub.add_argument("--json", metavar="PATH|-")

    return parser


# ---------------------------------------------------------------------------
# subcommand drivers


def _drive_sweep(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    block_worker: Callable[[Sequence[int]], list[ReportDocument]],
    minimum: int,
    label: str,
) -> int:
    points = _resolve_range(parser, args, minimum)
    manifest: Manifest | None = None
    prior: list[str] = []
    if args.manifest:
        manifest = Manifest(args.manifest, args.subcommand, {})
        manifest.load(fresh=args.fresh)
        todo = manifest.remaining(points)
        skipped = len(points) - len(todo)
        if skipped:
            _log(f"{args.subcommand}: {skipped} completed entries reused from manifest")
        prior = [manifest.completed[n] for n in points if n in manifest.completed]
        points = todo
    elif args.fresh:
        parser.error("--fresh requires --manifest")
    docs = _run_sweep(block_worker, points, max(1, args.jobs))
    for point, doc in zip(points, docs):
        _log(f"{args.subcommand} {label}={point} {doc.status}")
    if manifest is not None:
        for point, doc in zip(points, docs):
            manifest.completed[point] = doc.status
        manifest.save()
    _emit(docs, args.json)
    return _exit_code(docs, prior)


def _drive_primes(
    args: argparse.Namespace,
    worker: Callable[[int], ReportDocument],
    default_primes: Sequence[int],
) -> int:
    primes = [args.p] if args.p is not None else list(default_primes)
    docs = [worker(p) for p in primes]
    for p, doc in zip(primes, docs):
        _log(f"{args.subcommand} p={p} {doc.status}")
    _emit(docs, args.json)
    return _exit_code(docs)


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch a full command line; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "expand":
            if args.n < 0:
                parser.error("--n must be >= 0")
            s = series.expand_borwein(args.n)
            doc = new_report("expand", {"n": args.n})
            doc.data["degree"] = s.degree
            doc.data["constant_term"] = s.poly[0]
            doc.data["leading_term"] = s.poly[s.degree]
            if args.json is not None:
                doc.data["coefficients"] = list(s.poly.coeffs)
            doc.finish()
            _log(f"expand n={args.n} degree={s.degree} {doc.status}")
            _emit([doc], args.json)
            if args.csv is not None:
                _emit_csv(s.poly, args.csv)
            return _exit_code([doc])
        if args.subcommand == "verify":
            return _drive_sweep(parser, args, verify_block, 0, "n")
        if args.subcommand == "partial-sums":
            return _drive_sweep(parser, args, partial_sums_block, 0, "n")
        if args.subcommand == "modcount":
            return _drive_sweep(parser, args, modcount_block, 0, "n")
        if args.subcommand == "identity":
            return _drive_sweep(parser, args, identity_block, 1, "m")
        if args.subcommand == "conjecture23":
            return _drive_sweep(parser, args, conjecture23_block, 0, "n")
        if args.subcommand == "stanley":
            return _drive_primes(
                args,
                lambda p: partitions.verify_stanley(p, args.k_max),
                _STANLEY_PRIMES,
            )
        if args.subcommand == "coherence":
            return _drive_primes(
                args,
                lambda p: partitions.sign_coherence_check(p, args.j_max),
                _COHERENCE_PRIMES,
            )
        raise AssertionError(f"unhandled subcommand {args.subcommand}")
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
