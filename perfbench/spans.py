"""Span tracing of the borwein CLI, recorded from outside the package.

The tracer rebinds every public function of the seven borwein modules
(the names in each module's ``__all__``), in every module that holds a
reference to it, with a wrapper that records a span: name, start, end
and parent span. So ``series.expand_product``, ``partitions.expand_product``
and the ``series.expand_borwein`` that ``cli`` reaches through its
``series`` import are all traced, while ``src/`` stays untouched. Spans
stay in memory; the whole set is written out once the command ends.

A few exact work counters are computed from the arguments and results
of the wrapped calls. Their cost is recorded as ``bench.counters``
spans, so it never lands in a program layer's self time.

Run as a script, this traces one CLI invocation:

    python3 perfbench/spans.py OUT.json RUN_ID -- verify --n 5 --json -
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("qpoly", "series", "modcount", "partitions", "exactmath", "report", "cli")
COUNTER_SPAN = "bench.counters"


def expand_work(spec) -> tuple[int, int]:
    """Factor passes and output coefficients computed by expand_product(spec).

    Mirrors the loop of ``qpoly.expand_product``: one sparse step per
    factor exponent below the truncation bound, each producing
    min(previous length + m, bound) coefficients. These are computed
    counts, not measured ones.
    """
    bound = None if spec.truncation is None else spec.truncation + 1
    length, steps, ops = 1, 0, 0
    for m in spec.exponents():
        if bound is not None and m >= bound:
            break
        length = length + m if bound is None else min(length + m, bound)
        steps += 1
        ops += length
    return steps, ops


def _count_expand_product(counters: Counter, bound, result) -> None:
    steps, ops = expand_work(bound.arguments["spec"])
    counters["qpoly.sparse_steps"] += steps
    counters["qpoly.coeff_ops"] += ops
    cs = result.coeffs
    if cs:
        bits = max(max(cs), -min(cs)).bit_length()
        counters["qpoly.max_coeff_bits"] = max(counters["qpoly.max_coeff_bits"], bits)


def _count_residue_partial_sums(counters: Counter, bound, result) -> None:
    counters["series.residue_partial_sums.coeffs_folded"] += len(
        bound.arguments["s"].poly.coeffs
    )
    counters["series.residue_partial_sums.sums_returned"] += len(result)


def _count_enumerate(counters: Counter, bound, result) -> None:
    # |D| = 2N/3 = 2(n+1) elements, so the walk visits 2^|D| subsets.
    counters["modcount.enumerated_subsets"] += 1 << (2 * (bound.arguments["n"] + 1))


COUNTER_NAMES = (
    "qpoly.sparse_steps",
    "qpoly.coeff_ops",
    "qpoly.max_coeff_bits",
    "series.residue_partial_sums.coeffs_folded",
    "series.residue_partial_sums.sums_returned",
    "modcount.enumerated_subsets",
)
COUNTERS = {
    "qpoly.expand_product": _count_expand_product,
    "series.residue_partial_sums": _count_residue_partial_sums,
    "modcount.enumerate_signed_counts": _count_enumerate,
}


class Tracer:
    """Rebinds the public borwein functions and records their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter(dict.fromkeys(COUNTER_NAMES, 0))
        self.traced: list[str] = []
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("borwein")
        modules = [importlib.import_module(f"borwein.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                # classes are types, not layer work; a generator function's
                # span would close before its body runs
                if (
                    not callable(fn)
                    or inspect.isclass(fn)
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                self.traced.append(f"{layer}.{attr}")
                wrappers[id(fn)] = self._wrap(self.traced[-1], fn)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound function; raise if one is not restored."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        stale = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._rebound
            if getattr(module, attr) is not original
        ]
        if stale:
            raise RuntimeError(f"functions not restored: {stale}")

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                cidx = len(names)
                names.append(COUNTER_SPAN)
                parents.append(stack[-1])
                ends.append(0)
                starts.append(clock())
                count(self.counters, signature.bind(*args, **kwargs), result)
                ends[cidx] = clock()
            return result

        return traced

    def dump(self, path: str, run_id: str) -> None:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        origin = min(self.starts, default=0)
        payload = {
            "run_id": run_id,
            "traced": self.traced,
            "names": table,
            "name": [index[n] for n in self.names],
            "start": [t - origin for t in self.starts],
            "end": [t - origin for t in self.ends],
            "parent": self.parents,
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def span_summary(trace: dict) -> tuple[dict[str, dict[str, float]], float]:
    """Per-name calls, inclusive and self seconds; and the root-span seconds.

    A span's self time is its duration minus the time its child spans
    cover. Calls run on one thread and nest, so children never overlap
    and the sum of every self time equals the sum of the root spans;
    children that outlast their parent raise ValueError.
    """
    names, name_of = trace["names"], trace["name"]
    starts, ends, parents = trace["start"], trace["end"], trace["parent"]
    child = [0] * len(starts)
    root_ns = 0
    for i, parent in enumerate(parents):
        duration = ends[i] - starts[i]
        if parent < 0:
            root_ns += duration
        else:
            child[parent] += duration
    per_name: dict[str, dict[str, float]] = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names
    }
    for i, idx in enumerate(name_of):
        duration = ends[i] - starts[i]
        if child[i] > duration:
            raise ValueError(f"children of a {names[idx]} span outlast it: spans do not nest")
        entry = per_name[names[idx]]
        entry["calls"] += 1
        entry["s"] += duration / 1e9
        entry["self_s"] += (duration - child[i]) / 1e9
    return per_name, root_ns / 1e9


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py OUT.json RUN_ID -- CLI-ARGS...", file=sys.stderr)
        return 2
    out, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("borwein.cli")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(out, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
