"""Exact dense univariate polynomials over the integers.

The workhorse is repeated multiplication by sparse binomials (1 - q^m),
which expands products like ∏ (1-q^{3j+1})(1-q^{3j+2}) in O(degree) per
factor with plain Python ints as coefficients. pow_trunc raises the
sparse closed-form bases of the divisor-class polynomials G_d by binary
powering over a schoolbook product; despite its name it never truncates.
The sparse kernel multiplies a window of coefficients, the terms from
some offset K up, given the m terms below K: those are all a pass
c_e = p_e - p_{e-m} reads from outside the window. It returns the
window's own terms and nothing past them. expand_product runs one loop
for every ProductSpec and keeps only the terms it needs: the lower half
plus an overlap that is checked against its mirror, or a shorter prefix
when ProductSpec.truncation (the one truncation) asks for less. That
loop is chunk-major: 2048 terms at a time go through every pass while
they are in cache, each pass keeping the m input terms below the next
chunk. The passes start from 1, or from the last untruncated product
of the same family (at most two families are held), when that is the
index below: then only that index's factors are passes, so a sweep
over n chains its expansions through the same loop and check. A large
expansion cuts its passes in two at half their work and pipelines
them: one forked helper runs the first stage and streams each finished
chunk to this process, which runs the second stage on it.
mul_sparse_factor multiplies a whole product at once.
The one divider, exact_div, divides by (1-q^k) as a running sum per
residue class and raises on a remainder. Gaussian binomials use
mul_sparse_factor: each step of the ratio recurrence over k is one
whole sparse pass and one exact_div.
Degrees reach a few million and coefficients a few thousand bits, so
the hot loops stay on raw lists and C-level map()/slice operations.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, neg, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "InexactDivisionError",
    "MirrorMismatchError",
    "IntPolynomial",
    "ProductSpec",
    "mul_sparse_factor",
    "exact_div",
    "pow_trunc",
    "gaussian_binomial",
    "expand_product",
    "eval_at",
]


class InexactDivisionError(ArithmeticError):
    """Division that was promised to be exact left a remainder."""


class MirrorMismatchError(ArithmeticError):
    """A directly computed term of a product differs from its mirror image."""


class IntPolynomial:
    """Immutable dense polynomial with exact integer coefficients.

    Coefficients are stored ascending by exponent with a nonzero leading
    entry; the zero polynomial stores nothing and has degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = tuple(coeffs)
        end = len(cs)
        while end and not cs[end - 1]:
            end -= 1
        self._coeffs = cs if end == len(cs) else cs[:end]

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __len__(self) -> int:
        return len(self._coeffs)

    # __getitem__ answers 0 past the end instead of raising IndexError,
    # so iteration must not fall back to it: it would never stop.
    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __getitem__(self, exponent: int) -> int:
        """Coefficient at an exponent; 0 outside the stored range."""
        if 0 <= exponent < len(self._coeffs):
            return self._coeffs[exponent]
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def is_palindromic(self) -> bool:
        return self._coeffs == self._coeffs[::-1]

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"


# ---------------------------------------------------------------------------
# raw-list kernels (internal): no trimming

def _sparse_step(p: Sequence[int], m: int, below: Sequence[int]) -> list[int]:
    """A window's own terms of its product by (1 - q^m): c_e = p_e - p_{e-m}.

    The window p holds the terms from some offset K up, and below holds
    exactly the m terms p_{K-m}..p_{K-1} under it, zeros for exponents
    below 0. The output is the len(p) terms from K up; the m terms the
    product has past the window are not computed. Each map stops at its
    shorter input, so one list display serves m < len(p) and m >= len(p).
    """
    return [*map(sub, p, below), *map(sub, p[m:], p)]


def _sparse_product(p: Sequence[int], m: int) -> list[int]:
    """The whole product p·(1 - q^m) of a polynomial from exponent 0.

    p may be a list or a tuple; the output is built as one list display,
    so no intermediate list is concatenated and thrown away.
    """
    return [*p[:m], *repeat(0, m - len(p)), *map(sub, p[m:], p), *map(neg, p[-m:])]


def _mul_lists(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Schoolbook product on raw coefficients."""
    if not p or not q:
        return []
    if len(p) > len(q):
        p, q = q, p
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        seg = out[i : i + len(q)]
        if a == 1:
            out[i : i + len(q)] = map(add, seg, q)
        elif a == -1:
            out[i : i + len(q)] = map(sub, seg, q)
        else:
            out[i : i + len(q)] = [x + a * y for x, y in zip(seg, q)]
    return out


# ---------------------------------------------------------------------------
# public operations


def mul_sparse_factor(P: IntPolynomial, m: int) -> IntPolynomial:
    """P · (1 - q^m)."""
    if m < 1:
        raise ValueError(f"sparse factor exponent must be >= 1, got {m}")
    return IntPolynomial(_sparse_product(P.coeffs, m))


def pow_trunc(P: IntPolynomial, e: int) -> IntPolynomial:
    """P^e by binary powering with the schoolbook product."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    result: Sequence[int] = [1]
    base = P.coeffs
    while e:
        if e & 1:
            result = _mul_lists(result, base)
        e >>= 1
        if e:
            base = _mul_lists(base, base)
    return IntPolynomial(result)


def exact_div(P: IntPolynomial, k: int) -> IntPolynomial:
    """P / (1 - q^k), which must be exact: r_e = p_e + r_{e-k}.

    Each residue class mod k is one running sum. The quotient keeps the
    first len(P) - k of them; the last k are the remainder, and any
    nonzero one proves P is not a multiple of 1 - q^k.
    """
    if k < 1:
        raise ValueError(f"divisor exponent must be >= 1, got {k}")
    p = P.coeffs
    n = len(p)
    out = [0] * n
    for c in range(min(k, n)):
        out[c::k] = accumulate(p[c::k])
    keep = max(n - k, 0)
    if any(out[keep:]):
        raise InexactDivisionError(
            f"degree {n - 1} polynomial not divisible by 1 - q^{k}"
        )
    del out[keep:]
    return IntPolynomial(out)


def eval_at(P: IntPolynomial, x: int) -> int:
    """Exact value of P at an integer.

    At 1 and -1 the value is a C-level sum of the coefficients, or of the
    even-indexed ones minus the odd-indexed ones; elsewhere Horner's rule.
    """
    cs = P.coeffs
    if x == 1:
        return sum(cs)
    if x == -1:
        return sum(cs[0::2]) - sum(cs[1::2])
    result = 0
    for c in reversed(cs):
        result = result * x + c
    return result


@lru_cache(maxsize=2)
def _gaussian_row(n: int) -> tuple[IntPolynomial, ...]:
    """Row n of the q-binomials: ([n;0]_q, ..., [n;n]_q).

    The left half comes from [n;j+1] = [n;j]·(1-q^{n-j})/(1-q^{j+1}),
    each step one sparse pass and one exact divide, both O(degree); the
    right half is its mirror [n;j] = [n;n-j].
    """
    left = [IntPolynomial((1,))]
    for j in range(n // 2):
        left.append(exact_div(mul_sparse_factor(left[-1], n - j), j + 1))
    return (*left, *left[: n - n // 2][::-1])


def gaussian_binomial(n: int, k: int) -> IntPolynomial:
    """The q-binomial [n; k]_q by the ratio recurrence over k.

    [n;k+1] = [n;k]·(1-q^{n-k})/(1-q^{k+1}), with every division exact;
    out-of-range k gives the zero polynomial. Palindromic of degree
    k(n-k), with [n;k](1) = C(n,k).
    """
    if n < 0:
        raise ValueError(f"gaussian_binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return IntPolynomial()
    return _gaussian_row(n)[k]


@dataclass(frozen=True)
class ProductSpec:
    """Finite product ∏_{j=0..upper_index} ∏_{r∈residues} (1 - q^{modulus·j+r})^multiplicity.

    residues live in [1, modulus); residue 0 is rejected because j = 0
    would contribute the degenerate factor 1 - q^0 = 0. truncation, when
    set, is the largest exponent kept (inclusive).
    """

    modulus: int
    residues: frozenset[int]
    upper_index: int
    multiplicity: int = 1
    truncation: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "residues", frozenset(self.residues))
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not self.residues:
            raise ValueError("residues must be nonempty")
        if any(r < 0 or r >= self.modulus for r in self.residues):
            raise ValueError(
                f"residues must lie in [0, {self.modulus}), got {sorted(self.residues)}"
            )
        if 0 in self.residues:
            raise ValueError("residue 0 yields the degenerate factor 1 - q^0")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.upper_index < 0:
            raise ValueError(f"upper_index must be >= 0, got {self.upper_index}")
        if self.truncation is not None and self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")

    def exponents(self) -> Iterator[int]:
        """Factor exponents in ascending order, multiplicity included."""
        residues = sorted(self.residues)
        for j in range(self.upper_index + 1):
            base = self.modulus * j
            for r in residues:
                for _ in range(self.multiplicity):
                    yield base + r


# ---------------------------------------------------------------------------
# the passes of expand_product, chunk by chunk, in this process or with
# the first stage in one forked helper (internal)

_CHUNK = 2048
"""Terms per chunk: a chunk goes through every pass while it is in cache."""

_SPLIT_WORK = 10**7
"""Pass work, in coefficient operations, from which the passes are split."""

_HELPER_EXIT_S = 5
"""Seconds a helper is given to exit after its pipe closes."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether this process may fork a helper onto a second core.

    Not inside a multiprocessing child, so --jobs workers never double
    up, and not beside other threads, which fork does not copy. It is
    asked only once the work reaches _SPLIT_WORK, so a process whose
    expansions stay below that never loads multiprocessing.
    """
    import multiprocessing
    import threading

    return (
        _usable_cpus() > 1
        and multiprocessing.parent_process() is None
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    )


def _base_chunks(base: Sequence[int], keep: int) -> Iterator[list[int]]:
    """base through exponent keep, zeros past its end, _CHUNK terms at a time."""
    for start in range(0, keep + 1, _CHUNK):
        width = min(_CHUNK, keep + 1 - start)
        chunk = list(base[start : start + width])
        chunk += repeat(0, width - len(chunk))
        yield chunk


def _pass_chunks(
    passes: Sequence[int], chunks: Iterable[list[int]], degree: int
) -> Iterator[list[int]]:
    """A product times ∏(1 - q^m) over passes, one chunk at a time.

    chunks are the consecutive slices, from exponent 0 up, of a product
    of the given degree. Each goes through every pass before the next
    one is read, and comes out as the same slice of the result. Each
    pass keeps the last m terms of its input read so far, which are the
    terms just below the next chunk. A pass whose product ends below the
    chunk would leave it zero, and is skipped; its product ends below
    every later chunk too, so its kept terms are never read again.
    """
    ends = list(accumulate(passes, initial=degree))[1:]
    tails = [[0] * m for m in passes]
    start = 0
    for chunk in chunks:
        width = len(chunk)
        for t in range(bisect_left(ends, start), len(passes)):
            m, tail = passes[t], tails[t]
            out = _sparse_step(chunk, m, tail)
            if m <= width:
                tails[t] = chunk[width - m :]
            else:
                tail += chunk
                del tail[:width]
            chunk = out
        start += width
        yield chunk


def _cut_point(lengths: Sequence[int]) -> int:
    """How many passes the first of two stages takes, at least one each.

    Pass t does about lengths[t] coefficient operations, its output
    length capped at keep + 1; the cut is where their sum reaches half.
    """
    sums = list(accumulate(lengths))
    return min(bisect_left(sums, -(-sums[-1] // 2)) + 1, len(lengths) - 1)


def _stage(
    passes: Sequence[int], base: Sequence[int], keep: int, pipe: tuple[Connection, Connection]
) -> None:
    """Helper body: the first stage of the pipeline.

    pipe is the one pipe to the parent, both ends as inherited: the
    helper closes the read end, so a parent that gives up breaks the
    pipe, and sends each chunk of base times its passes through the
    other as soon as it is done, then None.
    """
    source, sink = pipe
    source.close()
    try:
        for chunk in _pass_chunks(passes, _base_chunks(base, keep), len(base) - 1):
            sink.send(chunk)
        sink.send(None)
    except OSError:
        return  # the parent gave up, and reports why


def _helper_chunks(
    spec: ProductSpec, passes: Sequence[int], base: Sequence[int], keep: int
) -> Iterator[list[int]]:
    """The chunks of base times passes, as one forked helper finishes them.

    The helper inherits base through the fork, and starts at the first
    chunk asked for. It is joined, and terminated if it does not exit,
    once its chunks run out or this generator is closed; if it exits
    before its last chunk, ChildProcessError is raised, which names its
    passes and exit code.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    source, sink = context.Pipe(duplex=False)
    helper = context.Process(target=_stage, args=(passes, base, keep, (source, sink)), daemon=True)
    # the helper flushes the streams it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    helper.start()
    sink.close()
    try:
        yield from iter(source.recv, None)
    except (EOFError, OSError) as exc:
        helper.join(_HELPER_EXIT_S)
        raise ChildProcessError(
            f"{spec}: the helper for the passes m = {passes[0]}..{passes[-1]} "
            f"exited (code {helper.exitcode}) before returning its terms"
        ) from exc
    finally:
        source.close()
        helper.join(_HELPER_EXIT_S)
        if helper.is_alive():
            helper.terminate()
            helper.join()


def _expand_passes(
    spec: ProductSpec, passes: list[int], base: Sequence[int], keep: int
) -> list[int]:
    """Terms 0..keep of base times ∏(1 - q^m) over passes.

    base is a polynomial from exponent 0 with a nonzero last term. This
    process runs the passes from the cut up, on the chunks of the stage
    before: those of base when the cut is 0, or those a helper computes
    through the passes below the cut once the work reaches _SPLIT_WORK.
    The chunks are closed before this returns or raises.
    """
    degree = len(base) - 1
    lengths = [min(d + 1, keep + 1) for d in accumulate(passes, initial=degree)][1:]
    split = len(passes) > 1 and sum(lengths) >= _SPLIT_WORK and _may_fork()
    cut = _cut_point(lengths) if split else 0
    chunks = _helper_chunks(spec, passes[:cut], base, keep) if cut else _base_chunks(base, keep)
    with closing(chunks):
        stage = _pass_chunks(passes[cut:], chunks, degree + sum(passes[:cut]))
        return list(chain.from_iterable(stage))


_held: dict[tuple[int, frozenset[int], int], tuple[int, IntPolynomial]] = {}
"""The last untruncated product of at most two spec families, keyed by
(modulus, residues, multiplicity): the family's upper_index and product."""


def expand_product(spec: ProductSpec) -> IntPolynomial:
    """Expand the product described by spec exactly.

    Every product takes one path: one sparse-factor pass per factor, in
    ascending exponent order, on the terms up to keep only; factors
    whose exponent is past keep cannot change those terms and are
    skipped. A product of k factors (1 - q^m) of total degree D
    satisfies a_{D-j} = (-1)^k a_j, so keep is D/2 + w, with w the
    largest factor exponent, and the rest is mirrored from the lower
    half. The terms computed past the midpoint (and the middle term, for
    even D) must equal their mirrors, or MirrorMismatchError is raised:
    that overlap is the check on the half that was not computed. A
    truncation below D/2 + w lowers keep, and the prefix is the result.

    The passes start from 1, or from a held product. The last
    untruncated product of each of at most two families (modulus,
    residues, multiplicity) is held, and the family's next index starts
    from it: its entry is removed, and only that index's factors are
    passes. Every other request (a gap, the same index, a lower index, a
    truncated spec) starts from 1, so an index never walks through the
    ones it skips. The held products stay referenced for the life of
    the process, after every caller has let them go, until requests for
    two other families replace them: after expand_borwein(1000) that is
    the whole P_1000.

    The terms up to keep go through the passes a chunk of 2048 at a
    time, each chunk through every pass before the next one starts; a
    pass reads the m terms of its input just below the chunk, which it
    kept from the chunk before. This runs in this process unless the
    work, Σ over passes of min(output length, keep + 1) coefficient
    operations, reaches _SPLIT_WORK (about 10^7: P_n from n ≈ 185 from
    1, or from n ≈ 1825 from P_{n-1}), the process may use more than one
    CPU, it is not a multiprocessing child (a --jobs worker) and has no
    other thread, and fork exists. Then the passes are cut where their
    work reaches half. One forked helper runs the first half and sends
    each chunk it finishes to this process, which runs the second half
    on it, so both compute at once. The second half is the same loop as
    the unsplit expansion, with the helper's chunks in place of the
    input's. The joined list is the one a single process computes, bit
    for bit, and the overlap check runs on it unchanged. The helper is
    joined before this returns or raises; if it exits before its terms
    are returned, ChildProcessError is raised, which names its passes
    and its exit code.
    """
    exponents = list(spec.exponents())
    family = (spec.modulus, spec.residues, spec.multiplicity)
    held = _held.pop(family, None) if spec.truncation is None else None
    if held is not None and held[0] == spec.upper_index - 1:
        base, start = held[1].coeffs, len(exponents) - len(spec.residues) * spec.multiplicity
    else:
        base, start = (1,), 0
    del held  # a product this request cannot grow from is let go first
    D = sum(exponents)
    top = min(D // 2 + exponents[-1], D)
    keep = top if spec.truncation is None else min(top, spec.truncation)
    passes = [m for m in exponents[start:] if m <= keep]
    coeffs = _expand_passes(spec, passes, base, keep)
    del base  # a held product is let go before the result is assembled
    if keep < top:
        return IntPolynomial(coeffs)
    odd = len(exponents) % 2
    mid = D - D // 2
    mirrored = coeffs[D - top : D // 2 + 1][::-1]
    if odd:
        mirrored = list(map(neg, mirrored))
    if coeffs[mid:] != mirrored:
        j = next(j for j, r in enumerate(mirrored, mid) if coeffs[j] != r)
        raise MirrorMismatchError(
            f"{spec}: computed a_{j} = {coeffs[j]}, but its mirror "
            f"a_{D - j} gives {mirrored[j - mid]}"
        )
    del coeffs[D // 2 + 1 :]
    tail = coeffs[mid - 1 :: -1]
    coeffs += map(neg, tail) if odd else tail
    if spec.truncation is not None:
        del coeffs[spec.truncation + 1 :]
        return IntPolynomial(coeffs)
    product = IntPolynomial(coeffs)
    _held[family] = (spec.upper_index, product)
    if len(_held) > 2:
        del _held[next(iter(_held))]
    return product
