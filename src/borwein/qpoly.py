"""Exact dense univariate polynomials over the integers.

The workhorse is repeated multiplication by sparse binomials (1 - q^m),
which expands products like ∏ (1-q^{3j+1})(1-q^{3j+2}) in O(degree) per
factor with plain Python ints as coefficients. pow_trunc raises the
sparse closed-form bases of the divisor-class polynomials G_d by binary
powering over a schoolbook product; despite its name it never truncates.
The sparse kernel multiplies a window of coefficients, the terms from
some offset K up, and takes the m terms below K as well: those are all
a pass c_e = p_e - p_{e-m} reads from outside the window. It always
returns the whole windowed product, and callers cut what they keep.
expand_product runs one loop for every ProductSpec and cuts each pass
back to the terms it keeps: the lower half plus an overlap that is
checked against its mirror, or a shorter prefix when
ProductSpec.truncation (the one truncation) asks for less. A large
expansion splits its passes by coefficient index: this process runs the
window [0, K) and a forked helper the window [K, keep], fed the m
boundary terms below K before each pass, so both compute every term by
the same subtraction as one process would. The one
divider, exact_div, divides by (1-q^k) as a running sum per residue
class and raises on a remainder.
Gaussian binomials use the same kernel: each step of the ratio
recurrence over k is one sparse pass and one exact_div.
Degrees reach a few million and coefficients a few thousand bits, so
the hot loops stay on raw lists and C-level map()/slice operations.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat, takewhile
from multiprocessing.connection import Connection
from operator import add, neg, sub
from typing import Iterable, Iterator, Sequence

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
    """The whole product of a window by (1 - q^m): c_e = p_e - p_{e-m}.

    The window p holds the terms from some offset K up, and below holds
    the m terms p_{K-m}..p_{K-1} under it: zeros for the window at 0,
    and for exponents below 0. The output starts at K as well and is
    len(p) + m long. p may be a list or a tuple; each branch builds its
    output as one list display, so no intermediate list is concatenated
    and thrown away. Callers that keep a prefix cut it from the result.
    """
    n = len(p)
    if m > n:
        return [*map(sub, p, below), *map(neg, below[n:]), *map(neg, p)]
    return [
        *map(sub, p[:m], below),
        *map(sub, p[m:], p[: n - m]),
        *map(neg, p[n - m :]),
    ]


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
    return IntPolynomial(_sparse_step(P.coeffs, m, [0] * m))


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

    @property
    def full_degree(self) -> int:
        """Degree of the untruncated expansion: sum of all factor exponents."""
        residues = sorted(self.residues)
        per_block = len(residues)
        j_sum = self.upper_index * (self.upper_index + 1) // 2
        return self.multiplicity * (
            self.modulus * per_block * j_sum + sum(residues) * (self.upper_index + 1)
        )


# ---------------------------------------------------------------------------
# the passes of expand_product, on one core or split between two (internal)

_SPLIT_WORK = 10**7
"""Pass work, in coefficient operations, from which the passes are split."""

_HELPER_EXIT_S = 5.0
"""Seconds a helper is given to exit after its pipe closes."""


def _may_fork() -> bool:
    """Whether this process may fork a helper onto a second core.

    Not inside a multiprocessing child, so --jobs workers never double
    up, and not beside other threads, which fork does not copy.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return (
        cpus > 1
        and multiprocessing.parent_process() is None
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    )


def _split_point(lengths: Sequence[int]) -> int:
    """The split K that best balances the two windows; 0 if none helps.

    Pass t outputs lengths[t] terms (non-decreasing, capped at keep + 1).
    Split at K, the lower window does Σ min(len, K) operations and the
    upper one Σ max(len - K, 0), which it can start only when the first
    pass longer than K does: after the S_t operations of the t passes
    not longer than K. With c = T - t such passes of T, the time is about
    max(S_t + K·c, S_T - K·c); on each interval of K between consecutive
    lengths t and c are fixed, so the two sides meet at K = (S_T - S_t)/2c.
    """
    sums = list(accumulate(lengths, initial=0))
    total, count = sums[-1], len(lengths)
    best, split, lo = total, 0, 1
    for t, hi in enumerate(lengths):
        if lo < hi:
            c = count - t
            k = min(max((total - sums[t]) // (2 * c), lo), hi - 1)
            cost = max(sums[t] + k * c, total - k * c)
            if cost < best:
                best, split = cost, k
        lo = max(lo, hi)
    return split


def _lower_window(
    passes: Iterable[int], split: int, conn: Connection | None = None
) -> list[int]:
    """Terms 0..split-1 of ∏(1 - q^m) over passes.

    With a pipe to a helper, every pass whose product reaches past split
    first sends it m and the m terms at split - m..split - 1, with zeros
    where the product has no term.
    """
    window, length = [1], 1
    for m in passes:
        if conn is not None and length + m > split:
            conn.send((m, [
                *repeat(0, m - split),
                *window[max(split - m, 0) :],
                *repeat(0, split - len(window)),
            ]))
        window = _sparse_step(window, m, [0] * m)
        del window[split:]
        length += m
    return window


def _upper_window(conn: Connection, parent_end: Connection, width: int) -> None:
    """Helper body: the passes on the width terms from split up.

    Each pass waits for its m boundary terms; None asks for the terms.
    """
    parent_end.close()
    window: list[int] = []
    try:
        while (step := conn.recv()) is not None:
            m, below = step
            window = _sparse_step(window, m, below)
            del window[width:]
        conn.send(window)
    except (EOFError, OSError):
        return  # the parent gave up, and reports why


def _expand_passes(spec: ProductSpec, passes: list[int], keep: int) -> list[int]:
    """Terms 0..keep of ∏(1 - q^m) over passes, on one core or two."""
    lengths = list(accumulate(passes, lambda n, m: min(n + m, keep + 1), initial=1))[1:]
    split = 0
    if sum(lengths) >= _SPLIT_WORK and _may_fork():
        split = _split_point(lengths)
    if not split:
        return _lower_window(passes, keep + 1)
    context = multiprocessing.get_context("fork")
    conn, helper_end = context.Pipe()
    helper = context.Process(
        target=_upper_window, args=(helper_end, conn, keep + 1 - split), daemon=True
    )
    # the helper flushes the streams it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    helper.start()
    try:
        helper_end.close()
        lower = _lower_window(passes, split, conn)
        conn.send(None)
        lower += conn.recv()
    except (EOFError, OSError) as exc:
        conn.close()
        helper.join(_HELPER_EXIT_S)
        raise ChildProcessError(
            f"{spec}: the helper for terms {split}..{keep} exited "
            f"(code {helper.exitcode}) before returning them"
        ) from exc
    finally:
        conn.close()
        helper.join(_HELPER_EXIT_S)
        if helper.is_alive():
            helper.terminate()
            helper.join()
    return lower


def expand_product(spec: ProductSpec) -> IntPolynomial:
    """Expand the product described by spec exactly.

    One sparse-factor pass per factor, ascending exponent order, each
    cut back to the terms up to keep; factors whose exponent is past
    keep cannot change those terms and are skipped. A product of k
    factors (1 - q^m) of total degree D satisfies a_{D-j} = (-1)^k a_j,
    so keep is D/2 + w, with w the largest factor exponent, and the rest
    is mirrored from the lower half. The terms computed past the
    midpoint (and the middle term, for even D) must equal their mirrors,
    or MirrorMismatchError is raised: that overlap is the check on the
    half that was not computed. A truncation below D/2 + w lowers keep,
    and the prefix is the result.

    The passes run in this process unless their work, Σ over passes of
    min(output length, keep + 1) coefficient operations, reaches
    _SPLIT_WORK (about 10^7, n ≈ 185 for P_n), the process may use more
    than one CPU, it is not a multiprocessing child (a --jobs worker)
    and has no other thread, and fork exists. Then a forked helper runs
    the passes on the window [K, keep] while this process runs them on
    [0, K), and before each pass that reaches K it sends the helper the
    m terms just below K. K comes from the pass lengths alone, so the
    two windows finish about together. The joined list is the one a
    single process computes, bit for bit, and the overlap check runs on
    it unchanged. The helper is joined before this returns or raises; a
    helper that exits before returning its terms raises
    ChildProcessError.
    """
    D = spec.full_degree
    top = min(D // 2 + spec.modulus * spec.upper_index + max(spec.residues), D)
    keep = top if spec.truncation is None else min(top, spec.truncation)
    passes = list(takewhile(keep.__ge__, spec.exponents()))
    coeffs = _expand_passes(spec, passes, keep)
    if keep < top:
        return IntPolynomial(coeffs)
    odd = spec.multiplicity * len(spec.residues) * (spec.upper_index + 1) % 2
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
