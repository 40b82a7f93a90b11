"""Exact dense univariate polynomials over the integers.

The workhorse is repeated multiplication by sparse binomials (1 - q^m),
which expands products like ∏ (1-q^{3j+1})(1-q^{3j+2}) in O(degree) per
factor with plain Python ints as coefficients. pow_trunc raises the
sparse closed-form bases of the divisor-class polynomials G_d by binary
powering over a schoolbook product; despite its name it never truncates.
The one truncation is ProductSpec.truncation, which keeps a prefix of
an expand_product result. The one divider, exact_div, divides by
(1-q^k) as a running sum per residue class and raises on a remainder.
Gaussian binomials use the same kernel: each step of the ratio
recurrence over k is one sparse pass and one exact_div.
Degrees reach a few million and coefficients a few thousand bits, so
the hot loops stay on raw lists and C-level map()/slice operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
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
# raw-list kernels (internal): no trimming, bound = max number of coefficients

def _sparse_step(p: Sequence[int], m: int, bound: int | None) -> list[int]:
    """p · (1 - q^m) on raw coefficients: c_e = p_e - p_{e-m}.

    p may be a list or a tuple; each branch builds its output as one list
    display, so no intermediate list is concatenated and thrown away.
    """
    n = len(p)
    if not n:
        return []
    if bound is None or bound >= n + m:
        if m >= n:
            return [*p, *repeat(0, m - n), *map(neg, p)]
        return [*p[:m], *map(sub, p[m:], p[: n - m]), *map(neg, p[n - m :])]
    if m >= n:
        return [*p, *repeat(0, m - n), *map(neg, p[: bound - m])]
    if bound <= n:
        return [*p[:m], *map(sub, p[m:bound], p[: bound - m])]
    return [*p[:m], *map(sub, p[m:], p[: n - m]), *map(neg, p[n - m : bound - m])]


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
    return IntPolynomial(_sparse_step(P.coeffs, m, None))


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
    """Exact Horner evaluation of P at an integer."""
    result = 0
    for c in reversed(P.coeffs):
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


def expand_product(spec: ProductSpec) -> IntPolynomial:
    """Expand the product described by spec exactly.

    One sparse-factor pass per factor, ascending exponent order; factors
    whose exponent reaches the bound cannot change kept terms and are
    skipped. A product of k factors (1 - q^m) of total degree D satisfies
    a_{D-j} = (-1)^k a_j. So when the kept terms reach past D/2 + w, with
    w the largest factor exponent, the passes keep only the terms up to
    D/2 + w and the rest is mirrored from the lower half. The w terms
    computed past the midpoint (and the middle term, for even D) must
    equal their mirrors, or MirrorMismatchError is raised: that overlap
    is the check on the half that was not computed.
    """
    D = spec.full_degree
    top = D // 2 + spec.modulus * spec.upper_index + max(spec.residues)
    mirror = top < D and (spec.truncation is None or spec.truncation >= top)
    if mirror:
        bound = top + 1
    else:
        bound = None if spec.truncation is None else spec.truncation + 1
    coeffs = [1]
    for m in spec.exponents():
        if bound is not None and m >= bound:
            break
        coeffs = _sparse_step(coeffs, m, bound)
    if not mirror:
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
