"""Truncated integer power series and the Hilbert-series constructions.

Two carriers: SeriesNumerator is a sparse integer polynomial (the numerator
1 - sum t^(d-d_i) + (r-1) t^d and its powers stay sparse), TruncatedSeries is
a dense coefficient window c_0..c_D (everything after dividing by (1-t)^n).
All arithmetic is exact big-integer; nothing in this module is modular or
floating point.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .combinatorics import PartitionLike, as_partition, binom


def _render_poly(pairs: Iterable[tuple[int, int]]) -> str:
    """Human-readable polynomial in t, e.g. '1 - t^4 - 2t^5 + 2t^7'."""
    chunks: list[str] = []
    for e, c in pairs:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            t = "t" if e == 1 else f"t^{e}"
            body = t if mag == 1 else f"{mag}{t}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


class TruncatedSeries:
    """Integer power series tracked exactly through degree D.

    Arithmetic between mismatched bounds truncates to the smaller one, which
    is the only honest answer: coefficients beyond a window are unknown, not
    zero.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise ValueError("series window must contain degree 0")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> int:
        """Coefficient of t^j; raises if j is outside the window."""
        if j < 0 or j > self.bound:
            raise IndexError(f"degree {j} outside window 0..{self.bound}")
        return self.coeffs[j]

    def truncate(self, new_bound: int) -> "TruncatedSeries":
        if new_bound < 0:
            raise ValueError("bound must be >= 0")
        if new_bound >= self.bound:
            return self
        return TruncatedSeries(self.coeffs[: new_bound + 1])

    def mul_numerator(self, num: "SeriesNumerator") -> "TruncatedSeries":
        """Multiply by a sparse polynomial, keeping this window's bound."""
        out = [0] * (self.bound + 1)
        for e, c in num.terms:
            if e > self.bound:
                continue
            for j in range(self.bound + 1 - e):
                out[e + j] += c * self.coeffs[j]
        return TruncatedSeries(out)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def to_json(self) -> list[str]:
        """Decimal strings, exact beyond 2^64."""
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        return _render_poly(enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


class SeriesNumerator:
    """Sparse integer polynomial: distinct degrees, nonzero coefficients."""

    __slots__ = ("terms",)

    terms: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        acc: dict[int, int] = {}
        for e, c in pairs:
            e = int(e)
            c = int(c)
            if e < 0:
                raise ValueError(f"negative degree {e}")
            acc[e] = acc.get(e, 0) + c
        object.__setattr__(
            self,
            "terms",
            tuple(sorted((e, c) for e, c in acc.items() if c != 0)),
        )

    @classmethod
    def one(cls) -> "SeriesNumerator":
        return cls([(0, 1)])

    @classmethod
    def one_minus_t_power(cls, k: int) -> "SeriesNumerator":
        """(1 - t)^k expanded with exact signs."""
        return cls((j, (-1) ** j * binom(k, j)) for j in range(k + 1))

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def coeff(self, e: int) -> int:
        for deg, c in self.terms:
            if deg == e:
                return c
        return 0

    def mul(self, other: "SeriesNumerator") -> "SeriesNumerator":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return SeriesNumerator(acc.items())

    def as_series(self, bound: int) -> TruncatedSeries:
        out = [0] * (bound + 1)
        for e, c in self.terms:
            if e <= bound:
                out[e] = c
        return TruncatedSeries(out)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesNumerator is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, SeriesNumerator):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def to_json(self) -> list[list[str]]:
        return [[str(e), str(c)] for e, c in self.terms]

    def __str__(self) -> str:
        return _render_poly(self.terms)

    def __repr__(self) -> str:
        return f"SeriesNumerator({list(self.terms)!r})"


def expand_rational(num: SeriesNumerator, n: int, bound: int) -> TruncatedSeries:
    """Coefficients of num / (1-t)^n through the given degree bound.

    Convolves the sparse numerator with the expansion of 1/(1-t)^n, whose
    j-th coefficient is C(j+n-1, n-1).  n = 0 means no denominator at all.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")
    if n == 0:
        return num.as_series(bound)
    out = [0] * (bound + 1)
    for e, c in num.terms:
        if e > bound:
            continue
        for j in range(bound + 1 - e):
            out[e + j] += c * binom(j + n - 1, n - 1)
    return TruncatedSeries(out)


def reducible_numerator(partition: PartitionLike) -> SeriesNumerator:
    """Numerator of the tangent-ideal quotient's Hilbert series.

    For lambda = [d_1, ..., d_r] this is 1 - sum_i t^(d-d_i) + (r-1) t^d,
    with like terms combined (repeated part sizes merge, and for r = 2 the
    result factors as (1-t^(d-d_1))(1-t^(d-d_2))).
    """
    part = as_partition(partition)
    if part.r < 2:
        raise ValueError("need a partition with r >= 2")
    d = part.d
    pairs = [(0, 1), (d, part.r - 1)]
    pairs.extend((d - di, -1) for di in part.parts)
    return SeriesNumerator(pairs)


def series_pow(num: SeriesNumerator, l: int, bound: int) -> SeriesNumerator:
    """The l-th power of num with every term above degree bound dropped.

    Cutting after each product is exact through the bound, because no
    numerator has a term of negative degree; callers read no further.
    """
    if l < 0:
        raise ValueError(f"need l >= 0, got {l}")
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")

    def mul(x: SeriesNumerator, y: SeriesNumerator) -> SeriesNumerator:
        acc: dict[int, int] = {}
        for e1, c1 in x.terms:
            for e2, c2 in y.terms:
                e = e1 + e2
                if e > bound:  # terms are sorted by degree
                    break
                acc[e] = acc.get(e, 0) + c1 * c2
        return SeriesNumerator(acc.items())

    result = SeriesNumerator.one()
    base = num
    e = l
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def plus_truncate(x: TruncatedSeries | Sequence[int]) -> TruncatedSeries:
    """The positive-part operator |.|+ on a coefficient window.

    Keeps coefficients while every earlier one (inclusive) is strictly
    positive; from the first nonpositive coefficient onward everything
    becomes zero.  Idempotent, and the identity on windows that are
    positive throughout.
    """
    coeffs = x.coeffs if isinstance(x, TruncatedSeries) else [int(c) for c in x]
    out = []
    alive = True
    for c in coeffs:
        if alive and c <= 0:
            alive = False
        out.append(c if alive else 0)
    return TruncatedSeries(out)


def artinian_bound(l: int, d: int) -> int:
    """Socle degree of the artinian reduction: its Hilbert series is a
    polynomial of degree l*(d-2), so this bound shows all of it."""
    return max(0, l * (d - 2))


def predicted_hilbert(
    n: int, l: int, partition: PartitionLike, bound: int | None = None
) -> TruncatedSeries:
    """Predicted Hilbert function of A = S/(I_P1 + ... + I_Pl).

    This is |numerator^l / (1-t)^n|+ through the bound (default: degree d).
    For 2l <= n the intersection is proper, the expansion is a genuine
    Hilbert function, and the plus-truncation changes nothing; past that
    regime the truncation is exactly the Lefschetz-consequence prediction.
    """
    part = as_partition(partition)
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if l < 1:
        raise ValueError(f"need l >= 1, got l={l}")
    if bound is None:
        bound = part.d
    num_l = series_pow(reducible_numerator(part), l, bound)
    return plus_truncate(expand_rational(num_l, n, bound))
