"""Truncated integer power series and the Hilbert-series constructions.

Two carriers: SeriesNumerator is a sparse integer polynomial (the numerator
1 - sum t^(d-d_i) + (r-1) t^d and its powers stay sparse), TruncatedSeries is
a dense coefficient window c_0..c_D (everything after dividing by (1-t)^n).
All arithmetic is exact big-integer; nothing in this module is modular or
floating point.

Powers of a numerator and their quotients by (1-t)^m come from one pass of
J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 3rd ed., section 4.7),
extended to the quotient (_expand); its one division per degree is exact,
so no rational number appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .combinatorics import PartitionLike, as_partition


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series tracked exactly through degree D."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("series window must contain degree 0")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...]) -> "TruncatedSeries":
        """A series over coeffs as given: a nonempty tuple of ints."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> int:
        """Coefficient of t^j; raises if j is outside the window."""
        if j < 0 or j > self.bound:
            raise IndexError(f"degree {j} outside window 0..{self.bound}")
        return self.coeffs[j]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


@dataclass(frozen=True)
class SeriesNumerator:
    """Sparse integer polynomial: distinct degrees, nonzero coefficients.
    The constructor merges (degree, coefficient) pairs given in any order."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        acc: dict[int, int] = {}
        for e, c in self.terms:
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
    def _trusted(cls, terms: tuple[tuple[int, int], ...]) -> "SeriesNumerator":
        """A polynomial over terms as given: (degree, coefficient) pairs of
        ints, degrees distinct, nonnegative and ascending, no coefficient 0."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def one(cls) -> "SeriesNumerator":
        return cls._trusted(((0, 1),))

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else 0

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
        return TruncatedSeries._trusted(tuple(out))

    def __repr__(self) -> str:
        return f"SeriesNumerator({list(self.terms)!r})"


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
    # the parts descend, so the degrees d - d_i ascend, from s to below d
    terms = [(0, 1)]
    terms.extend((d - di, -len(list(same))) for di, same in groupby(part.parts))
    terms.append((d, part.r - 1))
    return SeriesNumerator._trusted(tuple(terms))


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


def _expand(num: SeriesNumerator, l: int, m: int, bound: int) -> tuple[int, ...]:
    """Coefficients of num^l / (1-t)^m of degrees 0 through bound.

    Write num = t^v h with h_0 != 0 (h = 1 when l = 0); then num^l / (1-t)^m
    = t^(v l) f, and f = h^l / (1-t)^m satisfies h (1-t) f' = w f with
    w = l h' (1-t) + m h (for m = 0 leave out the (1-t) factors).  With
    u = h (1-t) (u = h when m = 0), its coefficient of t^(j-1) reads

        j h_0 f_j = sum_{k >= 1} (p_k - j u_k) f_(j-k),   p_k = w_(k-1) + k u_k,

    at most two nonzero (p_k, u_k) per term of h, one when m = 0.  So f_0 =
    h_0^l, and the division by j h_0 is exact: f has integer coefficients
    (h^l and 1/(1-t)^m do), they satisfy the identity, and j h_0 != 0 fixes
    f_j from those before it.  When m = 0, f ends at l deg h: the pass stops.
    """
    terms = num.terms if l else ((0, 1),)
    if not terms or terms[0][0] * l > bound:
        return (0,) * (bound + 1)
    v, h0 = terms[0]
    factors: list[list[int]] = []  # [k, p_k, u_k], k ascending
    for i, c in terms:
        i -= v
        if factors and factors[-1][0] == i:  # i - 1 is a degree of h too
            factors[-1][1] += (l + 1) * i * c
            factors[-1][2] += c
        else:
            factors.append([i, (l + 1) * i * c, c])
        if m:
            factors.append([i + 1, (m - (l + 1) * i - 1) * c, -c])
    factors = [t for t in factors if t[0] and (t[1] or t[2])]
    shift = v * l
    last = bound - shift if m else min(bound - shift, l * (terms[-1][0] - v))
    f = [h0 ** l]
    for j in range(1, last + 1):
        acc = 0
        for k, p, u in factors:
            if k > j:
                break
            acc += (p - j * u) * f[j - k]
        q, rem = divmod(acc, j * h0)
        assert not rem, f"inexact division at degree {j}"
        f.append(q)
    return (0,) * shift + tuple(f) + (0,) * (bound - shift - last)


def series_pow(num: SeriesNumerator, l: int, bound: int) -> SeriesNumerator:
    """The l-th power of num with every term above degree bound dropped: the
    m = 0 case of _expand, through degree min(bound, l deg num), in at most
    one step of one product per term of num for each degree."""
    if min(l, bound) < 0:
        raise ValueError(f"need l and bound >= 0, got {l} and {bound}")
    power = _expand(num, l, 0, min(bound, l * num.degree))
    return SeriesNumerator._trusted(tuple((j, c) for j, c in enumerate(power) if c))


def expand_rational(num: SeriesNumerator, n: int, bound: int) -> TruncatedSeries:
    """Coefficients of num / (1-t)^n through the given degree bound: the
    l = 1 case of _expand.  n = 0 means no denominator at all."""
    if min(n, bound) < 0:
        raise ValueError(f"need n and bound >= 0, got {n} and {bound}")
    return TruncatedSeries._trusted(_expand(num, 1, n, bound))


# Largest cost of one expand_power, in _expansion_cost's units.  Timed on
# eleven expansions on a 2-vCPU Xeon VM a unit took 2-16 ns (the fewest for
# long coefficients held, the most for many small products), so this admits
# at most about a third of a second of work, and under 80 MB of coefficients.
MAX_SERIES_COST = 20_000_000


def _expansion_cost(num: SeriesNumerator, l: int, m: int, bound: int) -> int:
    """Upper bound on the cost of _expand(num, l, m, bound), for num = 1 + R
    a reducible_numerator: R has T terms in degrees s..d, each coefficient
    at most r in absolute value, all of them summing to 2r - 1.  Units: 8
    per loop step and per coefficient product, 1 per 2^16 bit pairs
    multiplied and per 512 bits written, 1 per 32 bits held.

    The pass makes bound + 1 steps (min(bound, l d) + 1 when m = 0), each
    of one division and at most 2T + 1 products (T when m = 0) of a factor
    p_k - j u_k, below r (2 (l + 1)(d + 1) + m + 2 bound), by a coefficient
    f_j.  Only R^k with k <= min(l, bound // s) reach the bound, so a
    coefficient of num^l has at most 1 + min(l bits(2r - 1),
    min(l, bound // s) (bits(l (2r - 1)) + 1)) bits; with k = min(bound,
    m - 1), C(j + m - 1, m - 1) < (3(bound + m - 1)/k)^k for j <= bound;
    f_j sums at most bound + 1 such products; each returned degree is 1024 bits.
    """
    (s, _), (d, top) = num.terms[1], num.terms[-1]
    a = 2 * top + 1
    f_bits = 1 + min(l * a.bit_length(),
                     min(l, bound // s) * ((l * a).bit_length() + 1))
    if m:
        k = min(bound, m - 1)
        b_bits = 1 + (k * (3 * (bound + m - 1) // k + 1).bit_length() if k > 0 else 0)
        f_bits += b_bits + (bound + 1).bit_length()
    k_bits = ((top + 1) * (2 * (l + 1) * (d + 1) + m + 2 * bound)).bit_length()
    steps = bound + 1 if m else min(bound, l * d) + 1
    cost = steps * len(num.terms) * (2 if m else 1) * (
        8 + (f_bits * k_bits >> 16) + ((f_bits + k_bits) >> 9))
    return cost + ((steps * f_bits + (bound + 1) * 1024) >> 5)


def expand_power(partition: PartitionLike, l: int, m: int,
                 bound: int) -> TruncatedSeries:
    """reducible_numerator(partition)^l / (1-t)^m through degree bound (m = 0:
    the power itself), by one pass of _expand.  Raises ValueError before
    the pass starts when _expansion_cost is above MAX_SERIES_COST."""
    if min(l, m, bound) < 0:
        raise ValueError(f"need l, m and bound >= 0, got {l}, {m} and {bound}")
    num = reducible_numerator(partition)
    cost = _expansion_cost(num, l, m, bound)
    if cost > MAX_SERIES_COST:
        raise ValueError(
            f"expanding the {l}-th power of the numerator over (1-t)^{m} "
            f"through degree {bound} would cost about {cost} units, more "
            f"than {MAX_SERIES_COST}; lower n, l or the degree")
    return TruncatedSeries._trusted(_expand(num, l, m, bound))


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
    return plus_truncate(expand_power(part, l, n, bound))
