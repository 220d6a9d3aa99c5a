"""Truncated integer power series and the Hilbert-series constructions.

Two carriers: SeriesNumerator is a sparse integer polynomial (the numerator
1 - sum t^(d-d_i) + (r-1) t^d and its powers stay sparse), TruncatedSeries is
a dense coefficient window c_0..c_D (everything after dividing by (1-t)^n).
All arithmetic is exact big-integer; nothing in this module is modular or
floating point.

Powers of a numerator are built in one pass by J.C.P. Miller's recurrence
for the power of a series (Knuth, TAOCP Vol. 2, 3rd ed., section 4.7): the
coefficient of t^j of num^l follows from the j coefficients before it with
at most one product per term of num, however large l is.  Its one division
per degree is exact (see series_pow), so no rational number appears.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence

from .combinatorics import PartitionLike, as_partition


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

    def truncate(self, new_bound: int) -> "TruncatedSeries":
        if new_bound < 0:
            raise ValueError("bound must be >= 0")
        if new_bound >= self.bound:
            return self
        return TruncatedSeries(self.coeffs[: new_bound + 1])

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
        return TruncatedSeries._trusted(tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesNumerator is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, SeriesNumerator):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        return _render_poly(self.terms)

    def __repr__(self) -> str:
        return f"SeriesNumerator({list(self.terms)!r})"


def expand_rational(num: SeriesNumerator, n: int, bound: int) -> TruncatedSeries:
    """Coefficients of num / (1-t)^n through the given degree bound.

    Convolves the sparse numerator with the expansion of 1/(1-t)^n, whose
    j-th coefficient is C(j+n-1, n-1); each of those is computed once, from
    the one before.  n = 0 means no denominator at all.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")
    if n == 0:
        return num.as_series(bound)
    binomials = [1] * (bound + 1)
    for j in range(1, bound + 1):
        binomials[j] = binomials[j - 1] * (j + n - 1) // j
    out = [0] * (bound + 1)
    for e, c in num.terms:
        if e > bound:
            continue
        out[e:] = [o + c * b for o, b in zip(out[e:], binomials)]
    return TruncatedSeries._trusted(tuple(out))


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


def series_pow(num: SeriesNumerator, l: int, bound: int) -> SeriesNumerator:
    """The l-th power of num with every term above degree bound dropped.

    Miller's recurrence: write num = t^v h with h_0 != 0, and g = h^l.  Then
    h g' = l h' g, and its coefficient of t^(j-1) reads, for j >= 1,

        j h_0 g_j = sum_{i=1}^{min(j, deg h)} ((l+1) i - j) h_i g_{j-i},

    so g_0 = h_0^l and each g_j follows from those before it, with one
    product per term of h.  The division by j h_0 is exact: the integer
    coefficients of h^l satisfy the identity, and h_0 != 0 leaves each g_j
    no other solution, so the integer sum on the right is j h_0 times the
    integer g_j.  g_j vanishes past l deg h, and num^l = t^(v l) g, so the
    pass stops at degree min(bound - v l, l deg h).
    """
    if l < 0:
        raise ValueError(f"need l >= 0, got {l}")
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")
    if l == 0:
        return SeriesNumerator.one()
    if not num.terms:
        return num
    v, h0 = num.terms[0]
    shift = v * l
    if shift > bound:
        return SeriesNumerator._trusted(())
    l1 = l + 1
    h = [(e - v, c) for e, c in num.terms[1:]]
    g = [h0 ** l]
    for j in range(1, min(bound - shift, l * (num.degree - v)) + 1):
        acc = 0
        for i, c in h:
            if i > j:
                break
            acc += (l1 * i - j) * c * g[j - i]
        q, rem = divmod(acc, j * h0)
        assert not rem, f"inexact division at degree {j}"
        g.append(q)
    return SeriesNumerator._trusted(
        tuple((j + shift, c) for j, c in enumerate(g) if c))


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


# Largest cost of one expand_power, in _expansion_cost's units (40-70 ns
# each on a 2-vCPU Xeon VM): about a second, and under 80 MB of coefficients.
MAX_SERIES_COST = 20_000_000


def _expansion_cost(num: SeriesNumerator, l: int, m: int, bound: int) -> int:
    """Upper bound on the cost of num^l / (1-t)^m through degree bound, for
    num = 1 + R a reducible_numerator: R has T terms in degrees s..d, each
    coefficient at most r in absolute value, all of them summing to 2r - 1.
    Units: 8 per loop step and per coefficient product of series_pow, 2 per
    coefficient step of expand_rational, 1 per 2^16 bit pairs multiplied
    and per 512 bits written, 1 per 32 bits held.

    series_pow makes min(bound, l*d) + 1 loop steps; each makes at most T
    products of a factor ((l+1) i - j) h_i, below (l+1) d r, by a
    coefficient of num^l, and one division by j.  Through the bound num^l
    has at most 1 + min(l*d, bound + 1 - s) terms, at most
    prod_i (min(l, bound // e_i) + 1) over R's exponents e_i, and at most
    (bound + sum_i e_i)^T / (T! prod_i e_i), the volume that holds a unit
    cube at each exponent vector; expand_rational makes one step per term
    and degree.  Only R^k with k <= K = min(l, bound // s) reach the bound,
    so a coefficient is at most min((2r)^l, (2l(2r - 1))^K).  For j <= bound
    and k = min(bound, m - 1), C(j + m - 1, m - 1) < (3(bound + m - 1)/k)^k.
    Powers of at most 64 terms skip the costlier term counts; the
    predictor's series are smaller.
    """
    (s, _), (d, top) = num.terms[1], num.terms[-1]
    t = len(num.terms) - 1
    terms = 1 + min(l * d, max(0, bound + 1 - s))
    if terms > 64:
        prod = simplex = 1
        reach = bound
        for i, (e, _) in enumerate(num.terms[1:], 1):
            prod *= min(l, bound // e) + 1
            simplex *= i * e
            reach += e
        terms = min(terms, prod, reach ** t // simplex)
    a = 2 * top + 1
    c_bits = 1 + min(l * a.bit_length(),
                     min(l, bound // s) * ((l * a).bit_length() + 1))
    k_bits = ((l + 1) * d * (top + 1)).bit_length()
    k = min(bound, m - 1)
    b_bits = 1 + (k * (3 * (bound + m - 1) // k + 1).bit_length() if k > 0 else 0)
    steps = 1 + min(bound, l * d)
    cost = steps * (t + 1) * (
        8 + (c_bits * k_bits >> 16) + ((c_bits + k_bits) >> 9))
    if m:
        steps = bound + 1 + (terms - 1) * (bound + 1 - s)
        cost += bound * (2 + (b_bits >> 9)) + steps * (
            2 + ((c_bits + b_bits) >> 9) + (c_bits * b_bits >> 16))
    return cost + ((bound + 1) * (4 * c_bits + 2 * b_bits + 1024) >> 5)


def expand_power(partition: PartitionLike, l: int, m: int,
                 bound: int) -> TruncatedSeries:
    """reducible_numerator(partition)^l / (1-t)^m through degree bound (m = 0:
    the power itself).  Raises ValueError before series_pow starts when
    _expansion_cost is above MAX_SERIES_COST."""
    num = reducible_numerator(partition)
    cost = _expansion_cost(num, l, m, bound)
    if cost > MAX_SERIES_COST:
        raise ValueError(
            f"expanding the {l}-th power of the numerator over (1-t)^{m} "
            f"through degree {bound} would cost about {cost} units, more "
            f"than {MAX_SERIES_COST}; lower n, l or the degree")
    return expand_rational(series_pow(num, l, bound), m, bound)


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
