"""Partitions, binomial conventions, and dimension counts for varieties of
reducible hypersurfaces.

A point of X_{n-1,lambda} is a degree-d form in n variables that factors with
degree pattern lambda = [d_1, ..., d_r].  Everything downstream (series,
predictions, the oracle) consumes the combinatorial quantities defined here:
the zero-extended binomial, dim X, the expected secant dimension with its
epsilon correction, and the dominance order on partitions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence, Union


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), zero outside the classical range.

    Returns 0 whenever a < 0, b < 0, or b > a.  This zero-extension is load
    bearing: the dimension formulas index binomials by differences like
    d_1 - (k-1)*s + n - 1 that routinely go negative, and every such term
    must silently vanish.  Exact big integers, no overflow.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class Partition:
    """A partition d_1 >= d_2 >= ... >= d_r >= 1, stored canonically.

    The constructor sorts, so ``Partition([2, 3, 2])`` and
    ``Partition([3, 2, 2])`` are the same value.  Derived attributes follow
    the usual naming: d is the total, r the number of parts, s = d - d_1
    (the sum of all parts except the largest), and t the multiplicity of
    the largest part.  d, r and s are stored once, at construction.
    """

    parts: tuple[int, ...]
    d: int = field(init=False, compare=False, repr=False)
    r: int = field(init=False, compare=False, repr=False)
    s: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ps = sorted((int(p) for p in self.parts), reverse=True)
        if not ps:
            raise ValueError("partition needs at least one part")
        if ps[-1] < 1:
            raise ValueError(f"parts must be positive integers, got {ps}")
        d = sum(ps)
        object.__setattr__(self, "parts", tuple(ps))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", len(ps))
        object.__setattr__(self, "s", d - ps[0])

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma-separated text form, e.g. ``"3,2,2"``.

        Values are sorted descending, so "2,3,2" parses to the same
        partition.
        """
        items = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not items:
            raise ValueError(f"empty partition text: {text!r}")
        try:
            return cls(int(piece) for piece in items)
        except ValueError as exc:
            raise ValueError(f"bad partition text {text!r}") from exc

    @property
    def t(self) -> int:
        """Multiplicity of the largest part."""
        d1 = self.parts[0]
        return sum(1 for p in self.parts if p == d1)

    def text(self) -> str:
        return ",".join(map(str, self.parts))

    def __repr__(self) -> str:
        return f"Partition([{self.text()}])"


PartitionLike = Union[Partition, Sequence[int], str]


def as_partition(value: PartitionLike) -> Partition:
    """Coerce a Partition, part sequence, or text form to a Partition."""
    if isinstance(value, Partition):
        return value
    if isinstance(value, str):
        return Partition.from_text(value)
    return Partition(value)


@dataclass(frozen=True)
class ProblemInstance:
    """One secant-variety problem: sigma_l of X_{n-1,lambda}.

    n is the number of variables (n >= 3; two variables make the question
    trivial), l the secant index, and the partition needs at least two
    parts for the variety to consist of honestly reducible forms.
    """

    n: int
    l: int
    partition: Partition

    def __post_init__(self):
        part = as_partition(self.partition)
        object.__setattr__(self, "partition", part)
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if self.l < 1:
            raise ValueError(f"need l >= 1, got l={self.l}")
        if part.r < 2:
            raise ValueError("secant problems need a partition with r >= 2")

    @property
    def d(self) -> int:
        return self.partition.d

    @property
    def N(self) -> int:
        """Number of degree-d monomials in n variables: the ambient
        projective space is P^(N-1)."""
        return binom(self.d + self.n - 1, self.n - 1)


def record_json(record) -> dict:
    """A result dataclass as JSON: its fields in order, a value with its own
    to_json through it, tuples as lists with nested results as dicts, and an
    `instance` field as n, l, partition."""
    out = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.name == "instance":
            out.update(n=value.n, l=value.l, partition=value.partition.text())
        elif hasattr(value, "to_json"):
            out[f.name] = value.to_json()
        elif isinstance(value, tuple):
            out[f.name] = [record_json(v) if dataclasses.is_dataclass(v) else v
                           for v in value]
        else:
            out[f.name] = value
    return out


def dim_variety(n: int, partition: PartitionLike) -> int:
    """Dimension of X_{n-1,lambda}: sum of C(d_i+n-1, n-1) minus r.

    Each factor contributes its own projective space of forms and the
    product map onto X is finite, so dimensions add up; the -r accounts
    for projectivizing each factor.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    part = as_partition(partition)
    return sum(binom(di + n - 1, n - 1) for di in part.parts) - part.r


class ExpectedDim(NamedTuple):
    expected: int
    epsilon: int


def expected_dim(inst: ProblemInstance) -> ExpectedDim:
    """Expected dimension of sigma_l and the epsilon overshoot.

    expected = min(N-1, l*dimX + l - 1) is the naive parameter count capped
    by the ambient space; epsilon = max(0, l*dimX + l - 1 - (N-1)) measures
    how far the parameter count overshoots, which corrects several
    closed-form defect expressions.
    """
    return _expected(inst.l, dim_variety(inst.n, inst.partition), inst.N)


def _expected(l: int, dim_x: int, N: int) -> ExpectedDim:
    """expected_dim from l, dim X and N, for a caller that holds them."""
    count = l * dim_x + l - 1
    ambient = N - 1
    return ExpectedDim(min(ambient, count), max(0, count - ambient))


def partition_compare(lam1: PartitionLike, lam2: PartitionLike) -> str:
    """Dominance order: one of 'less', 'greater', 'equal', 'incomparable'.

    lam1 >= lam2 iff every prefix sum of lam1 is >= the corresponding prefix
    sum of lam2, with out-of-range parts read as zero.  Only partitions of
    the same total are comparable; mismatched totals raise ValueError.
    """
    p1 = as_partition(lam1)
    p2 = as_partition(lam2)
    if p1.d != p2.d:
        raise ValueError(f"cannot compare partitions of {p1.d} and {p2.d}")
    ge = True
    le = True
    acc1 = 0
    acc2 = 0
    for i in range(max(p1.r, p2.r)):
        acc1 += p1.parts[i] if i < p1.r else 0
        acc2 += p2.parts[i] if i < p2.r else 0
        if acc1 < acc2:
            ge = False
        if acc1 > acc2:
            le = False
    if ge and le:
        return "equal"
    if ge:
        return "greater"
    if le:
        return "less"
    return "incomparable"


def enumerate_partitions(d: int, r_min: int, r_max: int) -> list[Partition]:
    """All partitions of d with part count in [r_min, r_max].

    Deterministic order: ascending in the number of parts, then reverse
    lexicographic on the part sequence (largest first part first), e.g.
    d=7, r=3 gives [5,1,1], [4,2,1], [3,3,1], [3,2,2].  Sweep outputs rely
    on this order being stable, so do not change it.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    if r_min > r_max:
        return []
    if r_min < 2:
        raise ValueError(f"need r_min >= 2, got {r_min}")
    r_max = min(r_max, d)  # a partition of d has at most d parts

    def parts_with(total: int, k: int, cap: int) -> Iterator[list[int]]:
        if k == 1:
            if 1 <= total <= cap:
                yield [total]
            return
        # first part a leaves total-a for k-1 parts, each in [1, a]
        lo = -(-total // k)  # ceil(total/k)
        hi = min(cap, total - (k - 1))
        for a in range(hi, lo - 1, -1):
            for rest in parts_with(total - a, k - 1, a):
                yield [a] + rest

    out: list[Partition] = []
    for r in range(r_min, r_max + 1):
        for parts in parts_with(d, r, d):
            out.append(Partition(parts))
    return out


class SegreReport(NamedTuple):
    factors: tuple[int, ...]
    balanced: bool
    nondefective_implied: bool


def segre_report(n: int, partition: PartitionLike, l: int, prediction) -> SegreReport:
    """Translate a secant prediction into the Segre-variety dialect.

    X_{n-1,lambda} is the image of a Segre-like product of the factor spaces
    P^(n_i - 1) with n_i = C(d_i+n-1, n-1).  The product is called balanced
    when n_1 - 1 <= prod_{i>=2} n_i - sum_{i>=2} (n_i - 1), the regime where
    general non-defectivity statements for Segre varieties are expected to
    hold.  nondefective_implied reports whether this prediction, taken at
    face value, certifies a non-defective secant of the corresponding Segre
    variety: it must be non-defective, proven, and not overly fill (i.e.
    predicted dimension exactly l*dimX + l - 1).
    """
    part = as_partition(partition)
    factors = tuple(binom(di + n - 1, n - 1) for di in part.parts)
    head = factors[0]
    tail_prod = math.prod(factors[1:])
    tail_sum = sum(ni - 1 for ni in factors[1:])
    balanced = head - 1 <= tail_prod - tail_sum

    full_count = l * dim_variety(n, part) + l - 1
    implied = (
        prediction.defect == 0
        and prediction.status == "proven"
        and prediction.predicted_dim == full_count
    )
    return SegreReport(factors, balanced, implied)
