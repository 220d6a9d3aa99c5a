"""Closed-form prediction engine for secant varieties of X_{n-1,lambda}.

The single unified prediction works through the coefficients a_j(l, n,
lambda) of numerator^l / (1-t)^n, read off the series module: the secant
variety fills its ambient space iff some a_j with s <= j <= d is
nonpositive, and otherwise has dimension N - 1 - a_d.  On top
of that sit the proof-status dispatch (which hypotheses put an instance in a
proven regime), the complete n=3 secant-line classification, threshold
computations for the balanced / linear-factor / reducible-forms families,
and the g-test for the defectivity implication in the open region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .combinatorics import (
    Partition,
    PartitionLike,
    ProblemInstance,
    as_partition,
    binom,
    dim_variety,
    expected_dim,
)
from .series import expand_power

# ============================================================
# Prediction report
# ============================================================


@dataclass(frozen=True)
class PredictionReport:
    """Everything the prediction formula says about one instance.

    status is "proven" when the instance sits in a regime with an
    unconditional theorem, else "conjectural"; citation names the regime by
    its hypotheses.  errata_notes record places where a commonly quoted
    closed form disagrees with the primitive count this artifact uses.
    """

    instance: ProblemInstance
    dim_x: int
    fills: bool
    predicted_dim: int
    expected_dim: int
    defect: int
    epsilon: int
    a_seq: tuple[int, ...]
    first_nonpositive: Optional[int]
    overly_fills: bool
    status: str
    citation: str
    errata_notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """Flat JSON object with fixed field names."""
        inst = self.instance
        part = inst.partition
        return {
            "n": inst.n,
            "l": inst.l,
            "partition": part.text(),
            "d": part.d,
            "r": part.r,
            "s": part.s,
            "N": inst.N,
            "dimX": self.dim_x,
            "expected": self.expected_dim,
            "predicted": self.predicted_dim,
            "fills": self.fills,
            "defect": self.defect,
            "epsilon": self.epsilon,
            "status": self.status,
            "citation": self.citation,
            "a_seq": list(self.a_seq),
            "errata": list(self.errata_notes),
        }


LINEAR_FACTOR_DIM_NOTE = (
    "dim X for the [d-1,1] family is C(d+n-2,n-1)+n-2 by the factorwise "
    "count; the closed form C(d+n-2,n-1)+n-1 sometimes quoted for this "
    "family is off by one and is not used"
)


# ============================================================
# The a_j coefficients and the main prediction
# ============================================================


def syz_dim(n: int, l: int, s: int, d: int) -> int:
    """Degree-d dimension of the first syzygy module of l generic forms of
    degree s in n variables, via the Koszul resolution:
    sum_{k=2..l} (-1)^k C(l,k) C(d-ks+n-1, n-1).  Zero whenever d < 2s."""
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    total = _koszul_tail(l, n, s, d)
    assert total >= 0, f"syzygy count came out negative: {total}"
    return total


def alternating_binomial_sum(l: int, n: int, s: int, d: int) -> int:
    """sum_{k=0..l} (-1)^k C(l,k) C(d-ks+n-1, n-1).

    This is the l-th finite difference (step s) of the degree-(n-1)
    polynomial j -> C(j+n-1, n-1), so it vanishes whenever l > n-1, provided
    d - l*s + n - 1 >= 0 so that the zero-extension convention never bites.
    For s >= 1 every term with k*s > d is zero, since then d-ks+n-1 < n-1,
    so the sum stops at k = min(l, d // s).
    """
    top = min(l, d // s) if s >= 1 else l
    return sum(
        (-1) ** k * binom(l, k) * binom(d - k * s + n - 1, n - 1)
        for k in range(top + 1)
    )


def _koszul_tail(l: int, n: int, s: int, d: int) -> int:
    """sum_{k=2..l} (-1)^k C(l,k) C(d-ks+n-1, n-1): the alternating sum
    less its k = 0 and k = 1 terms.  Negative values are possible (l > n)."""
    return (alternating_binomial_sum(l, n, s, d)
            - binom(d + n - 1, n - 1) + l * binom(d - s + n - 1, n - 1))


def long_formula_dim(inst: ProblemInstance) -> int:
    """The explicit non-filling dimension formula, evaluated directly.

    l*dimX + l - 1 minus the syzygy-flavored correction terms.  Must agree
    with N - 1 - a_d on every non-filling instance; predict() asserts that.
    """
    n, l = inst.n, inst.l
    part = inst.partition
    d, s = part.d, part.s
    d1, d2 = part.parts[0], part.parts[1]
    value = l * dim_variety(n, part) + l - 1
    value -= _koszul_tail(l, n, s, d)
    value -= binom(l, 2) * binom(2 * d2 - d + n - 1, n - 1)
    value -= l * (l - 1) * binom(d1 + d2 - d + n - 1, n - 1)
    return value


def _status_dispatch(inst: ProblemInstance) -> tuple[str, str]:
    """First matching proven regime wins; otherwise conjectural."""
    n, l = inst.n, inst.l
    part = inst.partition
    d, r, s = part.d, part.r, part.s
    d1 = part.parts[0]
    if 2 * l <= n:
        return "proven", "proper intersection (2l <= n)"
    if r == 2 and 2 * l <= n + 1:
        return "proven", "two factors, 2l <= n+1 (complete intersection range)"
    if r == 2 and n == 3:
        return "proven", "two factors in three variables"
    if part.parts == (1, 1):
        return "proven", "pair of linear forms (d = 2)"
    if r == 2 and part.parts[1] == 1 and d >= 3:
        return "proven", "linear factor family [d-1,1]"
    if r >= 3 and n <= l and (l - 1) * s <= d1 + n - 1:
        return "proven", "high secant window (r >= 3, n <= l <= 1+(d1+n-1)/s)"
    if l >= binom(s + n - 1, n - 1):
        return "proven", "many secants fill (l >= C(s+n-1,n-1))"
    if n == 3 and l == 2:
        return "proven", "secant lines of plane curves (n = 3, l = 2)"
    if n == 3 and d1 == 1:
        return "proven", "totally split plane curves (n = 3, all parts 1)"
    return "conjectural", ""


def predict(inst: ProblemInstance) -> PredictionReport:
    """Predicted dimension, defect, and filling status of sigma_l.

    Scans a_j for j = 0..d: positivity below s is asserted (it is a
    theorem), a nonpositive value in [s, d] means the secant variety fills
    its ambient space, and otherwise the dimension is N - 1 - a_d, which is
    checked against the independent long-form evaluation.  For n=3, l=2 the
    result is cross-checked against the complete classification, and
    proven closed-form defect expressions are checked.
    """
    n, l = inst.n, inst.l
    part = inst.partition
    if l < 2:
        raise ValueError(f"prediction needs l >= 2, got l={l}")
    d, r, s = part.d, part.r, part.s
    d1, d2 = part.parts[0], part.parts[1]

    a_seq = expand_power(part, l, n, d).coeffs
    for j in range(min(s, d + 1)):
        if a_seq[j] <= 0:
            raise RuntimeError(
                f"internal error: a_{j} = {a_seq[j]} <= 0 below s={s} for {inst}"
            )
    first_np = next((j for j in range(s, d + 1) if a_seq[j] <= 0), None)
    fills = first_np is not None

    N = inst.N
    dim_x = dim_variety(n, part)
    exp = expected_dim(inst)
    if fills:
        predicted = N - 1
    else:
        predicted = N - 1 - a_seq[d]
        direct = long_formula_dim(inst)
        if direct != predicted:
            raise RuntimeError(
                f"internal error: dimension formula mismatch for {inst}: "
                f"N-1-a_d = {predicted}, direct = {direct}"
            )
    defect = exp.expected - predicted
    if defect < 0:
        raise RuntimeError(
            f"internal error: negative defect {defect} for {inst}"
        )
    overly = fills and exp.epsilon > 0
    status, citation = _status_dispatch(inst)

    errata: tuple[str, ...] = ()
    if r == 2 and part.parts[1] == 1 and d >= 3:
        errata = (LINEAR_FACTOR_DIM_NOTE,)

    if not fills and 2 * l <= n:
        eps = exp.epsilon
        if r == 2:
            if d1 == d2:
                closed = 2 * l * (l - 1) - eps
            else:
                closed = l * (l - 1) - eps + syz_dim(n, l, s, d)
            if defect != closed:
                raise RuntimeError(
                    f"internal error: two-factor closed-form defect {closed} "
                    f"!= {defect} for {inst}"
                )
        elif d1 >= s:
            closed = syz_dim(n, l, s, d) - eps
            if defect != closed:
                raise RuntimeError(
                    f"internal error: syzygy closed-form defect {closed} "
                    f"!= {defect} for {inst}"
                )
        else:
            if predicted != l * dim_x + l - 1:
                raise RuntimeError(
                    f"internal error: below the dividing hyperplane but "
                    f"dim != full parameter count for {inst}"
                )

    report = PredictionReport(
        instance=inst,
        dim_x=dim_x,
        fills=fills,
        predicted_dim=predicted,
        expected_dim=exp.expected,
        defect=defect,
        epsilon=exp.epsilon,
        a_seq=a_seq,
        first_nonpositive=first_np,
        overly_fills=overly,
        status=status,
        citation=citation,
        errata_notes=errata,
    )

    if n == 3 and l == 2:
        line = n3_secant_line(part)
        if line.dimension != predicted or line.defect != defect:
            raise RuntimeError(
                "internal error: n=3 secant-line classification disagrees "
                f"with the prediction for {part}: classification gives "
                f"dim {line.dimension} defect {line.defect}, prediction "
                f"gives dim {predicted} defect {defect}"
            )
    return report


# ============================================================
# n = 3, l = 2: the complete classification
# ============================================================


@dataclass(frozen=True)
class SecantLineN3Result:
    """Outcome of the secant-line classification for plane arrangements.

    classification is 'fills', 'defective', or 'nondefective';
    p = sum_{2 <= i < j <= r} d_i d_j enters the defect formula;
    exceptional marks membership in the finite filling table.  A
    nondefective result can still have dimension N - 1 (the parameter count
    just reaches the ambient dimension); comparisons against predict() go
    through dimension and defect, never the label.
    """

    partition: Partition
    classification: str
    dimension: int
    defect: int
    p: int
    exceptional: bool


def _n3_exceptional(part: Partition) -> bool:
    ps = part.parts
    if part.r == 3:
        return ps[2] == 1 or (ps[1], ps[2]) in {
            (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3),
        }
    if part.r == 4:
        return ps[1] <= 4 and ps[2] == 1 and ps[3] == 1
    if part.r == 5:
        return ps[1:] == (1, 1, 1, 1)
    return False


def n3_secant_line(partition: PartitionLike) -> SecantLineN3Result:
    """Classify sigma_2 of X_{2,lambda} (secant lines, three variables).

    Two factors always fill.  A finite table of exceptional shapes fills
    regardless of the dividing hyperplane.  Otherwise d_1 >= s is defective
    with defect min(C(d_1-s+2, 2), 2p-3s), and d_1 < s is nondefective with
    the full parameter count 2*dimX + 1.
    """
    part = as_partition(partition)
    if part.r < 2:
        raise ValueError("need a partition with r >= 2")
    d, s = part.d, part.s
    d1 = part.parts[0]
    ambient = binom(d + 2, 2) - 1
    dim_x = dim_variety(3, part)
    tail = part.parts[1:]
    p = (s * s - sum(di * di for di in tail)) // 2
    exceptional = _n3_exceptional(part)

    if part.r == 2 or exceptional:
        return SecantLineN3Result(part, "fills", ambient, 0, p, exceptional)
    if d1 >= s:
        defect = min(binom(d1 - s + 2, 2), 2 * p - 3 * s)
        if defect <= 0:
            raise RuntimeError(
                f"internal error: defective branch with defect {defect} for {part}"
            )
        expected = min(ambient, 2 * dim_x + 1)
        return SecantLineN3Result(
            part, "defective", expected - defect, defect, p, False
        )
    dimension = 2 * dim_x + 1
    if dimension > ambient:
        raise RuntimeError(
            f"internal error: nondefective dimension {dimension} exceeds "
            f"ambient {ambient} for {part}"
        )
    return SecantLineN3Result(part, "nondefective", dimension, 0, p, False)


# ============================================================
# Families: balanced, linear factor, all reducible forms
# ============================================================

FAMILIES = ("balanced", "linear_factor", "reducible_forms")


def threshold_l0(family: str, n: int, d: int) -> int:
    """Least secant index l0 from which the family fills its ambient space.

    Integer search on the defining inequality, never the closed radical
    form:

    * balanced ([d/2, d/2], d even): least l >= n/2 with
      N <= 2*l*B + l - 2*l^2 where B = C(d/2+n-1, n-1), or with 2*l >= B,
      where filling holds regardless (the tangent spaces of that many
      points already span, since N <= B^2 - B there).  While 2*l < B the
      right side increases with l, so the l that satisfy it are those from
      l0 on, and a bisection on [n/2, B/2] finds l0.
    * linear_factor ([d-1, 1], d >= 3) and reducible_forms (d >= 2):
      least l >= n/2 with C(d-l+n-1, d) <= l*(n-l); always at most n-1.
      In u = n - l, divided by u, the condition reads
      (u+1)...(u+d-1)/d! <= n - u: the left side increases with u and the
      right side decreases, so the u that satisfy it are 1..u_max, and a
      bisection on [1, n/2] finds u_max.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if family == "balanced":
        if d < 2 or d % 2:
            raise ValueError(f"balanced family needs even d >= 2, got d={d}")
        big_b = binom(d // 2 + n - 1, n - 1)
        ambient_n = binom(d + n - 1, n - 1)
        lo, hi = (n + 1) // 2, (big_b + 1) // 2  # B >= n, and hi fills
        while lo < hi:
            l = (lo + hi) // 2
            if ambient_n <= 2 * l * big_b + l - 2 * l * l or 2 * l >= big_b:
                hi = l
            else:
                lo = l + 1
        return lo
    min_d = 3 if family == "linear_factor" else 2
    if d < min_d:
        raise ValueError(f"family {family} needs d >= {min_d}, got d={d}")
    lo, hi = 1, n // 2  # u = 1 always satisfies it: 1 <= n - 1
    while lo < hi:
        u = (lo + hi + 1) // 2
        if binom(d + u - 1, d) <= u * (n - u):
            lo = u
        else:
            hi = u - 1
    return n - lo


def linear_factor_predict(n: int, l: int, d: int) -> PredictionReport:
    """Prediction for the linear-factor family lambda = [d-1, 1], d >= 3.

    Routed through predict() for the values, then checked against the
    unconditional closed forms: fills exactly when l >= l0, and otherwise
    dim = N - C(d+n-l-1, d) + l*(n-l) - 1 with a strictly positive defect.
    The status is proven either way.
    """
    if d < 3:
        raise ValueError(f"linear-factor family needs d >= 3, got d={d}")
    if l < 2:
        raise ValueError(f"need l >= 2, got l={l}")
    inst = ProblemInstance(n, l, Partition([d - 1, 1]))
    report = predict(inst)
    l0 = threshold_l0("linear_factor", n, d)
    if l >= l0:
        if not report.fills:
            raise RuntimeError(
                f"internal error: l={l} >= l0={l0} but the prediction "
                f"does not fill for (n={n}, d={d})"
            )
    else:
        want = binom(d + n - 1, n - 1) - binom(d + n - l - 1, d) + l * (n - l) - 1
        if report.fills or report.predicted_dim != want:
            raise RuntimeError(
                f"internal error: closed-form dim {want} disagrees with "
                f"prediction {report.predicted_dim} for (n={n}, l={l}, d={d})"
            )
        if report.defect <= 0:
            raise RuntimeError(
                f"internal error: non-filling linear-factor case must be "
                f"defective, got defect {report.defect}"
            )
        if report.epsilon == 0:
            # The usually quoted defect closed form for this family carries
            # the off-by-one dim X and overshoots by exactly l.
            quoted = (
                binom(d + n - l - 1, d)
                + l * binom(d + n - 2, n - 1)
                - binom(d + n - 1, n - 1)
                + l * l
            )
            if report.defect != quoted - l:
                raise RuntimeError(
                    f"internal error: defect {report.defect} is not the "
                    f"quoted closed form {quoted} minus l={l}"
                )
    return replace(report, status="proven",
                   citation="linear factor family [d-1,1]")


def reducible_forms_predict(n: int, l: int, d: int) -> PredictionReport:
    """Prediction for the full variety of reducible degree-d forms.

    The union over all two-part (and finer) splittings has the same secant
    dimensions as its largest component, the [d-1,1] family ([1,1] when
    d = 2): proven for 2l <= n, proven to fill for l >= l0, and conjectured
    equal in the window between.  The returned report carries the stand-in
    partition and a status reflecting the family-level theorem.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    if l < 2:
        raise ValueError(f"need l >= 2, got l={l}")
    lam = Partition([d - 1, 1]) if d >= 3 else Partition([1, 1])
    report = predict(ProblemInstance(n, l, lam))
    l0 = threshold_l0("reducible_forms", n, d)
    if 2 * l <= n:
        status, citation = "proven", "reducible forms, proper intersection (2l <= n)"
    elif l >= l0:
        status, citation = "proven", f"reducible forms fill (l >= l0 = {l0})"
        if not report.fills:
            raise RuntimeError(
                f"internal error: l={l} >= l0={l0} but the stand-in "
                f"prediction does not fill for (n={n}, d={d})"
            )
    else:
        status, citation = "conjectural", ""
    return replace(report, status=status, citation=citation,
                   errata_notes=(LINEAR_FACTOR_DIM_NOTE,))


# ============================================================
# The defectivity-implication test on the open region
# ============================================================


@dataclass(frozen=True)
class Remark510Result:
    g: int
    implication_holds: bool


def remark510_check(n: int, l: int, partition: PartitionLike) -> Remark510Result:
    """Does the dimension prediction imply defectivity above the hyperplane?

    For d_1 >= s the prediction says a non-filling secant variety has
    dimension l*dimX + l - 1 - g - (two more correction terms), with
    g = sum_{k=2..l} (-1)^k C(l,k) C(d_1-(k-1)s+n-1, n-1).  If g > 0 the
    defectivity implication holds outright.  If g <= 0, it still holds
    whenever l*dimX([d_1,1,...,1]) + l >= N, which covers every partition
    of d = d_1 + s at once (their varieties are only bigger).
    """
    part = as_partition(partition)
    d1 = part.parts[0]
    s = part.s
    if d1 < s:
        raise ValueError(
            f"check applies above the dividing hyperplane (d1 >= s); "
            f"got d1={d1}, s={s}"
        )
    g = _koszul_tail(l, n, s, part.d)
    if g > 0:
        return Remark510Result(g, True)
    spread = Partition([d1] + [1] * s)
    holds = l * dim_variety(n, spread) + l >= binom(d1 + s + n - 1, n - 1)
    return Remark510Result(g, holds)
