"""Terracini rank runs over a large prime field.

Everything here computes with explicit random points: each point of
X_{n-1,lambda} is a product of random forms of degrees lambda, its tangent
ideal is generated by the r partial products, and dim sigma_l + 1 is the
rank of the degree-d piece of the sum of l such ideals.  Ranks at a random
specialization never exceed the generic rank, so the max over trials is a
certified lower bound that equals the generic value with probability at
least 1 - (matrix size)/p per trial.  No closed-form prediction is
consulted anywhere in this module.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..combinatorics import PartitionLike, ProblemInstance, as_partition, expected_dim
from ..series import expand_rational, plus_truncate, predicted_hilbert, series_pow
from ..series import SeriesNumerator
from .forms import HomogeneousForm, eliminate_linear, random_form, tangent_generators
from .modmat import P_LIMIT, RankAccumulator
from .monomials import exponents, grade_size, rank_rows

# Entries in one block of rows handed to the rank kernel.
_BATCH_ENTRIES = 250_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64 bits of input."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeFieldConfig:
    """Field, trial count, seed, and the resource guard for oracle runs.

    max_columns caps the width of any matrix a run is allowed to build; a
    run that would exceed it raises ResourceGuardExceeded instead of
    starting.  p must stay below ~9.5e7 so the blocked float64 products in
    the rank kernel remain exact.
    """

    p: int = 1_000_003
    trials: int = 3
    seed: int = 0
    max_columns: int = 250_000

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not 2 < self.p < P_LIMIT:
            raise ValueError(f"p must be an odd prime below {P_LIMIT}, got {self.p}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"need a nonnegative seed, got {self.seed}")
        if self.max_columns < 1:
            raise ValueError(f"need max_columns >= 1, got {self.max_columns}")


class ResourceGuardExceeded(RuntimeError):
    """A run refused to build a matrix wider than the configured bound."""

    def __init__(self, columns: int, bound: int, context: str):
        super().__init__(
            f"{context}: matrix would have {columns} columns, guard is {bound}"
        )
        self.columns = columns
        self.bound = bound
        self.context = context


# Fixed namespaces so the derived random streams of distinct run kinds never
# collide even at equal (trial, point, factor) coordinates.
_TAG_ORACLE = 0
_TAG_WLP = 1
_TAG_FROEBERG = 2


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *path)))


def _point_generators(n: int, parts: Sequence[int], p: int, seed: int,
                      tag: int, trial: int, point: int) -> tuple[HomogeneousForm, ...]:
    factors = [
        random_form(n, e, p, _rng(seed, tag, n, trial, point, i))
        for i, e in enumerate(parts)
    ]
    return tangent_generators(factors, p)


def ideal_piece_rank(generators: Sequence[HomogeneousForm], j: int, p: int,
                     max_columns: Optional[int] = None) -> int:
    """Rank over Z/p of the degree-j piece of the ideal the forms generate.

    Rows are coefficient vectors of m * G for every generator G and every
    monomial m of degree j - deg G.  They are stacked across generators
    into blocks of at most _BATCH_ENTRIES entries, so the rank kernel sees
    few large blocks while peak memory stays flat.  Generators of degree
    above j contribute nothing.
    """
    usable = [g for g in generators if g.degree <= j and not g.is_zero]
    if not usable:
        return 0
    n = usable[0].n
    if any(g.n != n for g in usable):
        raise ValueError("generators live in different variable counts")
    ncols = grade_size(n, j)
    if max_columns is not None and ncols > max_columns:
        raise ResourceGuardExceeded(ncols, max_columns, f"degree-{j} piece")
    if ncols >= p:
        warnings.warn(
            f"matrix dimension {ncols} is at least p={p}; the per-trial "
            f"failure bound is void",
            stacklevel=2,
        )
    acc = RankAccumulator(ncols, p)
    step = max(1, _BATCH_ENTRIES // ncols)
    batch = np.zeros((step, ncols), np.int64)
    filled = 0
    for g in usable:
        mon = exponents(n, j - g.degree)
        gexp = exponents(n, g.degree)
        lo = 0
        while lo < mon.shape[0]:
            chunk = mon[lo : lo + step - filled]
            lo += chunk.shape[0]
            sums = chunk[:, None, :].astype(np.int64) + gexp[None, :, :]
            ranks = rank_rows(sums.reshape(-1, n)).reshape(chunk.shape[0], -1)
            at = filled + np.arange(chunk.shape[0])
            batch[at[:, None], ranks] = g.coeffs[None, :]
            filled += chunk.shape[0]
            if filled == step:
                acc.add_rows(batch)
                if acc.rank == ncols:
                    return ncols
                batch = np.zeros((step, ncols), np.int64)
                filled = 0
    if filled:
        acc.add_rows(batch[:filled])
    return acc.rank


def _split_linear(points: Sequence[Sequence[HomogeneousForm]]):
    linear = [g for gens in points for g in gens if g.degree == 1]
    higher = [g for gens in points for g in gens if g.degree > 1]
    return linear, higher


def _eliminated_piece_rank(points, n: int, j: int, p: int,
                           max_columns: Optional[int]) -> int:
    """Degree-j rank of the ideal sum after removing its linear generators.

    The span of the linear generators has some rank q; modulo that span the
    ring is a polynomial ring in n - q variables and the remaining
    generators map to forms there.  The identity used:
    rank = N_j - grade_size(n-q, j) + (rank of the images at degree j).
    Exact for arbitrary (not just generic) samples.
    """
    if j == 0:
        return 0
    linear, higher = _split_linear(points)
    new_n, reduced = eliminate_linear(linear, higher, p)
    full = grade_size(n, j)
    if new_n == 0:
        return full
    small = grade_size(new_n, j)
    if max_columns is not None and small > max_columns:
        raise ResourceGuardExceeded(small, max_columns,
                                    f"degree-{j} piece after elimination")
    return full - small + ideal_piece_rank(reduced, j, p, max_columns)


@dataclass(frozen=True)
class OracleRun:
    """Result of one max-over-trials Terracini rank computation.

    trial_ranks holds the degree-d rank of each trial so a lucky
    degeneration stays visible; hilbert (when requested) is the quotient
    Hilbert function j -> C(j+n-1, n-1) - rank_j for j = 0..d, with each
    rank_j maximized over trials separately.
    """

    instance: ProblemInstance
    p: int
    seed: int
    trials: int
    trial_ranks: tuple[int, ...]
    max_rank: int
    secant_dim: int
    codim: int
    fills: bool
    columns: int
    eliminated: bool
    hilbert: Optional[tuple[int, ...]] = None

    def to_json(self) -> dict:
        inst = self.instance
        out = {
            "n": inst.n,
            "l": inst.l,
            "partition": inst.partition.text(),
            "p": self.p,
            "seed": self.seed,
            "trials": self.trials,
            "trial_ranks": list(self.trial_ranks),
            "max_rank": self.max_rank,
            "secant_dim": self.secant_dim,
            "codim": self.codim,
            "fills": self.fills,
            "columns": self.columns,
            "eliminated": self.eliminated,
        }
        if self.hilbert is not None:
            out["hilbert"] = list(self.hilbert)
        return out


def _use_elimination(partition) -> bool:
    # Linear tangent-ideal generators exist exactly when some part equals
    # d - 1, which forces the shape [d-1, 1] (including [1, 1]).
    return partition.r == 2 and partition.parts[1] == 1


def oracle_run(inst: ProblemInstance, cfg: PrimeFieldConfig,
               want_hilbert: bool = False,
               elimination: object = "auto") -> OracleRun:
    """Sample l random points per trial and rank their joint tangent ideal.

    elimination: "auto" removes linear generators exactly whenever the
    partition provides them; True forces that path, False forces the naive
    one.  Results agree; the eliminated path just works in fewer variables.
    """
    n, l = inst.n, inst.l
    part = inst.partition
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    d = part.d
    big_n = grade_size(n, d)
    elim = _use_elimination(part) if elimination == "auto" else bool(elimination)

    if elim:
        n_linear = sum(1 for e in part.parts if e == part.d - 1) * l
        effective = grade_size(max(0, n - min(n, n_linear)), d)
    else:
        effective = big_n
    if effective > cfg.max_columns:
        raise ResourceGuardExceeded(effective, cfg.max_columns,
                                    f"oracle run for {inst}")

    degrees = list(range(d + 1)) if want_hilbert else [d]
    best = {j: 0 for j in degrees}
    trial_ranks: list[int] = []
    for trial in range(cfg.trials):
        points = [
            _point_generators(n, part.parts, cfg.p, cfg.seed, _TAG_ORACLE,
                              trial, point)
            for point in range(l)
        ]
        flat = [g for gens in points for g in gens]
        rank_at_d = 0
        for j in degrees:
            if elim:
                r = _eliminated_piece_rank(points, n, j, cfg.p, cfg.max_columns)
            else:
                r = ideal_piece_rank(flat, j, cfg.p, cfg.max_columns)
            best[j] = max(best[j], r)
            if j == d:
                rank_at_d = r
        trial_ranks.append(rank_at_d)
    max_rank = best[d]
    secant_dim = max_rank - 1
    exp = expected_dim(inst)
    if secant_dim > exp.expected:
        raise RuntimeError(
            f"internal error: oracle dimension {secant_dim} exceeds the "
            f"expected dimension {exp.expected} for {inst}"
        )
    hilbert = None
    if want_hilbert:
        hilbert = tuple(grade_size(n, j) - best[j] for j in degrees)
        if any(h < 0 for h in hilbert):
            raise RuntimeError(f"internal error: negative Hilbert value for {inst}")
    return OracleRun(
        instance=inst,
        p=cfg.p,
        seed=cfg.seed,
        trials=cfg.trials,
        trial_ranks=tuple(trial_ranks),
        max_rank=max_rank,
        secant_dim=secant_dim,
        codim=big_n - max_rank,
        fills=max_rank == big_n,
        columns=effective,
        eliminated=elim,
        hilbert=hilbert,
    )


# ------------------------------------------------------------
# Weak Lefschetz ladder
# ------------------------------------------------------------


@dataclass(frozen=True)
class WlpLevel:
    """One rung: the construction re-realized in `variables` variables."""

    variables: int
    predicted: tuple[int, ...]
    observed: Optional[tuple[int, ...]]
    matched: Optional[bool]
    trials_used: int
    skipped_reason: Optional[str] = None


@dataclass(frozen=True)
class WlpCheckResult:
    instance: ProblemInstance
    k: int
    passed: bool
    vacuous: bool
    levels: tuple[WlpLevel, ...]

    def to_json(self) -> dict:
        inst = self.instance
        return {
            "n": inst.n,
            "l": inst.l,
            "partition": inst.partition.text(),
            "k": self.k,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "levels": [
                {
                    "variables": lv.variables,
                    "predicted": list(lv.predicted),
                    "observed": None if lv.observed is None else list(lv.observed),
                    "matched": lv.matched,
                    "trials_used": lv.trials_used,
                    "skipped_reason": lv.skipped_reason,
                }
                for lv in self.levels
            ],
        }


def _construction_hilbert_vs(n_vars: int, parts: tuple[int, ...], l: int,
                             cfg: PrimeFieldConfig, target: tuple[int, ...],
                             tag: int) -> tuple[tuple[int, ...], int]:
    """Oracle Hilbert function of the l-point construction in n_vars
    variables, degrees 0..d, stopping early once a trial matches target.

    A match certifies the comparison: a random specialization can only have
    smaller ranks, hence a larger Hilbert function, than the generic one.
    """
    d = sum(parts)
    observed: Optional[list[int]] = None
    trials_used = 0
    for trial in range(cfg.trials):
        trials_used = trial + 1
        points = [
            _point_generators(n_vars, parts, cfg.p, cfg.seed, tag, trial, point)
            for point in range(l)
        ]
        flat = [g for gens in points for g in gens]
        hf = [
            grade_size(n_vars, j) - ideal_piece_rank(flat, j, cfg.p,
                                                     cfg.max_columns)
            for j in range(d + 1)
        ]
        observed = hf if observed is None else [min(a, b) for a, b in zip(observed, hf)]
        if tuple(observed) == target:
            break
    assert observed is not None
    return tuple(observed), trials_used


@functools.lru_cache(maxsize=1024)
def _ladder_level(n_vars: int, parts: tuple[int, ...], l: int,
                  cfg: PrimeFieldConfig) -> WlpLevel:
    """One Weak Lefschetz level: the oracle Hilbert function of the l-point
    construction in n_vars variables against the predicted one.  Memoised,
    since the ladders of neighbouring n share their upper levels."""
    d = sum(parts)
    target = predicted_hilbert(n_vars, l, parts).coeffs
    ncols = grade_size(n_vars, d)
    if ncols > cfg.max_columns:
        return WlpLevel(
            variables=n_vars,
            predicted=target,
            observed=None,
            matched=None,
            trials_used=0,
            skipped_reason=(
                f"degree-{d} piece in {n_vars} variables has {ncols} "
                f"columns, guard is {cfg.max_columns}"
            ),
        )
    observed, used = _construction_hilbert_vs(n_vars, parts, l, cfg, target,
                                              _TAG_WLP)
    return WlpLevel(
        variables=n_vars,
        predicted=target,
        observed=observed,
        matched=observed == target,
        trials_used=used,
    )


def wlp_consequence_check(inst: ProblemInstance,
                          cfg: PrimeFieldConfig) -> WlpCheckResult:
    """Check the k-Lefschetz consequence of the dimension prediction.

    k = max(0, 2l - n).  k = 0 requires nothing and passes vacuously.
    Otherwise, for i = 0..k the construction is re-realized with l points in
    2l - i variables (quotienting by general linear forms preserves the
    Hilbert series of the join), and its oracle Hilbert function through
    degree d must equal plus_truncate(numerator^l / (1-t)^(2l-i)).  Levels
    whose matrices exceed the column guard are skipped with a reason and do
    not fail the check; any executed mismatch does.
    """
    n, l = inst.n, inst.l
    part = inst.partition
    k = max(0, 2 * l - n)
    if k == 0:
        return WlpCheckResult(inst, 0, True, True, ())
    levels = tuple(_ladder_level(2 * l - i, part.parts, l, cfg)
                   for i in range(k + 1))
    passed = all(lv.matched is not False for lv in levels)
    return WlpCheckResult(inst, k, passed, False, levels)


# ------------------------------------------------------------
# Generic-forms comparison for two factors
# ------------------------------------------------------------


@dataclass(frozen=True)
class FroebergCheck:
    """Oracle vs series Hilbert function for 2l plain generic forms.

    The ideal is generated by l generic forms of degree k and l of degree
    d - k (products of nothing; this is the comparison algebra for the
    two-factor secant dimension).  `series` is the plus-truncated rational
    series, `recursive` the one-form-at-a-time reference
    h'(j) = max(0, h(j) - h(j - e)); the two must coincide.
    implied_secant_dim = N - 1 - hilbert[d] is the two-factor secant
    dimension this Hilbert function induces.
    """

    n: int
    l: int
    k: int
    d: int
    hilbert: tuple[int, ...]
    series: tuple[int, ...]
    recursive: tuple[int, ...]
    froeberg_match: bool
    implied_secant_dim: int
    trials_used: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "l": self.l,
            "k": self.k,
            "d": self.d,
            "hilbert": list(self.hilbert),
            "series": list(self.series),
            "recursive": list(self.recursive),
            "froeberg_match": self.froeberg_match,
            "implied_secant_dim": self.implied_secant_dim,
            "trials_used": self.trials_used,
        }


def froeberg_oracle_r2(n: int, l: int, k: int, d: int,
                       cfg: PrimeFieldConfig) -> FroebergCheck:
    """Hilbert function of l generic degree-k plus l generic degree-(d-k)
    forms, from the oracle, compared against the truncated series."""
    if not 1 <= k <= d // 2:
        raise ValueError(f"need 1 <= k <= d/2, got k={k}, d={d}")
    if n < 2 or l < 1:
        raise ValueError(f"need n >= 2 and l >= 1, got n={n}, l={l}")
    degs = sorted([k] * l + [d - k] * l)
    num = series_pow(SeriesNumerator([(0, 1), (k, -1)]), l, d).mul(
        series_pow(SeriesNumerator([(0, 1), (d - k, -1)]), l, d)
    )
    series = plus_truncate(expand_rational(num, n, d)).coeffs

    h = [grade_size(n, j) for j in range(d + 1)]
    for e in degs:
        h = [max(0, h[j] - (h[j - e] if j >= e else 0)) for j in range(d + 1)]
    recursive = tuple(h)
    if recursive != series:
        raise RuntimeError(
            f"internal finding: recursive and series Hilbert references "
            f"disagree for degrees {degs} in {n} variables: "
            f"{recursive} vs {series}"
        )

    ncols = grade_size(n, d)
    if ncols > cfg.max_columns:
        raise ResourceGuardExceeded(ncols, cfg.max_columns,
                                    f"generic-forms run (n={n}, d={d})")
    observed: Optional[list[int]] = None
    trials_used = 0
    for trial in range(cfg.trials):
        trials_used = trial + 1
        forms = [
            random_form(n, e, cfg.p, _rng(cfg.seed, _TAG_FROEBERG, n, trial, i))
            for i, e in enumerate(degs)
        ]
        hf = [
            grade_size(n, j) - ideal_piece_rank(forms, j, cfg.p, cfg.max_columns)
            for j in range(d + 1)
        ]
        observed = hf if observed is None else [min(a, b) for a, b in zip(observed, hf)]
        if tuple(observed) == series:
            break
    assert observed is not None
    hilbert = tuple(observed)
    return FroebergCheck(
        n=n,
        l=l,
        k=k,
        d=d,
        hilbert=hilbert,
        series=series,
        recursive=recursive,
        froeberg_match=hilbert == series,
        implied_secant_dim=grade_size(n, d) - 1 - hilbert[d],
        trials_used=trials_used,
    )
