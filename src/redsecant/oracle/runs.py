"""Terracini rank runs over a large prime field.

Everything here computes with explicit random points: each point of
X_{n-1,lambda} is a product of random forms of degrees lambda, its tangent
ideal is generated by the r partial products, and dim sigma_l + 1 is the
rank of the degree-d piece of the sum of l such ideals.  Ranks at a random
specialization never exceed the generic rank, so the max over trials is a
certified lower bound.  A trial misses the generic rank R only if some
nonzero R x R minor vanishes at its random coefficients.  Each tangent
generator is a product of r - 1 random factors, so the matrix entries have
degree r - 1 in those coefficients and the minor has degree R(r - 1); by
Schwartz-Zippel a trial fails with probability at most R(r - 1)/p.  For
[d-1, 1] and [1, 1], oracle_run takes the linear factors to be
coordinates and samples the other factors in the variables left (see
oracle_run): a specialization with the same generic rank, whose entries
are linear in what it samples, so the same bound holds there.
froeberg_oracle_r2 ranks plain random forms, whose entries are linear,
so its bound is R/p.  A run over several degrees fails if any
degree does, so its bound is the sum over those degrees.  Every run goes
through one driver, _levels_over_trials, which checks the column guard and
warns once when that sum, taking R at most the widths of the matrices it
samples, reaches 1.  A ladder level's matrix is a projection of its top's,
with entries of the same degree, so each level keeps its own bound
R(r - 1)/p.  No closed-form prediction is consulted anywhere in this module.

The Terracini columns of degree j are the monomials in reversed colex
order: colex rank c sits at column grade_size(n, j) - 1 - c.  That order
is degrevlex (x_0 > ... > x_{n-1}), so each pivot of an echelon basis is
a degrevlex leading term, and the pivots of a piece span its initial
ideal in that degree.  Ranks do not depend on the column order, but the
pivots left to search do: each degree's new pivots are the minimal
generators of the initial ideal there, and degrevlex generic initial
ideals have the fewest (Bayer and Stillman, Invent. Math. 1987).  The
order also puts the monomials free of x_v, ..., x_{n-1} first, so
setting those variables to zero projects a piece onto a column prefix,
and the Weak Lefschetz ladder reads every level off one run as pivot
counts inside prefixes (_levels_over_trials).

Runs that need the whole Hilbert function (oracle_run with want_hilbert,
the Weak Lefschetz ladder, froeberg_oracle_r2) rank the degrees 0..d in
order and build each piece on the one below: the degree-(j-1) basis times
each variable lies in the degree-j piece with known pivots, so only the
pivots it misses are searched for.  Those products, one per known pivot,
are echeloned together as one unit triangular system, a dependency level
at a time (RankAccumulator.shadow).  The shifts include x_{n-1} times
the whole degree-(j-1) piece, so the rows m * G of a lower-degree
generator G with x_{n-1} dividing m already lie in their span and are
skipped.  Every other piece starts from the echelon basis of the
generators of the lowest degree e0, which at degree e0 is the piece.
Above e0, as in runs at degree d alone (oracle_run, sweeps), the start is
that basis times every monomial of degree j - e0, one product per
distinct lead having a known pivot; only the products left out of it are
fed, then the rows of the higher-degree generators.  Either way no row
outside the span already held is dropped.

Built on the degree below, a piece gains few pivots per row it is fed:
on a traced ladder round, nine rows in ten reduce to zero.  So there
each block B of b > 64 rows is fed as S * B, for S a uniform 32 x b
random matrix from the stream _rng(seed, _TAG_SKETCH, trial), and
B itself is fed too only when S * B gains more than 24 pivots (random
compression; Cheung, Kwok and Lau, JACM 2013).  S * B lies in the span of
B, so a sketch can only lower a rank, and every rank stays a certified
lower bound.  If B adds t dimensions, S * B adds the rank of a uniform
32 x t matrix, so an accepted block has missed one with probability below
p^-7 / (p - 1): 2e-7 at p = 7, about 1e-48 at the default p.  These terms
add to a trial's failure bound; the warning leaves them out, as they sum
to 1 only past p^7 (p - 1) sketched blocks.  Runs at degree d alone never
sketch, and without a sketch every rank is exact.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..combinatorics import ProblemInstance, expected_dim, record_json
from ..series import expand_power, plus_truncate, predicted_hilbert
from .forms import HomogeneousForm, random_form, tangent_generators
from .modmat import P_LIMIT, RankAccumulator, matmul_mod
from .monomials import (
    _BLOCK_ENTRIES,
    ResourceGuardExceeded,
    grade_size,
    mul_table,
    table_rows,
)

# Entries in one block of rows handed to the rank kernel.
_BATCH_ENTRIES = 250_000

# Sketch rows, margin and block threshold of _feed_sketched.
_SKETCH_ROWS = 32
_SKETCH_MARGIN = 8
_SKETCH_MIN_ROWS = 64

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


# Fixed namespaces so the derived random streams of distinct run kinds never
# collide even at equal (trial, point, factor) coordinates.
_TAG_ORACLE = 0
_TAG_WLP = 1
_TAG_FROEBERG = 2
_TAG_SKETCH = 3


def _rng(seed: int, *path: int) -> np.random.Generator:
    """The stream of default_rng(SeedSequence(entropy=(seed, *path))).

    SeedSequence builds its pool from the little-endian 32-bit words of
    each int, at least one word per int.  Handing it those words as a
    uint32 array builds the same pool without its coercion in Python.
    """
    words = []
    for x in (seed, *path):
        if x < 0:
            raise ValueError(f"need nonnegative seed words, got {x}")
        words.append(x & 0xFFFFFFFF)
        x >>= 32
        while x:
            words.append(x & 0xFFFFFFFF)
            x >>= 32
    seq = np.random.SeedSequence(np.array(words, np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def _warn_failure_bound(columns: int, degree: int, p: int) -> None:
    """Warn when a run's per-trial failure bound reaches 1.

    columns is the sum, over the degrees the run ranks, of the widths of
    the matrices it samples there, which bound the ranks R; degree is that
    of the matrix entries in the random coefficients.  The bound is
    columns * degree / p.  The warning names the line that called the run.
    """
    if columns * degree >= p:
        warnings.warn(
            f"per-trial failure bound {columns} x {degree} / p is at least 1 "
            f"at p={p}; a trial's rank certifies nothing",
            stacklevel=4,
        )


def _point_generators(n: int, parts: Sequence[int], p: int, seed: int,
                      tag: int, trial: int, point: int) -> tuple[HomogeneousForm, ...]:
    factors = [
        random_form(n, e, p, _rng(seed, tag, n, trial, point, i))
        for i, e in enumerate(parts)
    ]
    return tangent_generators(factors, p)


def ideal_piece_rank(generators: Sequence[HomogeneousForm], j: int, p: int) -> int:
    """Rank over Z/p of the degree-j piece of the ideal the forms generate.

    The piece is spanned by m * G for every generator G and every monomial
    m of degree j - deg G; the columns of the row for m are row m of
    mul_table(n, j - deg G, deg G).  Generators of degree above j
    contribute nothing.  The rows actually fed to the rank kernel are
    fewer (see _ideal_piece), and they are stacked into blocks of at most
    _BATCH_ENTRIES entries, so the kernel sees few large blocks while peak
    memory stays flat.
    """
    acc = _ideal_piece(generators, j, p)
    return 0 if acc is None else acc.rank


def _shift_table(n: int, a: int, b: int) -> np.ndarray:
    """mul_table(n, a, b) in reversed colex on both column spaces: row m
    sends column c of degree b to the column of x^m * x^c in degree a + b.
    The cached table is read-only and is copied; a computed one is new and
    is reversed in place, a block of rows at a time, so it costs one table
    plus bounded scratch."""
    table = mul_table(n, a, b)
    last = grade_size(n, a + b) - 1
    if not table.flags.writeable:
        return last - table[:, ::-1]
    step = max(1, _BLOCK_ENTRIES // table.shape[1])
    for i in range(0, table.shape[0], step):
        block = table[i : i + step]
        block[:] = last - block[:, ::-1]
    return table


def _generator_rows(g: HomogeneousForm, j: int) -> Callable:
    """rows(lo, hi): the columns, in reversed colex, and values of the
    rows m * g for the monomials m of degree j - deg g ranked lo..hi."""
    n, a, b, last = g.n, j - g.degree, g.degree, grade_size(g.n, j) - 1
    return lambda lo, hi: (last - table_rows(n, a, b, lo, hi), g.coeffs)


def _feed_sketched(acc: RankAccumulator, sketch: Callable[[], np.random.Generator],
                   block: np.ndarray) -> None:
    """Join a block of residues to acc, through a sketch if it is large.

    A block B of b > _SKETCH_MIN_ROWS rows is fed as S * B, for S a
    uniform _SKETCH_ROWS x b matrix drawn from the generator sketch()
    returns.  If B adds t dimensions to the span acc holds, S * B adds the
    rank of a uniform _SKETCH_ROWS x t matrix.  When that gain exceeds
    _SKETCH_ROWS - _SKETCH_MARGIN pivots, B is fed as well and the join is
    exact.  Otherwise the sketch is accepted, and it missed a dimension
    only if the first min(t, 25) columns of that random matrix are
    dependent, which has probability below p^(min(t, 25) - 32) / (p - 1)
    <= p^-7 / (p - 1).  S * B lies in the span of B, so a miss can only
    lower the rank.
    """
    if block.shape[0] <= _SKETCH_MIN_ROWS:
        acc.add_rows(block)
        return
    s = sketch().integers(0, acc.p, size=(_SKETCH_ROWS, block.shape[0]))
    rank = acc.rank
    acc.add_rows(matmul_mod(s, block, acc.p))
    if acc.rank - rank > _SKETCH_ROWS - _SKETCH_MARGIN:
        acc.add_rows(block)


def _ideal_piece(generators: Sequence[HomogeneousForm], j: int, p: int,
                 below: Optional[RankAccumulator] = None,
                 sketch: Optional[Callable[[], np.random.Generator]] = None
                 ) -> Optional[RankAccumulator]:
    """The accumulator behind ideal_piece_rank, or None for a zero piece.

    The piece has one of the two starts below, and only the pivots its
    start misses are searched for among the rows fed after it.

    Columns are in reversed colex (degrevlex) order: colex column c of
    the piece sits at grade_size(n, j) - 1 - c, so a generator's
    coefficients enter reversed, its rows scatter to grade_size(n, j) - 1
    minus their mul_table columns, and the shadow tables are mul_table
    reversed the same way on both sides (_shift_table).  Those tables
    still increase strictly along each row, and the multipliers, the rows
    of the tables, keep their colex order.

    below, if given, holds the degree-(j-1) piece of the same ideal, and
    the start is its basis times each variable.  The shadow keeps every
    shift by x* = x_{n-1}, the variable of row 0 of mul_table(n, 1, j-1),
    so it spans x* times the degree-(j-1) piece, and with it every row
    m * G with x* dividing m and deg G < j.  Those rows are not fed: in
    colex order they are the first grade_size(n, a) - grade_size(n-1, a)
    monomials of degree a = j - deg G, so each generator's rows start
    after them.  Most of the span is then in the shadow already, so with
    sketch given each block goes through _feed_sketched: one of more than
    _SKETCH_MIN_ROWS rows is fed as random combinations of its rows first.
    The rank stays a lower bound, and a block misses a dimension with
    probability below p^-7 / (p - 1).

    Otherwise the generators of the lowest degree e0 are echeloned first.
    When e0 == j that echelon is the piece.  When e0 < j the start is its
    basis B times every monomial of degree j - e0.  The products m * b
    (b in B) span the rows m * G of those generators, and the shadow holds
    one per distinct lead, so only the products it did not keep are fed,
    then the rows of the generators of degree above e0.

    Either way no row outside the span of what the accumulator holds is
    dropped, so without a sketch the rank is exact.
    """
    usable = [g for g in generators if g.degree <= j and not g.is_zero]
    if not usable:
        return None
    n = usable[0].n
    if any(g.n != n for g in usable):
        raise ValueError("generators live in different variable counts")
    ncols = grade_size(n, j)
    e0 = min(g.degree for g in usable)
    # (first row, end row, rows(lo, hi) -> their columns and values)
    sources: list[tuple[int, int, Callable]] = []
    if below is not None:
        acc, _ = below.shadow(_shift_table(n, 1, j - 1), ncols)
        for g in usable:
            a = j - g.degree
            sources.append((grade_size(n, a) - grade_size(n - 1, a),
                            grade_size(n, a), _generator_rows(g, j)))
    else:
        seed = RankAccumulator(grade_size(n, e0), p)
        seed.add_rows(np.array([g.coeffs[::-1] for g in usable if g.degree == e0]))
        if e0 == j:
            return seed
        table = _shift_table(n, j - e0, e0)
        acc, kept = seed.shadow(table, ncols)
        mult, row = np.nonzero(~kept)
        basis = seed.basis
        sources.append((0, mult.size,
                        lambda lo, hi: (table[mult[lo:hi]], basis[row[lo:hi]])))
        sources.extend((0, grade_size(n, j - g.degree), _generator_rows(g, j))
                       for g in usable if g.degree > e0)
    if acc.rank == ncols:
        return acc
    feed = (acc.add_rows if below is None or sketch is None
            else functools.partial(_feed_sketched, acc, sketch))
    step = max(1, _BATCH_ENTRIES // ncols)
    left = sum(hi - lo for lo, hi, _ in sources)
    batch = np.zeros((min(step, left), ncols), np.int64)
    filled = 0
    for lo, nrows, rows in sources:
        while lo < nrows:
            hi = min(nrows, lo + batch.shape[0] - filled)
            cols, values = rows(lo, hi)
            batch[np.arange(filled, filled + hi - lo)[:, None], cols] = values
            filled += hi - lo
            lo = hi
            if filled == batch.shape[0]:
                feed(batch)
                left -= filled
                if acc.rank == ncols:
                    return acc
                batch = np.zeros((min(step, left), ncols), np.int64)
                filled = 0
    return acc


def _levels_over_trials(sample: Callable[[int], Sequence[HomogeneousForm]],
                        counts: Sequence[int], degrees: Sequence[int],
                        entry_degree: int, context: str,
                        cfg: PrimeFieldConfig, targets: Sequence):
    """Hilbert functions of sampled ideals and of their restrictions,
    minimized over trials, one per level: the one run driver of this
    module.

    sample(trial) returns the trial's forms, in counts[0] variables.
    Level i is the ideal with the variables from x_{counts[i]} on set to
    zero, and its value at degree j is grade_size(counts[i], j) minus the
    rank of its degree-j piece.  That piece is the projection of the
    ideal's degree-j piece onto the monomials free of those variables,
    which in reversed colex are the first grade_size(counts[i], j)
    columns (see _ideal_piece); a reduced echelon basis projects onto a
    column prefix with rank the number of its pivots inside it.  So every
    level is read off one echelon per degree, and level 0 takes all its
    pivots, the rank.  Where degree j - 1 was asked for just before j, the
    degree-j piece is built on the one below, and its large blocks are
    sketched by the trial's stream _rng(seed, _TAG_SKETCH, trial), made at
    its first use.

    Before the first trial, a top piece wider than cfg.max_columns raises
    ResourceGuardExceeded naming context, and the run warns once if the
    failure bound of the matrices it samples, whose entries have degree
    entry_degree in the random coefficients, reaches 1.

    A random specialization can only have smaller ranks, hence larger
    values, than the generic ideal, so each level's minimum over trials is
    its certified bound.  A level stops at the first trial where its
    minimum equals its target, and keeps that minimum and trial count;
    trials stop once every level has.  Returns each level's minimum, each
    level's trials used and, per trial run, every level's Hilbert function.
    """
    columns = grade_size(counts[0], max(degrees))
    if columns > cfg.max_columns:
        raise ResourceGuardExceeded(columns, cfg.max_columns, context)
    _warn_failure_bound(sum(grade_size(counts[0], j) for j in degrees),
                        entry_degree, cfg.p)
    best: list = [None] * len(targets)
    used = [0] * len(targets)
    per_trial: list[tuple[tuple[int, ...], ...]] = []
    for trial in range(cfg.trials):
        forms = sample(trial)
        sketch = functools.cache(functools.partial(_rng, cfg.seed, _TAG_SKETCH, trial))
        hfs: list[list[int]] = [[] for _ in counts]
        acc, prev = None, None
        for j in degrees:
            below = acc if prev == j - 1 else None
            acc = _ideal_piece(forms, j, cfg.p, below=below, sketch=sketch)
            prev = j
            pivots = np.zeros(0, np.int64) if acc is None else acc.pivots
            for hf, v in zip(hfs, counts):
                size = grade_size(v, j)
                hf.append(size - int(np.count_nonzero(pivots < size)))
        per_trial.append(tuple(map(tuple, hfs)))
        for i, hf in enumerate(per_trial[-1]):
            if used[i] and best[i] == targets[i]:
                continue
            best[i] = hf if best[i] is None else tuple(map(min, best[i], hf))
            used[i] = trial + 1
        if all(b == t for b, t in zip(best, targets)):
            break
    return best, used, per_trial


@dataclass(frozen=True)
class OracleRun:
    """Result of one max-over-trials Terracini rank computation.

    trial_ranks holds the degree-d rank of each trial so a lucky
    degeneration stays visible; hilbert (when requested) is the quotient
    Hilbert function j -> C(j+n-1, n-1) - rank_j for j = 0..d, with each
    rank_j maximized over trials separately.  columns is the width of the
    degree-d matrix the run ranked.  eliminated says the linear generators
    were left out of it: the run sampled [d-1, 1] or [1, 1] points in the
    variables their linear factors leave (see oracle_run).
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
        out = record_json(self)
        if self.hilbert is None:
            del out["hilbert"]
        return out


def _use_elimination(partition) -> bool:
    # Linear tangent-ideal generators exist exactly when some part equals
    # d - 1, which forces the shape [d-1, 1] (including [1, 1]).
    return partition.r == 2 and partition.parts[1] == 1


def oracle_run(inst: ProblemInstance, cfg: PrimeFieldConfig,
               want_hilbert: bool = False) -> OracleRun:
    """Sample l random points per trial and rank their joint tangent ideal.

    For [d-1, 1] each point's tangent ideal holds its linear factor, and
    for [1, 1] both.  The run takes those factors to be the coordinates
    x_{n-1}, x_{n-2}, ...: modulo them the ring has n_vars = n - l
    variables (n - 2l for [1, 1]), and the other generators are the
    points' degree-(d-1) factors there, which it samples directly, as
    uniform forms in n_vars variables.  Those are a specialization of
    the uniform factors in n variables, so each rank stays a certified
    lower bound with the same failure bound, and since GL_n moves any
    independent linear forms to those coordinates the generic rank is
    unchanged.  The column guard and the failure bound are those of the
    matrices in n_vars variables, checked once before anything is
    sampled (_levels_over_trials).
    """
    n, l = inst.n, inst.l
    part = inst.partition
    d = part.d
    big_n = grade_size(n, d)
    elim = _use_elimination(part)
    n_vars = max(0, n - (2 * l if d == 2 else l)) if elim else n

    def sample(trial: int):
        if not elim:
            return [g for point in range(l)
                    for g in _point_generators(n, part.parts, cfg.p, cfg.seed,
                                               _TAG_ORACLE, trial, point)]
        if d == 2 or n_vars == 0:
            return []
        return [random_form(n_vars, d - 1, cfg.p,
                            _rng(cfg.seed, _TAG_ORACLE, n, trial, point, 0))
                for point in range(l)]

    degrees = range(d + 1) if want_hilbert else [d]
    (best,), _, per_trial = _levels_over_trials(
        sample, (n_vars,), degrees, part.r - 1, f"oracle run for {inst}", cfg, (None,))
    trial_ranks = [big_n - hf[-1] for hf, in per_trial]
    max_rank = big_n - best[-1]
    secant_dim = max_rank - 1
    exp = expected_dim(inst)
    if secant_dim > exp.expected:
        raise RuntimeError(
            f"internal error: oracle dimension {secant_dim} exceeds the "
            f"expected dimension {exp.expected} for {inst}"
        )
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
        columns=grade_size(n_vars, d),
        eliminated=elim,
        hilbert=best if want_hilbert else None,
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
        return record_json(self)


# Every ladder rung has at least this many variables: an instance has n >= 3.
_LADDER_FLOOR = 3


@functools.lru_cache(maxsize=256)
def _ladder(parts: tuple[int, ...], l: int,
            cfg: PrimeFieldConfig) -> dict[int, WlpLevel]:
    """Every Weak Lefschetz rung of the l-point construction, by variable
    count v from _LADDER_FLOOR to 2l: its oracle Hilbert function against
    the predicted one.  Memoised, since the ladders of every n share them.

    One run samples the points in m variables, the largest count whose
    degree-d piece the column guard admits, and reads each rung v <= m off
    its echelons (see _levels_over_trials): setting x_v, ..., x_{m-1} to
    zero turns uniform random factors in m variables into uniform random
    factors in v.  The run's column guard and failure bound are those of
    the top rung (_levels_over_trials), so the guard, which admits m,
    never trips and the run warns at most once.  Rungs above m are
    skipped with the reason.
    """
    d = sum(parts)
    rungs: dict[int, WlpLevel] = {}
    m = 2 * l
    while m >= _LADDER_FLOOR and grade_size(m, d) > cfg.max_columns:
        rungs[m] = WlpLevel(
            variables=m,
            predicted=predicted_hilbert(m, l, parts).coeffs,
            observed=None,
            matched=None,
            trials_used=0,
            skipped_reason=(
                f"degree-{d} piece in {m} variables has {grade_size(m, d)} "
                f"columns, guard is {cfg.max_columns}"
            ),
        )
        m -= 1
    counts = tuple(range(m, _LADDER_FLOOR - 1, -1))
    if not counts:
        return rungs
    targets = [predicted_hilbert(v, l, parts).coeffs for v in counts]

    def sample(trial: int):
        return [g for point in range(l)
                for g in _point_generators(m, parts, cfg.p, cfg.seed,
                                           _TAG_WLP, trial, point)]

    observed, used, _ = _levels_over_trials(
        sample, counts, range(d + 1), len(parts) - 1,
        f"Weak Lefschetz run in {m} variables", cfg, targets)
    for v, target, hf, trials in zip(counts, targets, observed, used):
        rungs[v] = WlpLevel(variables=v, predicted=target, observed=hf,
                            matched=hf == target, trials_used=trials)
    return rungs


def wlp_consequence_check(inst: ProblemInstance,
                          cfg: PrimeFieldConfig) -> WlpCheckResult:
    """Check the k-Lefschetz consequence of the dimension prediction.

    k = max(0, 2l - n).  k = 0 requires nothing and passes vacuously.
    Otherwise, for i = 0..k the construction is re-realized with l points in
    2l - i variables (quotienting by general linear forms preserves the
    Hilbert series of the join), and its oracle Hilbert function through
    degree d must equal plus_truncate(numerator^l / (1-t)^(2l-i)).  Every
    level is read off one run in the most variables the column guard
    admits: the lower levels are its points with the last variables set to
    zero, and their Hilbert functions count its pivots inside column
    prefixes (see _ladder).  Levels whose matrices exceed the column guard
    are skipped with a reason and do not fail the check; any executed
    mismatch does.
    """
    n, l = inst.n, inst.l
    part = inst.partition
    k = max(0, 2 * l - n)
    if k == 0:
        return WlpCheckResult(inst, 0, True, True, ())
    rungs = _ladder(part.parts, l, cfg)
    levels = tuple(rungs[2 * l - i] for i in range(k + 1))
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
        return record_json(self)


def froeberg_oracle_r2(n: int, l: int, k: int, d: int,
                       cfg: PrimeFieldConfig) -> FroebergCheck:
    """Hilbert function of l generic degree-k plus l generic degree-(d-k)
    forms, from the oracle, compared against the truncated series."""
    if not 1 <= k <= d // 2:
        raise ValueError(f"need 1 <= k <= d/2, got k={k}, d={d}")
    if n < 2 or l < 1:
        raise ValueError(f"need n >= 2 and l >= 1, got n={n}, l={l}")
    degs = sorted([k] * l + [d - k] * l)
    # for two parts the numerator is (1 - t^k)(1 - t^(d-k))
    series = plus_truncate(expand_power([d - k, k], l, n, d)).coeffs

    def sample(trial: int):
        return [random_form(n, e, cfg.p, _rng(cfg.seed, _TAG_FROEBERG, n, trial, i))
                for i, e in enumerate(degs)]

    # _levels_over_trials checks the column guard before the O(l d) loop below
    (hilbert,), (used,), _ = _levels_over_trials(
        sample, (n,), range(d + 1), 1, f"generic-forms run (n={n}, d={d})",
        cfg, (series,))
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
        trials_used=used,
    )
