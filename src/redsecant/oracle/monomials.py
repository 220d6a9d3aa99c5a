"""Dense monomial bookkeeping, one graded piece at a time.

Exponent vectors of total degree d in n variables are indexed by their
graded colexicographic rank: the weak composition (x_0, ..., x_{n-1}) maps
to the strictly increasing set S_j = x_0 + ... + x_j + j for j = 0..n-2
inside {0, ..., d+n-2}, and the rank is sum_j C(S_j, j+1), the colex
position of that set.  Matrices built on this order are reproducible across
runs and implementations; both directions are vectorized.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

# Pascal entries are clamped here.  Every entry that is ever used as a rank
# summand is bounded by the grade size (at most a few hundred thousand), and
# a clamped cell only ever feeds cells that are themselves clamped, so all
# small entries stay exact.
_CAP = 1 << 60


@lru_cache(maxsize=64)
def _pascal(rows: int, cols: int) -> np.ndarray:
    table = np.zeros((rows, cols), np.int64)
    table[:, 0] = 1
    for s in range(1, rows):
        table[s, 1:] = np.minimum(table[s - 1, 1:] + table[s - 1, :-1], _CAP)
    table.flags.writeable = False
    return table


def grade_size(n: int, d: int) -> int:
    """Number of monomials of degree d in n variables, C(d+n-1, n-1)."""
    if n < 0 or d < 0:
        raise ValueError(f"need n, d >= 0, got n={n}, d={d}")
    if n == 0:
        return 1 if d == 0 else 0
    return comb(d + n - 1, n - 1)


@lru_cache(maxsize=256)
def exponents(n: int, d: int) -> np.ndarray:
    """All exponent vectors of degree d in n variables, row i at rank i.

    Read-only int32 array of shape (grade_size(n, d), n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    m = grade_size(n, d)
    if n == 1:
        out = np.full((1, 1), d, np.int32)
        out.flags.writeable = False
        return out
    table = _pascal(d + n, n)
    rem = np.arange(m, dtype=np.int64)
    svals = np.empty((m, n - 1), np.int64)
    for j in range(n - 2, -1, -1):
        col = table[: d + n - 1, j + 1]
        s = np.searchsorted(col, rem, side="right") - 1
        svals[:, j] = s
        rem = rem - col[s]
    out = np.empty((m, n), np.int32)
    out[:, 0] = svals[:, 0]
    if n > 2:
        out[:, 1 : n - 1] = svals[:, 1:] - svals[:, :-1] - 1
    out[:, n - 1] = d + n - 2 - svals[:, n - 2]
    out.flags.writeable = False
    return out


def rank_rows(exps: np.ndarray) -> np.ndarray:
    """Colex ranks of many exponent rows at once (within their own grades).

    Rows may have different total degrees; each is ranked within the graded
    piece its degree selects.
    """
    exps = np.asarray(exps)
    if exps.ndim != 2:
        raise ValueError("expected a 2D array of exponent rows")
    m, n = exps.shape
    if n == 1:
        return np.zeros(m, np.int64)
    s = np.cumsum(exps[:, :-1], axis=1, dtype=np.int64) + np.arange(n - 1)
    table = _pascal(int(s.max(initial=0)) + 2, n)
    return table[s, np.arange(1, n)].sum(axis=1)


def rank_exponent(exp) -> int:
    """Rank of a single exponent vector within its graded piece."""
    return int(rank_rows(np.asarray(exp).reshape(1, -1))[0])


def unrank_exponent(n: int, d: int, rank: int) -> tuple[int, ...]:
    """Inverse of rank_exponent on the degree-d piece."""
    m = grade_size(n, d)
    if not 0 <= rank < m:
        raise ValueError(f"rank {rank} out of range 0..{m - 1}")
    return tuple(int(v) for v in exponents(n, d)[rank])


# Tables of at most this many entries (8 MB of int64) are cached; the rows
# of larger ones are computed when asked for.
_CACHED_ENTRIES = 1 << 20
# table_rows refuses requests for more entries than this (640 MB of int64).
_TABLE_LIMIT = 80_000_000
# Rows are computed in blocks of about this many entries, so a request
# costs its output plus bounded scratch.
_BLOCK_ENTRIES = 1 << 16


class ResourceGuardExceeded(RuntimeError):
    """A run refused to build a matrix wider than its column guard, or a
    multiplication table with more than _TABLE_LIMIT entries."""

    def __init__(self, size: int, bound: int, context: str,
                 what: str = "matrix", unit: str = "columns"):
        super().__init__(
            f"{context}: {what} would have {size} {unit}, guard is {bound}"
        )
        self.size = size
        self.bound = bound
        self.context = context


def mul_table(n: int, a: int, b: int) -> np.ndarray:
    """mul_table(n, a, b)[i, j] = rank of exponents(n,a)[i] + exponents(n,b)[j].

    Row i lists, in the order of exponents(n, b), the columns that
    x^exponents(n,a)[i] * G occupies for any degree-b form G: form
    products scatter through it and Terracini rows are gathered from it.
    It is every row of table_rows(n, a, b, ...), under the same rule.
    """
    table = _cached_table(n, a, b)
    return table_rows(n, a, b, 0, grade_size(n, a)) if table is None else table


@lru_cache(maxsize=256)
def _cached_table(n: int, a: int, b: int) -> np.ndarray | None:
    rows = grade_size(n, a)
    if rows * grade_size(n, b) > _CACHED_ENTRIES:
        return None
    out = _computed_rows(n, a, b, 0, rows)
    out.flags.writeable = False
    return out


def table_rows(n: int, a: int, b: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi of mul_table(n, a, b): a read-only slice of the cached
    table, or rows computed into a new array.  A request for more than
    _TABLE_LIMIT entries raises ResourceGuardExceeded before anything is
    built."""
    table = _cached_table(n, a, b)
    if table is not None:
        return table[lo:hi]
    size = len(range(grade_size(n, a))[lo:hi]) * grade_size(n, b)
    if size > _TABLE_LIMIT:
        raise ResourceGuardExceeded(size, _TABLE_LIMIT, f"mul_table({n}, {a}, {b})",
                                    "table", "entries")
    return _computed_rows(n, a, b, lo, hi)


def _computed_rows(n: int, a: int, b: int, lo: int, hi: int) -> np.ndarray:
    left, right = exponents(n, a)[lo:hi], exponents(n, b)
    out = np.empty((left.shape[0], right.shape[0]), np.int64)
    step = max(1, _BLOCK_ENTRIES // right.shape[0])
    for i in range(0, left.shape[0], step):
        sums = left[i : i + step, None, :] + right[None, :, :]
        out[i : i + step] = rank_rows(sums.reshape(-1, n)).reshape(-1, right.shape[0])
    return out
