"""Exact rank computation over Z/p with a streaming reduced row basis.

Row blocks arrive incrementally; the accumulator keeps a basis in reduced
row echelon form (a unit at each row's pivot column, zeros at every other
pivot column) and stores only its free columns, since the pivot columns
hold the identity.  Joining a block to an echelon basis takes two products:
reduce the block against the basis, echelon what is left, then clear the
new pivot columns out of the basis.  A block is echeloned the same way, by
one recursion (_echelon): echelon its top half, join its bottom half to
that.  The leaf, at most _LEAF rows, takes one vectorised Gauss-Jordan
step per pivot, so the Python loop runs once per pivot and everything
else is a float64 BLAS product (FFLAS/FFPACK, Dumas, Giorgi and Pernet,
ACM TOMS 2008).  Every reduced echelon form in the oracle, the linear
elimination's included, comes from here.

A basis can also start from rows whose pivots are known in advance: the
products of a basis in a lower degree by monomials
(`RankAccumulator.shadow`, the Macaulay matrix by degree of F4, Faugere,
JPAA 1999).  The kept products, one per leading column and sorted by
lead, are unit upper triangular on their leads, so their echelon form
needs no pivot search (_unit_triangular).  These triangles are sparse and
shallow: a row touches few other leads, and chains of rows that touch
each other's leads are a few to a few dozen rows long.  So they skip the
blocked recursion, which suits dense blocks: a row that touches no other
lead is already reduced, and the others are reduced one dependency level
at a time, each level by one product with the finished rows of the levels
below it.

Products are exact: a float64 sum of integers stays exact while it is
below 2^53, so a product is cut into k-chunks of _CHUNK and reduced mod p
after each chunk.  For p below 2^20 one float64 product per chunk is exact;
for larger p one operand is split as hi * 2^13 + lo and each half makes
its own exact product.  The bounds are asserted below.
"""

from __future__ import annotations

import numpy as np

# Largest k-dimension of one float64 product between reductions mod p.
_CHUNK = 8192

# Every modulus is below P_LIMIT; the config layer enforces it too.
P_LIMIT = 94_906_265

# Bits of the low half when one operand is split for large p.
_SPLIT = 13

# Blocks of at most this many rows are echeloned by Gauss-Jordan steps.
_LEAF = 32

_EXACT = 1 << 53

# Any single product of two residues is exact in float64.
assert (P_LIMIT - 1) ** 2 < _EXACT
# Split products are exact at every admitted p: the low half is below 2^13,
# the high half at most (p-1) >> 13, which exceeds 2^13 - 1 near P_LIMIT.
assert _CHUNK * (P_LIMIT - 1) * max((1 << _SPLIT) - 1,
                                    (P_LIMIT - 1) >> _SPLIT) < _EXACT
# The leaf's int64 rank-1 updates a - c * r with c, r in [0, p): a leaf
# entry takes at most _LEAF of them before it is reduced mod p.
assert _LEAF * (P_LIMIT - 1) ** 2 + P_LIMIT < 1 << 63


# An echelon form (x, pivots, free) of r rows over some columns: the rows
# have the identity at the pivot columns (row i at pivots[i]) and x, of
# shape r x len(free), at the free columns, which are sorted.
_Echelon = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_modulus(p: int) -> None:
    if not 2 < p < P_LIMIT:
        raise ValueError(f"need a modulus 2 < p < {P_LIMIT}, got {p}")


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for int64 matrices with entries in [0, p)."""
    _check_modulus(p)
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    m, k = a.shape
    k2, ncols = b.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    if 0 in (m, k, ncols):
        return np.zeros((m, ncols), np.int64)
    af = a.astype(np.float64)
    if (p - 1) ** 2 * _CHUNK < _EXACT:
        halves = [(b.astype(np.float64), 0)]
    else:
        halves = [((b >> _SPLIT).astype(np.float64), _SPLIT),
                  ((b & ((1 << _SPLIT) - 1)).astype(np.float64), 0)]
    # Each reduced term is below p << _SPLIT < 2^40, so the int64 sum of
    # two terms per chunk cannot overflow.
    out = None
    for lo in range(0, k, _CHUNK):
        for half, shift in halves:
            prod = (af[:, lo : lo + _CHUNK] @ half[lo : lo + _CHUNK]).astype(np.int64)
            prod %= p
            if shift:
                prod <<= shift
            if out is None:
                out = prod
            else:
                out += prod
    if len(halves) > 1 or k > _CHUNK:
        out %= p
    return out


def _sub_mod(x: np.ndarray, y: np.ndarray, p: int) -> None:
    """x = (x - y) % p in place, for x, y in [0, p); y is overwritten."""
    x -= y
    np.right_shift(x, 63, out=y)
    y &= p
    x += y


def _leaf(a: np.ndarray, p: int) -> _Echelon:
    """Gauss-Jordan on a few rows: one rank-1 update per pivot.

    Updates are left unreduced; a row is reduced mod p only when it is
    examined for a pivot, and the rest once at the end.
    """
    a = a.copy()
    rows: list[int] = []
    cols: list[int] = []
    for i in range(a.shape[0]):
        row = a[i]
        row %= p
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        row *= pow(int(row[c]), -1, p)
        row %= p
        coef = a[:, c] % p
        coef[i] = 0
        a -= coef[:, None] * row
        rows.append(i)
        cols.append(c)
    free = np.ones(a.shape[1], bool)
    free[cols] = False
    free = np.flatnonzero(free)
    return a[rows][:, free] % p, np.asarray(cols, np.int64), free


def _join(ech: _Echelon, bot: np.ndarray, p: int) -> _Echelon:
    """Echelon form of the rows spanned by ech and the rows of bot."""
    x, piv, free = ech
    if not free.size:
        return ech
    rest = bot[:, free]
    if piv.size:
        coeffs = bot[:, piv]
        if coeffs.any():
            _sub_mod(rest, matmul_mod(coeffs, x, p), p)
    rest = rest[rest.any(axis=1)]
    if not rest.shape[0]:
        return ech
    y, bp, bf = _echelon(rest, p)
    # Clear the new pivot columns out of the old rows.  Fresh large arrays
    # cost page faults, so the old rows are gathered straight into the
    # result (mode="clip" writes without a buffer; bf is in range) and
    # updated there.
    out = np.empty((x.shape[0] + y.shape[0], bf.size), np.int64)
    top = out[: x.shape[0]]
    np.take(x, bf, axis=1, out=top, mode="clip")
    coeffs = x[:, bp]
    if coeffs.any():
        _sub_mod(top, matmul_mod(coeffs, y, p), p)
    out[x.shape[0] :] = y
    return out, np.concatenate([piv, free[bp]]), free[bf]


def _echelon(a: np.ndarray, p: int) -> _Echelon:
    """Echelon form of the rows of a: Gauss-Jordan on at most _LEAF rows,
    else echelon the top half and join the rest to it.  Halves keep the
    leaves balanced; cutting at a multiple of _LEAF instead left a short
    last leaf and measured slower."""
    if a.shape[0] <= _LEAF:
        return _leaf(a, p)
    top = a.shape[0] // 2
    return _join(_echelon(a[:top], p), a[top:], p)


def _unit_triangular(a: np.ndarray, p: int) -> _Echelon:
    """Echelon form of unit upper triangular rows, without a pivot search.

    Row i has a unit at its first nonzero column lead[i] and the leads
    increase.  A row's level is 0 if it is zero at every other lead, else
    1 + the highest level among the rows whose leads it touches.  Level 0
    rows are already reduced.  The rows of each higher level are reduced
    in one product: each row minus, for every row whose lead it touches,
    its original entry at that lead times that row reduced.  Those rows
    are all of lower levels, so already reduced, and a reduced row is zero
    at every lead but its own: each subtracted row clears its lead and
    changes no other.  So the result is the reduced echelon form, and no
    row is gone over twice.
    """
    nz = a != 0
    lead = nz.argmax(axis=1)
    # The solve relies on this shape; check it rather than assume it.
    assert np.all(a[np.arange(lead.size), lead] == 1) and np.all(np.diff(lead) > 0)
    free = np.ones(a.shape[1], bool)
    free[lead] = False
    free = np.flatnonzero(free)
    x = a[:, free]
    dep = nz[:, lead]
    np.fill_diagonal(dep, False)
    pending = dep.any(axis=1)
    while pending.any():
        rows = np.flatnonzero(pending)
        touched = dep[rows]
        # the next level: pending rows that touch no pending lead
        ready = ~touched[:, pending].any(axis=1)
        rows = rows[ready]
        lower = np.flatnonzero(touched[ready].any(axis=0))
        level = x[rows]
        _sub_mod(level, matmul_mod(a[rows[:, None], lead[lower]], x[lower], p), p)
        x[rows] = level
        pending[rows] = False
    return x, lead, free


class RankAccumulator:
    """Streaming row-rank over Z/p.

    The row space seen so far is held in reduced echelon form: `basis` has
    a unit at each row's pivot column and zeros at every other pivot
    column.  Only its free (non-pivot) columns are stored, so new rows are
    reduced by one product with their pivot-column coefficients and the
    work shrinks as the rank grows.  Every basis row is also zero left of
    its pivot: a new pivot is the first nonzero column of a reduced row,
    and clearing it out of an older row only subtracts a row that is zero
    left of it.
    """

    def __init__(self, ncols: int, p: int):
        if ncols < 0:
            raise ValueError(f"need ncols >= 0, got {ncols}")
        _check_modulus(p)
        self.ncols = ncols
        self.p = p
        self._ech: _Echelon = (np.zeros((0, ncols), np.int64),
                               np.zeros(0, np.int64), np.arange(ncols))

    @property
    def rank(self) -> int:
        return self._ech[1].size

    @property
    def pivots(self) -> np.ndarray:
        return self._ech[1]

    @property
    def basis(self) -> np.ndarray:
        x, piv, free = self._ech
        out = np.zeros((piv.size, self.ncols), np.int64)
        out[np.arange(piv.size), piv] = 1
        out[:, free] = x
        return out

    def add_rows(self, rows: np.ndarray) -> None:
        """Join a block of rows; entries outside [0, p) are reduced first,
        in a copy, and the caller's array is never written to."""
        rows = np.atleast_2d(np.asarray(rows, np.int64))
        if rows.shape[1] != self.ncols:
            raise ValueError(f"rows have {rows.shape[1]} columns, want {self.ncols}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.p):
            rows = rows % self.p
        self._ech = _join(self._ech, rows, self.p)

    def shadow(self, table: np.ndarray,
               ncols: int) -> tuple["RankAccumulator", np.ndarray]:
        """A new accumulator over ncols columns holding products of this
        basis, and the products it holds.

        Row m of table sends the columns of this space to columns of the
        new one, strictly increasingly: with this space the degree-e piece
        and columns in a monomial order that multiplication preserves, row
        m gives the column of x^m * x^c for each monomial x^c of degree e.
        The oracle's pieces take reversed colex, which is degrevlex, and
        their tables are mul_table(n, a, e) reversed on both sides.  As
        multiplying by a monomial is strictly increasing, the product of a
        basis row by row m has a unit at table[m, pivot] and zeros to its
        left.  One product per distinct leading column is kept, the first
        in the order (row of table, basis row); kept[m, i] says whether the
        product of basis row i by row m was.  Row 0 (x_{n-1}^a in the
        oracle's tables) is injective and comes first, so every product by
        it is kept.  The kept products, sorted by lead, are unit upper triangular
        on their leads and are echeloned as one block without a pivot
        search.  None of this depends on a, so a table of any degree works
        unchanged.
        """
        out = RankAccumulator(ncols, self.p)
        x, piv, free = self._ech
        kept = np.zeros((table.shape[0], piv.size), bool)
        if not piv.size:
            return out, kept
        lead, first = np.unique(table[:, piv], return_index=True)
        mult, row = np.divmod(first, piv.size)
        kept[mult, row] = True
        t = np.zeros((lead.size, ncols), np.int64)
        t[np.arange(lead.size)[:, None], table[mult[:, None], free]] = x[row]
        t[np.arange(lead.size), lead] = 1
        out._ech = _unit_triangular(t, self.p)
        return out, kept


def rank_of(matrix: np.ndarray, p: int) -> int:
    """Rank of a dense int matrix over Z/p."""
    matrix = np.atleast_2d(np.asarray(matrix, np.int64))
    acc = RankAccumulator(matrix.shape[1], p)
    step = max(1, 2_000_000 // max(1, matrix.shape[1]))
    for lo in range(0, matrix.shape[0], step):
        acc.add_rows(matrix[lo : lo + step])
        if acc.rank == matrix.shape[1]:
            break
    return acc.rank
