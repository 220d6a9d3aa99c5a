"""Correctness checks applied to every benchmark round.

Each check takes plain values (ints, tuples, dicts) and returns a list of
problems, empty when the output is right.  The references are written here
from the paper's statements with `math.comb` only; nothing in this file
imports redsecant, so a check never compares the library with itself.
"""

from __future__ import annotations

from math import comb

# Largest prime below the rank kernel's float64 exactness limit
# (P_LIMIT = 94,906,265 in redsecant.oracle.modmat).
P_MAX = 94_906_249

# sigma_l fills its ambient space in the proper range 2l <= n exactly on
# these shapes plus the diagonal pairs of linear forms (2l, l, [1,1]).
FILLING_PROPER_SHAPES = {(4, 2, (1, 1)), (4, 2, (2, 1)), (4, 2, (1, 1, 1))}

# Values quoted in the paper: (n, l, partition) -> (dimension, defect, fills).
# A defect of None means the paper quotes no defect for that case.
QUOTED = {
    (4, 3, (3, 2, 2)): (113, None, False),
    (3, 2, (9, 7, 2)): (188, 1, False),
    (6, 3, (2, 1)): (54, None, False),
    (5, 3, (4, 1)): (125, None, True),
}


def binom(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a."""
    return comb(a, b) if 0 <= b <= a else 0


def partitions(d: int, r_min: int, r_max: int) -> list[tuple[int, ...]]:
    """Every partition of d into r_min..r_max parts, parts descending."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], left: int, cap: int) -> None:
        if left == 0:
            if r_min <= len(prefix) <= r_max:
                out.append(prefix)
            return
        if len(prefix) == r_max:
            return
        for part in range(min(left, cap), 0, -1):
            extend(prefix + (part,), left - part, part)

    extend((), d, d)
    return out


def ambient(n: int, d: int) -> int:
    """N = C(d+n-1, n-1), the number of degree-d monomials in n variables."""
    return binom(d + n - 1, n - 1)


def expected_dim(n: int, l: int, parts) -> int:
    """min(N - 1, l*dim X + l - 1), dim X = sum C(d_i+n-1, n-1) - r."""
    dim_x = sum(binom(di + n - 1, n - 1) for di in parts) - len(parts)
    return min(ambient(n, sum(parts)) - 1, l * dim_x + l - 1)


def hilbert_target(n_vars: int, l: int, parts, bound: int) -> tuple[int, ...]:
    """|N(t)^l / (1-t)^n_vars|_+ through `bound`, with the tangent-ideal
    numerator N(t) = 1 - sum_i t^(d-d_i) + (r-1) t^d."""
    d = sum(parts)
    num = [0] * (d + 1)
    num[0] += 1
    num[d] += len(parts) - 1
    for di in parts:
        num[d - di] -= 1
    power = [1]
    for _ in range(l):
        nxt = [0] * (len(power) + d)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(num):
                    nxt[i + j] += a * b
        power = nxt
    series = [
        sum(power[e] * binom(j - e + n_vars - 1, n_vars - 1)
            for e in range(min(j, len(power) - 1) + 1))
        for j in range(bound + 1)
    ]
    out, alive = [], True
    for c in series:
        alive = alive and c > 0
        out.append(c if alive else 0)
    return tuple(out)


def linear_factor_dim(n: int, l: int, d: int) -> int:
    """Closed form for lambda = [d-1, 1]: fills from the least l0 >= n/2
    with C(d-l0+n-1, d) <= l0*(n-l0); below it the dimension is
    N - C(d+n-l-1, d) + l*(n-l) - 1."""
    l0 = (n + 1) // 2
    while binom(d - l0 + n - 1, d) > l0 * (n - l0):
        l0 += 1
    if l >= l0:
        return ambient(n, d) - 1
    return ambient(n, d) - binom(d + n - l - 1, d) + l * (n - l) - 1


def remark_region_size(bound: int) -> int:
    """Cells of the region n < l, 2s <= d1 < (n-1)(s-1), n, l, s <= bound."""
    return sum(
        max(0, (n - 1) * (s - 1) - 2 * s)
        for n in range(3, bound + 1)
        for l in range(n + 1, bound + 1)
        for s in range(1, bound + 1)
    )


# ------------------------------------------------------------
# grid
# ------------------------------------------------------------


def check_grid_cell(cell, predicted: int, oracle_dim, error: str,
                    finding: str) -> list[str]:
    """The oracle ran, agrees with the prediction, and stays at or below
    the expected dimension."""
    n, l, parts = cell
    where = f"grid cell n={n} l={l} {list(parts)}"
    if error or finding:
        return [f"{where}: error={error!r} finding={finding!r}"]
    if oracle_dim is None:
        return [f"{where}: no oracle dimension"]
    problems = []
    if oracle_dim != predicted:
        problems.append(f"{where}: oracle {oracle_dim} != predicted {predicted}")
    if oracle_dim > expected_dim(n, l, parts):
        problems.append(f"{where}: oracle {oracle_dim} above expected "
                        f"{expected_dim(n, l, parts)}")
    return problems


def check_cover(seen, wanted) -> list[str]:
    """Every wanted cell was produced exactly once, and nothing else."""
    seen = list(seen)
    problems = []
    if len(seen) != len(set(seen)):
        problems.append(f"{len(seen) - len(set(seen))} duplicate cells")
    missing = set(wanted) - set(seen)
    extra = set(seen) - set(wanted)
    if missing:
        problems.append(f"{len(missing)} cells missing, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected cells, e.g. {sorted(extra)[0]}")
    return problems


def check_csv(text: str, rows: int) -> list[str]:
    """One header line plus one line per row."""
    lines = text.count("\n")
    if lines != rows + 1:
        return [f"CSV has {lines} lines, want {rows + 1}"]
    return []


# ------------------------------------------------------------
# ladder
# ------------------------------------------------------------


def check_ladder_cell(n: int, l: int, parts, levels) -> list[str]:
    """levels: (variables, observed Hilbert function or None, skipped reason)
    for each rung.  Every rung i = 0..2l-n runs in 2l-i variables and
    matches the plus-truncated series.  H(0) = 1, and H(1) is the variable
    count less the l*m general linear generators, m the number of parts
    equal to d-1 (H(1) = variables when there are none)."""
    where = f"ladder cell n={n} l={l} {list(parts)}"
    k = 2 * l - n
    if k <= 0:
        return [f"{where}: k={k}, the slice must have 2l > n"]
    if len(levels) != k + 1:
        return [f"{where}: {len(levels)} levels, want {k + 1}"]
    problems = []
    d = sum(parts)
    linear = l * sum(1 for di in parts if di == d - 1)
    for i, (variables, observed, skipped) in enumerate(levels):
        if variables != 2 * l - i:
            problems.append(f"{where}: level {i} has {variables} variables, "
                            f"want {2 * l - i}")
            continue
        if skipped or observed is None:
            problems.append(f"{where}: level {i} did not execute ({skipped})")
            continue
        observed = tuple(observed)
        start = (1, max(0, variables - linear))
        if observed[:2] != start:
            problems.append(f"{where}: level {i} starts {observed[:2]}, "
                            f"want {start}")
        target = hilbert_target(variables, l, parts, d)
        if observed != target:
            problems.append(f"{where}: level {i} Hilbert {observed} != {target}")
    return problems


# ------------------------------------------------------------
# wide
# ------------------------------------------------------------


def check_proven(n: int, l: int, parts, status: str, predicted: int,
                 oracle_dim: int) -> list[str]:
    """A proven-status prediction equals the oracle dimension."""
    where = f"wide n={n} l={l} {list(parts)}"
    problems = []
    if status != "proven":
        problems.append(f"{where}: status {status!r}, want 'proven'")
    if oracle_dim != predicted:
        problems.append(f"{where}: oracle {oracle_dim} != predicted {predicted}")
    if oracle_dim > expected_dim(n, l, parts):
        problems.append(f"{where}: oracle {oracle_dim} above expected "
                        f"{expected_dim(n, l, parts)}")
    return problems


def check_filling(n: int, l: int, parts, oracle_dim: int) -> list[str]:
    """The oracle fills the ambient space: codimension 0."""
    codim = ambient(n, sum(parts)) - 1 - oracle_dim
    if codim != 0:
        return [f"wide n={n} l={l} {list(parts)}: codimension {codim}, want 0"]
    return []


def check_rank(k: int, rank: int) -> list[str]:
    if rank != k:
        return [f"rank_of gave {rank} on a product of rank {k}"]
    return []


# ------------------------------------------------------------
# predict
# ------------------------------------------------------------


def check_filling_set(fills, n_range, l_range, d_max: int, r_max: int) -> list[str]:
    """fills: every (n, l, parts) with 2l <= n that the sweep says fills.
    It must be the paper's list, restricted to the swept region."""
    want = set()
    for n in range(n_range[0], n_range[1] + 1):
        for l in range(l_range[0], l_range[1] + 1):
            if 2 * l > n:
                continue
            for d in range(2, d_max + 1):
                for parts in partitions(d, 2, r_max):
                    if (n, l, parts) in FILLING_PROPER_SHAPES or (
                            parts == (1, 1) and n == 2 * l):
                        want.add((n, l, parts))
    fills = set(fills)
    if fills != want:
        return [f"2l <= n filling set: extra {sorted(fills - want)}, "
                f"missing {sorted(want - fills)}"]
    return []


def check_quoted(values) -> list[str]:
    """values: (n, l, parts) -> (dimension, defect, fills) for every QUOTED key."""
    problems = []
    for key, (dim, defect, fills) in QUOTED.items():
        got = values.get(key)
        if got is None:
            problems.append(f"quoted case {key} not computed")
            continue
        if got[0] != dim or (defect is not None and got[1] != defect) \
                or got[2] != fills:
            problems.append(f"quoted case {key}: got {got}, "
                            f"paper says {(dim, defect, fills)}")
    return problems


def check_linear_factor(n: int, l: int, d: int, family_dim: int,
                        general_dim: int) -> list[str]:
    """The [d-1,1] family row equals the general row and the closed form."""
    want = linear_factor_dim(n, l, d)
    if family_dim != general_dim or family_dim != want:
        return [f"linear factor n={n} l={l} d={d}: family {family_dim}, "
                f"general {general_dim}, closed form {want}"]
    return []


def check_plane_line(parts, line_dim: int, line_defect: int,
                     predicted: int, defect: int) -> list[str]:
    """The n=3, l=2 classification equals the general prediction."""
    if (line_dim, line_defect) != (predicted, defect):
        return [f"n=3 l=2 {list(parts)}: classification "
                f"{(line_dim, line_defect)} != prediction {(predicted, defect)}"]
    return []


def check_remark_scan(bound: int, result: dict) -> list[str]:
    """No failures, and the implication holds on every cell of the region."""
    problems = []
    size = remark_region_size(bound)
    if result.get("failures"):
        problems.append(f"remark scan failures: {result['failures'][:3]}")
    if result.get("region_cells") != size:
        problems.append(f"remark scan saw {result.get('region_cells')} cells, "
                        f"region has {size}")
    if result.get("implication_holds") != size:
        problems.append(f"implication holds on {result.get('implication_holds')} "
                        f"of {size} cells")
    return problems
