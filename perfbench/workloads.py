"""The four workloads: their fixed inputs, one round of work, and its checks.

A round is the same list of library calls every time; only the oracle seed
changes from round to round, so no module-level cache of the library can
answer a later round from an earlier one.  `run_round` is the timed
section; `check` runs after it, untimed and untraced, and returns (failed
operations, problems).  An operation that raises or that the
resource guard refuses counts as failed; a wrong answer is a problem.
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import redsecant as rs

import checks

# grid: a criterion-4 sub-grid, every partition with 2..4 parts.
GRID = dict(n_range=(3, 6), l_range=(2, 3), d_max=6, r_max=4)
GRID_TRIALS = 2

# ladder: one (n, l) so that no two calls share a ladder-cache key, at the
# criterion-8 trial count and column budget.
LADDER_N, LADDER_L, LADDER_D_MAX, LADDER_R_MAX = 4, 3, 7, 4
LADDER_CONFIG = dict(trials=2, max_columns=4000)

# wide: few calls with large elimination blocks.
WIDE_PROVEN = ((8, 4, (3, 3)),)      # 1716 columns, rank 932
WIDE_FILLING = ((6, 6, (4, 4)),)     # 1287 columns, full rank
WIDE_RANK_SHAPE = (600, 400)         # 600 x 600 product of rank 400

# predict: every family over a large grid, plus the remark region scan.
PREDICT = dict(n_range=(3, 12), l_range=(2, 8), d_max=12, r_max=4)
REMARK_BOUND = 12


@contextmanager
def timed_cells(cell_ms: list):
    """Time each sweep cell: sweep() runs one verify_case call per cell."""
    wb = rs.workbench
    inner = wb.verify_case

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            cell_ms.append(1000 * (perf_counter() - t0))

    wb.verify_case = timed
    try:
        yield
    finally:
        wb.verify_case = inner


def _timed_call(cell_ms: list, fn, *args):
    """Run one operation; an exception is returned, not raised, so the
    round goes on and the operation counts as failed."""
    t0 = perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation
        traceback.print_exc()
        return exc
    finally:
        cell_ms.append(1000 * (perf_counter() - t0))


def _cell(inst) -> tuple:
    return (inst.n, inst.l, inst.partition.parts)


def _sweep_cells(region: dict, families) -> list[tuple]:
    """(family, n, l, parts) for every cell a sweep over `region` must give."""
    out = []
    n_lo, n_hi = region["n_range"]
    l_lo, l_hi = region["l_range"]
    for family in families:
        for n in range(n_lo, n_hi + 1):
            for l in range(l_lo, l_hi + 1):
                for d in range(2, region["d_max"] + 1):
                    if family == "general" or (family == "n3" and (n, l) == (3, 2)):
                        shapes = checks.partitions(d, 2, region["r_max"])
                    elif family == "linear_factor":
                        shapes = [(d - 1, 1)] if d >= 3 else []
                    elif family == "balanced":
                        shapes = [(d // 2, d // 2)] if d % 2 == 0 else []
                    elif family == "reducible_forms":
                        shapes = [(d - 1, 1) if d >= 3 else (1, 1)]
                    else:
                        shapes = []
                    out.extend((family, n, l, parts) for parts in shapes)
    return out


class Grid:
    def setup(self, seed: int) -> dict:
        cells = [c[1:] for c in _sweep_cells(GRID, ("general",))]
        return {"cells": cells, "ops": len(cells)}

    def run_round(self, inputs: dict, seed: int, cell_ms: list):
        cfg = rs.SweepConfig(**GRID, workers=1,
                             oracle=rs.PrimeFieldConfig(trials=GRID_TRIALS, seed=seed))
        start = len(cell_ms)
        with timed_cells(cell_ms):
            rows, _ = rs.sweep(cfg)
        return rows, rs.render_csv(rows), len(cell_ms) - start

    def check(self, inputs: dict, out) -> tuple[int, list[str]]:
        rows, text, timed = out
        failed = sum(1 for row in rows if row.skipped_reason)
        problems = checks.check_cover([_cell(r.prediction.instance) for r in rows],
                                      inputs["cells"])
        problems += checks.check_csv(text, len(rows))
        if timed != len(rows):
            problems.append(f"timed {timed} cells for {len(rows)} rows")
        for row in rows:
            if row.skipped_reason:
                continue
            problems += checks.check_grid_cell(
                _cell(row.prediction.instance), row.prediction.predicted_dim,
                None if row.oracle is None else row.oracle.secant_dim,
                row.error, row.finding)
        return failed, problems


class Ladder:
    def setup(self, seed: int) -> dict:
        insts = [rs.ProblemInstance(LADDER_N, LADDER_L, rs.Partition(parts))
                 for d in range(2, LADDER_D_MAX + 1)
                 for parts in checks.partitions(d, 2, LADDER_R_MAX)]
        return {"insts": insts, "ops": len(insts)}

    def run_round(self, inputs: dict, seed: int, cell_ms: list):
        cfg = rs.PrimeFieldConfig(seed=seed, **LADDER_CONFIG)
        return [_timed_call(cell_ms, rs.wlp_consequence_check, inst, cfg)
                for inst in inputs["insts"]]

    def check(self, inputs: dict, out) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for inst, res in zip(inputs["insts"], out):
            if isinstance(res, Exception) or any(lv.skipped_reason for lv in res.levels):
                failed += 1
                continue
            levels = [(lv.variables, lv.observed, lv.skipped_reason) for lv in res.levels]
            problems += checks.check_ladder_cell(*_cell(inst), levels)
            if not res.passed:
                problems.append(f"ladder {inst}: check did not pass")
        return failed, problems


def low_rank_product(m: int, k: int, p: int, rng) -> np.ndarray:
    """An m x m matrix over Z/p of rank exactly k, built independently of
    the library: B*C with B = [I; R1] and C = [I | R2], whose identity k x k
    minors force rank k, then rows and columns permuted."""
    if k * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError("int64 product R1 @ R2 would not be exact")
    r1 = rng.integers(0, p, (m - k, k), dtype=np.int64)
    r2 = rng.integers(0, p, (k, m - k), dtype=np.int64)
    a = np.zeros((m, m), np.int64)
    a[:k, :k] = np.eye(k, dtype=np.int64)
    a[:k, k:] = r2
    a[k:, :k] = r1
    a[k:, k:] = (r1 @ r2) % p
    return a[rng.permutation(m)][:, rng.permutation(m)]


class Wide:
    def setup(self, seed: int) -> dict:
        insts = [rs.ProblemInstance(n, l, rs.Partition(parts))
                 for n, l, parts in WIDE_PROVEN + WIDE_FILLING]
        m, k = WIDE_RANK_SHAPE
        matrix = low_rank_product(m, k, checks.P_MAX, np.random.default_rng(seed))
        return {"insts": insts, "matrix": matrix, "k": k, "ops": len(insts) + 1}

    def run_round(self, inputs: dict, seed: int, cell_ms: list):
        cfg = rs.PrimeFieldConfig(trials=1, seed=seed)
        runs = [_timed_call(cell_ms, rs.oracle_run, inst, cfg) for inst in inputs["insts"]]
        rank = _timed_call(cell_ms, rs.oracle.rank_of, inputs["matrix"], checks.P_MAX)
        return runs, rank

    def check(self, inputs: dict, out) -> tuple[int, list[str]]:
        runs, rank = out
        failed, problems = 0, []
        proven = set(WIDE_PROVEN)
        for inst, run in zip(inputs["insts"], runs):
            if isinstance(run, Exception):
                failed += 1
                continue
            cell = _cell(inst)
            if cell in proven:
                rep = rs.predict(inst)
                problems += checks.check_proven(*cell, rep.status, rep.predicted_dim,
                                                run.secant_dim)
            else:
                problems += checks.check_filling(*cell, run.secant_dim)
        if isinstance(rank, Exception):
            failed += 1
        else:
            problems += checks.check_rank(inputs["k"], rank)
        return failed, problems


class Predict:
    def setup(self, seed: int) -> dict:
        cells = _sweep_cells(PREDICT, rs.SWEEP_FAMILIES)
        return {"cells": cells, "ops": len(cells)}

    def run_round(self, inputs: dict, seed: int, cell_ms: list):
        # the predictor has no random input: the seed reaches only the
        # unused oracle settings, so every round does identical work
        cfg = rs.SweepConfig(**PREDICT, families=rs.SWEEP_FAMILIES,
                             predictor_only=True, workers=1,
                             oracle=rs.PrimeFieldConfig(seed=seed))
        start = len(cell_ms)
        with timed_cells(cell_ms):
            rows, _ = rs.sweep(cfg)
        text = rs.render_csv(rows)
        scan = rs.remark_region_scan(REMARK_BOUND)
        return rows, text, scan, len(cell_ms) - start

    def check(self, inputs: dict, out) -> tuple[int, list[str]]:
        rows, text, scan, timed = out
        keyed = [(row.family,) + _cell(row.prediction.instance) for row in rows]
        problems = checks.check_cover(keyed, inputs["cells"])
        problems += checks.check_csv(text, len(rows))
        if timed != len(rows):
            problems.append(f"timed {timed} cells for {len(rows)} rows")
        general = {key[1:]: row.prediction
                   for key, row in zip(keyed, rows) if key[0] == "general"}
        problems += checks.check_filling_set(
            [c for c, rep in general.items() if 2 * c[1] <= c[0] and rep.fills],
            PREDICT["n_range"], PREDICT["l_range"], PREDICT["d_max"], PREDICT["r_max"])
        for key, row in zip(keyed, rows):
            family, n, l, parts = key
            if family == "linear_factor":
                problems += checks.check_linear_factor(
                    n, l, sum(parts), row.prediction.predicted_dim,
                    general[(n, l, parts)].predicted_dim)
        for (n, l, parts), rep in general.items():
            if (n, l) == (3, 2):
                line = rs.n3_secant_line(parts)
                problems += checks.check_plane_line(parts, line.dimension, line.defect,
                                                    rep.predicted_dim, rep.defect)
        quoted = {}
        for key in checks.QUOTED:
            rep = general.get(key) or rs.predict(rs.ProblemInstance(*key))
            quoted[key] = (rep.predicted_dim, rep.defect, rep.fills)
        problems += checks.check_quoted(quoted)
        problems += checks.check_remark_scan(REMARK_BOUND, scan)
        return 0, problems


WORKLOADS = {"grid": Grid(), "ladder": Ladder(), "wide": Wide(), "predict": Predict()}
