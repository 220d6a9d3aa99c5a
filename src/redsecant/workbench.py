"""Sweep harness: enumerate instances, check predictions against the oracle,
and render deterministic reports.

A sweep walks a grid of (family, n, l, d, partition) cells in a fixed
order, runs the prediction and (unless predictor_only) the rank oracle for
each, and records agreement.  Disagreement on a proven-status cell is an
error state that the CLI turns into exit code 3; disagreement on a
conjectural cell is a finding carrying full reproduction data.  Cells whose
matrices would exceed the column guard are marked skipped, never dropped.
Identical config and seed produce byte-identical CSV and JSON output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import multiprocessing
import os
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .combinatorics import Partition, ProblemInstance, enumerate_partitions, record_json
from .predictor import (
    PredictionReport,
    _linear_factor_checked,
    _reducible_forms_checked,
    _stand_in,
    predict,
    remark510_check,
)
from .oracle.runs import (
    OracleRun,
    PrimeFieldConfig,
    ResourceGuardExceeded,
    oracle_run,
)

SWEEP_FAMILIES = ("general", "linear_factor", "balanced", "reducible_forms", "n3")

CSV_COLUMNS = (
    "family", "n", "l", "partition", "d", "r", "s", "N", "dimX",
    "expected", "predicted", "fills", "defect", "epsilon", "status",
    "citation", "oracle_dim", "agree", "skipped_reason", "error",
    "finding", "trial_ranks",
)

# A sweep row's outcome, in the summary's key order.
_OUTCOMES = ("agree", "disagree", "skipped", "predictor_only")


# Largest g_check_bound: remark_region_scan visits about bound^5 / 12 cells
# at 8-11 us each, 7,136 cells (0.06 s) at 12 and 415,400 (about 4.4 s) at 24.
MAX_G_CHECK_BOUND = 24

# Most cells one sweep may hold.  On a 2-vCPU Xeon VM a predictor-only cell
# took 28-37 us (best of 5 sweeps, timed three times, of the 11,972-cell
# grid of every family over n 3-12, l 2-8, d <= 12 and of its 9,940
# general cells, each a distinct instance) and its cell and row held at
# most about 0.9 KB, so the cap is about 7 s and 180 MB before rendering;
# that grid is well inside it.
MAX_SWEEP_CELLS = 200_000

# BLAS thread counts a sweep worker starts with when the user set none.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SPAWN = multiprocessing.get_context("spawn")


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A pool of `workers` spawned processes that load BLAS with one
    thread unless the user set a count.  The pool runs a worker per CPU,
    and workers with the parent's BLAS threads, as forked ones keep, ran
    criterion 4 on 2 CPUs in 40 s instead of 19 s.  Every worker starts
    inside the block: from submit, on the calling thread, and map submits
    every chunk before it returns.  Spawned workers import the caller's
    main module, so a script that sweeps on more than one worker needs an
    `if __name__ == "__main__":` guard.
    """
    unset = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with futures.ProcessPoolExecutor(workers, mp_context=_SPAWN) as pool:
            yield pool
    finally:
        for var in unset:
            del os.environ[var]


@dataclass(frozen=True)
class SweepConfig:
    """Grid bounds, families, oracle settings, and pool size.

    Ranges are inclusive.  families picks which partitions each (n, l, d)
    cell contributes: "general" takes every partition with at most r_max
    parts, "linear_factor" only [d-1,1] (d >= 3), "balanced" only
    [d/2, d/2] (even d), "reducible_forms" one row per cell through the
    family predictor, and "n3" restricts to the cells with n = 3, l = 2.
    g_check_bound, when set, appends the defectivity-implication tallies
    over the region n < l, 2s <= d1 < (n-1)(s-1) with n, l, s up to the
    bound (3 to MAX_G_CHECK_BOUND) to the summary.  workers caps the
    pool of oracle cells; a predictor_only sweep runs in the calling
    process.  Construction checks the whole grid: past MAX_SWEEP_CELLS
    cells it raises ValueError.
    """

    n_range: tuple[int, int]
    l_range: tuple[int, int]
    d_max: int
    r_max: int = 4
    families: tuple[str, ...] = ("general",)
    oracle: PrimeFieldConfig = field(default_factory=PrimeFieldConfig)
    predictor_only: bool = False
    g_check_bound: Optional[int] = None
    workers: Optional[int] = None

    def __post_init__(self):
        # empty ranges are fine (they sweep nothing); bounds are only
        # checked when the range actually contains values
        if self.n_range[0] <= self.n_range[1] and self.n_range[0] < 3:
            raise ValueError(f"need n >= 3, got range {self.n_range}")
        if self.l_range[0] <= self.l_range[1] and self.l_range[0] < 2:
            raise ValueError(f"need l >= 2, got range {self.l_range}")
        if self.d_max < 2:
            raise ValueError(f"need d_max >= 2, got {self.d_max}")
        if self.r_max < 2:
            raise ValueError(f"need r_max >= 2, got {self.r_max}")
        bad = [f for f in self.families if f not in SWEEP_FAMILIES]
        if bad:
            raise ValueError(f"unknown families {bad}; expected {SWEEP_FAMILIES}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"need workers >= 1, got {self.workers}")
        if self.g_check_bound is not None:
            _check_g_check_bound(self.g_check_bound)
        _check_cell_count(self)


@dataclass(frozen=True)
class SweepRow:
    """One verified cell.

    error is set exactly on proven-status disagreement; finding on
    conjectural disagreement (with reproduction data); skipped_reason when
    the resource guard refused the oracle.  agree is None whenever the
    oracle did not run.
    """

    family: str
    prediction: PredictionReport
    oracle: Optional[OracleRun] = None
    agree: Optional[bool] = None
    skipped_reason: Optional[str] = None
    error: Optional[str] = None
    finding: Optional[str] = None

    def csv_record(self) -> dict:
        """The CSV row: the prediction's JSON fields n through citation,
        with fills as "true"/"false", between the family and the oracle."""
        prediction = self.prediction.scalar_json()
        prediction["fills"] = "true" if prediction["fills"] else "false"
        run = self.oracle
        return {
            "family": self.family,
            **prediction,
            "oracle_dim": "" if run is None else run.secant_dim,
            "agree": "" if self.agree is None else str(self.agree).lower(),
            "skipped_reason": self.skipped_reason or "",
            "error": self.error or "",
            "finding": self.finding or "",
            "trial_ranks": "" if run is None else ";".join(map(str, run.trial_ranks)),
        }

    def to_json(self) -> dict:
        return record_json(self)


def _cell_seed(base: int, family: str, n: int, l: int, parts: tuple[int, ...]) -> int:
    """Stable per-cell seed so parallel scheduling cannot reorder streams."""
    entropy = (base, SWEEP_FAMILIES.index(family), n, l, *parts)
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0] >> 1)


# The families whose rows check and relabel the prediction of the
# instance their predictor stands in.
_CHECKED_FAMILIES = {"linear_factor": _linear_factor_checked,
                     "reducible_forms": _reducible_forms_checked}


def _family_report(family: str, inst: ProblemInstance,
                   reports: Optional[dict] = None) -> PredictionReport:
    """The family's prediction for inst.  An unknown family, or one whose
    predictor stands in another partition for inst's, raises ValueError.
    reports maps (n, l, parts) to predict()'s reports: one found there is
    used, and one made here is added."""
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected {SWEEP_FAMILIES}")
    checked = _CHECKED_FAMILIES.get(family)
    if checked is not None:
        stand_in = _stand_in(family, inst.n, inst.l, inst.d)
        if stand_in != inst:
            raise ValueError(f"the {family} family predicts partition "
                             f"{stand_in.partition.text()}, not "
                             f"{inst.partition.text()}")
    if reports is None:
        reports = {}
    key = (inst.n, inst.l, inst.partition.parts)
    report = reports.get(key)
    if report is None:
        report = reports[key] = predict(inst)
    return report if checked is None else checked(report)


def verify_case(inst: ProblemInstance, cfg: PrimeFieldConfig,
                family: str = "general",
                predictor_only: bool = False,
                reports: Optional[dict] = None) -> SweepRow:
    """Run the prediction and the oracle for one instance and compare.
    A family outside SWEEP_FAMILIES, or one that does not take inst's
    partition, raises ValueError before the oracle runs.  reports, when
    given, shares predict()'s reports between calls (see _family_report)."""
    report = _family_report(family, inst, reports)
    if predictor_only:
        return SweepRow(family, report)
    try:
        run = oracle_run(inst, cfg)
    except ResourceGuardExceeded as exc:
        return SweepRow(family, report, skipped_reason=str(exc))
    agree = run.secant_dim == report.predicted_dim
    error = finding = None
    if not agree:
        detail = (
            f"predicted {report.predicted_dim}, oracle {run.secant_dim} "
            f"(p={cfg.p}, seed={cfg.seed}, trials={cfg.trials}, "
            f"trial_ranks={list(run.trial_ranks)})"
        )
        if report.status == "proven":
            error = f"proven-status disagreement: {detail}"
        else:
            finding = f"conjectural disagreement: {detail}"
    return SweepRow(family, report, run, agree, None, error, finding)


def _cell_partitions(family: str, d: int, r_max: int) -> list[Partition]:
    """The partitions a family takes at degree d."""
    if family in ("general", "n3"):
        return enumerate_partitions(d, 2, r_max)
    if family == "linear_factor":
        return [Partition([d - 1, 1])] if d >= 3 else []
    if family == "balanced":
        return [Partition([d // 2, d // 2])] if d % 2 == 0 else []
    if family == "reducible_forms":
        return [Partition([d - 1, 1]) if d >= 3 else Partition([1, 1])]
    raise ValueError(f"unknown family {family!r}")


def _family_pairs(family: str, cfg: SweepConfig) -> tuple[range, range]:
    """The n and l values a family sweeps: the grid's, except that n3
    sweeps (3, 2) alone, and nothing on a grid without it."""
    ns = range(cfg.n_range[0], cfg.n_range[1] + 1)
    ls = range(cfg.l_range[0], cfg.l_range[1] + 1)
    if family == "n3":
        on_grid = 3 in ns and 2 in ls
        return range(3, 3 + on_grid), range(2, 2 + on_grid)
    return ns, ls


def _enumerate_cells(cfg: SweepConfig):
    # each family's shape lists are built once, and shared by its (n, l) cells
    for family in cfg.families:
        ns, ls = _family_pairs(family, cfg)
        shapes = [_cell_partitions(family, d, cfg.r_max)
                  for d in range(2, cfg.d_max + 1)] if ns and ls else []
        for n, l, parts in itertools.product(ns, ls, shapes):
            for part in parts:
                yield family, n, l, part


def _partitions_per_degree(r_max: int):
    """Yield, for d = 2, 3, ..., how many partitions enumerate_partitions(d,
    2, r_max) returns, without building them: exact[d][k] counts the
    partitions of d into exactly k parts, p(d, k) = p(d-1, k-1) + p(d-k, k)."""
    exact = [[1], [0, 1]]
    for d in itertools.count(2):
        exact.append([0] + [exact[d - 1][k - 1]
                            + (exact[d - k][k] if 2 * k <= d else 0)
                            for k in range(1, min(d, r_max) + 1)])
        yield sum(exact[d][2:])


def _check_cell_count(cfg: SweepConfig) -> None:
    """Refuse a grid of more than MAX_SWEEP_CELLS cells before any is
    built: each family's shape count per d times its (n, l) pairs, summed
    until the sum passes the cap.  The general shapes are counted without
    building them."""
    cells = 0
    for family in cfg.families:
        ns, ls = _family_pairs(family, cfg)
        pairs = len(ns) * len(ls)
        if not pairs:
            continue
        general = _partitions_per_degree(cfg.r_max)
        for d in range(2, cfg.d_max + 1):
            cells += pairs * (next(general) if family in ("general", "n3")
                              else len(_cell_partitions(family, d, cfg.r_max)))
            if cells > MAX_SWEEP_CELLS:
                raise ValueError(f"the sweep would hold more than {MAX_SWEEP_CELLS} "
                                 f"cells; narrow the n, l or d range")


def _run_cell(args, reports: Optional[dict] = None) -> SweepRow:
    family, n, l, part, oracle_cfg, predictor_only = args
    inst = ProblemInstance(n, l, part)
    if not predictor_only:
        oracle_cfg = replace(oracle_cfg,
                             seed=_cell_seed(oracle_cfg.seed, family, n, l, part.parts))
    return verify_case(inst, oracle_cfg, family, predictor_only, reports)


def _check_g_check_bound(bound: int) -> None:
    if not 3 <= bound <= MAX_G_CHECK_BOUND:
        raise ValueError(f"need 3 <= g-check bound <= {MAX_G_CHECK_BOUND}, got {bound}")


def remark_region_scan(bound: int) -> dict:
    """Defectivity-implication tallies on the open region up to `bound`.

    Scans n < l with n, l, s <= bound and 2s <= d1 < (n-1)(s-1), running the
    g-test on the spread partition [d1, 1, ..., 1].  Returns tallies plus
    the list of failing cells (expected empty).  Refuses a bound outside
    3..MAX_G_CHECK_BOUND before scanning.
    """
    _check_g_check_bound(bound)
    total = positive = nonpositive = holds = 0
    failures: list[dict] = []
    # the spread partitions depend on (s, d1) alone: build each once
    spreads: dict[tuple[int, int], Partition] = {}
    for n in range(3, bound + 1):
        for l in range(n + 1, bound + 1):
            for s in range(1, bound + 1):
                for d1 in range(2 * s, (n - 1) * (s - 1)):
                    part = spreads.get((s, d1))
                    if part is None:
                        part = spreads[s, d1] = Partition([d1] + [1] * s)
                    res = remark510_check(n, l, part)
                    total += 1
                    if res.g > 0:
                        positive += 1
                    else:
                        nonpositive += 1
                    if res.implication_holds:
                        holds += 1
                    else:
                        failures.append(
                            {"n": n, "l": l, "s": s, "d1": d1, "g": res.g}
                        )
    return {
        "bound": bound,
        "region_cells": total,
        "g_positive": positive,
        "g_nonpositive": nonpositive,
        "implication_holds": holds,
        "failures": failures,
    }


def _summarize(rows: Sequence[SweepRow], cfg: SweepConfig) -> dict:
    """Each row's outcome is counted once, in its status bucket; the
    top-level counts are the sums over the buckets."""
    by_status: dict[str, dict[str, int]] = {}
    findings: list[str] = []
    errors: list[str] = []
    for row in rows:
        bucket = by_status.setdefault(row.prediction.status,
                                      dict.fromkeys(("total",) + _OUTCOMES, 0))
        bucket["total"] += 1
        if row.skipped_reason is not None:
            bucket["skipped"] += 1
        elif row.agree is None:
            bucket["predictor_only"] += 1
        else:
            bucket["agree" if row.agree else "disagree"] += 1
        if row.finding:
            findings.append(row.finding)
        if row.error:
            errors.append(row.error)
    summary = {
        "total": len(rows),
        **{key: sum(b[key] for b in by_status.values()) for key in _OUTCOMES},
        "by_status": by_status,
        "proven_disagreements": len(errors),
        "errors": errors,
        "findings": findings,
    }
    if cfg.g_check_bound is not None:
        summary["g_check"] = remark_region_scan(cfg.g_check_bound)
    return summary


def render_csv(rows: Sequence[SweepRow]) -> str:
    """The CSV report.  Values are written by position, so a record whose
    keys are not exactly CSV_COLUMNS, in order, raises ValueError."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        record = row.csv_record()
        if tuple(record) != CSV_COLUMNS:
            raise ValueError(f"CSV record keys {tuple(record)} "
                             f"are not {CSV_COLUMNS}")
        writer.writerow(record.values())
    return buf.getvalue()


def render_json(rows: Sequence[SweepRow], summary: dict, cfg: SweepConfig) -> str:
    doc = {
        "config": {
            "n_range": list(cfg.n_range),
            "l_range": list(cfg.l_range),
            "d_max": cfg.d_max,
            "r_max": cfg.r_max,
            "families": list(cfg.families),
            "predictor_only": cfg.predictor_only,
            "prime": cfg.oracle.p,
            "trials": cfg.oracle.trials,
            "seed": cfg.oracle.seed,
            "max_columns": cfg.oracle.max_columns,
            "g_check_bound": cfg.g_check_bound,
        },
        "rows": [row.to_json() for row in rows],
        "summary": summary,
    }
    return json.dumps(doc, indent=2) + "\n"


def sweep(cfg: SweepConfig) -> tuple[list[SweepRow], dict]:
    """Execute the grid and return (rows in enumeration order, summary).

    Oracle cells run on a process pool of min(workers, cells, CPUs)
    processes, spawned with single-threaded BLAS (see _worker_pool); a
    single collector writes results in enumeration order regardless of
    completion order, so output is deterministic.  Predictor-only cells
    run in the calling process whatever workers says: a prediction costs
    less than sending its row back from a worker.  Cells that run in this
    process predict each instance once and share its report, which the
    linear_factor and reducible_forms rows check and relabel.  render_csv
    and render_json turn the rows into a report.  The grid was checked when
    cfg was built (see SweepConfig), so sweep itself refuses nothing.
    """
    cells = [
        (family, n, l, part, cfg.oracle, cfg.predictor_only)
        for family, n, l, part in _enumerate_cells(cfg)
    ]
    cpus = os.cpu_count() or 1
    workers = 1 if cfg.predictor_only else min(cfg.workers or cpus, cpus, len(cells))
    if workers <= 1:
        reports: dict[tuple, PredictionReport] = {}
        rows: list[SweepRow] = [_run_cell(cell, reports) for cell in cells]
    else:
        with _worker_pool(workers) as pool:
            rows = list(pool.map(_run_cell, cells, chunksize=4))
    return rows, _summarize(rows, cfg)
