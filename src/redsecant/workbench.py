"""Sweep harness: enumerate instances, check predictions against the oracle,
and write deterministic reports.

A sweep walks a grid of (family, n, l, d, partition) cells in a fixed
order, runs the prediction and (unless predictor_only) the rank oracle for
each, and records agreement.  Disagreement on a proven-status cell is an
error state that the CLI turns into exit code 3; disagreement on a
conjectural cell is a finding carrying full reproduction data.  Cells whose
matrices would exceed the column guard are marked skipped, never dropped.
Identical config and seed produce byte-identical CSV and JSON output.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .combinatorics import Partition, ProblemInstance, enumerate_partitions
from .predictor import (
    FAMILIES,
    PredictionReport,
    linear_factor_predict,
    predict,
    reducible_forms_predict,
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


@dataclass(frozen=True)
class SweepConfig:
    """Grid bounds, families, oracle settings, and output destination.

    Ranges are inclusive.  families picks which partitions each (n, l, d)
    cell contributes: "general" takes every partition with at most r_max
    parts, "linear_factor" only [d-1,1] (d >= 3), "balanced" only
    [d/2, d/2] (even d), "reducible_forms" one row per cell through the
    family predictor, and "n3" restricts to the cells with n = 3, l = 2.
    g_check_bound, when set, appends the defectivity-implication tallies
    over the region n < l, 2s <= d1 < (n-1)(s-1) with n, l, s up to the
    bound to the summary.
    """

    n_range: tuple[int, int]
    l_range: tuple[int, int]
    d_max: int
    r_max: int = 4
    families: tuple[str, ...] = ("general",)
    oracle: PrimeFieldConfig = field(default_factory=PrimeFieldConfig)
    predictor_only: bool = False
    g_check_bound: Optional[int] = None
    out_path: Optional[str] = None
    out_format: str = "csv"
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
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.out_format!r}")


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
        rep = self.prediction
        inst = rep.instance
        part = inst.partition
        run = self.oracle
        return {
            "family": self.family,
            "n": inst.n,
            "l": inst.l,
            "partition": part.text(),
            "d": part.d,
            "r": part.r,
            "s": part.s,
            "N": inst.N,
            "dimX": rep.dim_x,
            "expected": rep.expected_dim,
            "predicted": rep.predicted_dim,
            "fills": str(rep.fills).lower(),
            "defect": rep.defect,
            "epsilon": rep.epsilon,
            "status": rep.status,
            "citation": rep.citation,
            "oracle_dim": "" if run is None else run.secant_dim,
            "agree": "" if self.agree is None else str(self.agree).lower(),
            "skipped_reason": self.skipped_reason or "",
            "error": self.error or "",
            "finding": self.finding or "",
            "trial_ranks": "" if run is None else ";".join(map(str, run.trial_ranks)),
        }

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "prediction": self.prediction.to_json(),
            "oracle": None if self.oracle is None else self.oracle.to_json(),
            "agree": self.agree,
            "skipped_reason": self.skipped_reason,
            "error": self.error,
            "finding": self.finding,
        }


def _cell_seed(base: int, family: str, n: int, l: int, parts: tuple[int, ...]) -> int:
    """Stable per-cell seed so parallel scheduling cannot reorder streams."""
    entropy = (base, SWEEP_FAMILIES.index(family), n, l, *parts)
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0] >> 1)


def _family_report(family: str, inst: ProblemInstance) -> PredictionReport:
    if family == "linear_factor":
        return linear_factor_predict(inst.n, inst.l, inst.d)
    if family == "reducible_forms":
        return reducible_forms_predict(inst.n, inst.l, inst.d)
    return predict(inst)


def verify_case(inst: ProblemInstance, cfg: PrimeFieldConfig,
                family: str = "general",
                predictor_only: bool = False) -> SweepRow:
    """Run the prediction and the oracle for one instance and compare."""
    report = _family_report(family, inst)
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


def _cell_partitions(family: str, n: int, l: int, d: int,
                     r_max: int) -> list[Partition]:
    if family == "general":
        return enumerate_partitions(d, 2, r_max)
    if family == "linear_factor":
        return [Partition([d - 1, 1])] if d >= 3 else []
    if family == "balanced":
        return [Partition([d // 2, d // 2])] if d % 2 == 0 else []
    if family == "reducible_forms":
        return [Partition([d - 1, 1]) if d >= 3 else Partition([1, 1])]
    if family == "n3":
        if n == 3 and l == 2:
            return enumerate_partitions(d, 2, r_max)
        return []
    raise ValueError(f"unknown family {family!r}")


def _enumerate_cells(cfg: SweepConfig):
    for family in cfg.families:
        for n in range(cfg.n_range[0], cfg.n_range[1] + 1):
            for l in range(cfg.l_range[0], cfg.l_range[1] + 1):
                for d in range(2, cfg.d_max + 1):
                    for part in _cell_partitions(family, n, l, d, cfg.r_max):
                        yield family, n, l, part


def _run_cell(args) -> SweepRow:
    family, n, l, parts, oracle_cfg, predictor_only = args
    inst = ProblemInstance(n, l, Partition(parts))
    if not predictor_only:
        oracle_cfg = replace(oracle_cfg,
                             seed=_cell_seed(oracle_cfg.seed, family, n, l, parts))
    return verify_case(inst, oracle_cfg, family, predictor_only)


def remark_region_scan(bound: int) -> dict:
    """Defectivity-implication tallies on the open region up to `bound`.

    Scans n < l with n, l, s <= bound and 2s <= d1 < (n-1)(s-1), running the
    g-test on the spread partition [d1, 1, ..., 1].  Returns tallies plus
    the list of failing cells (expected empty).
    """
    if bound < 3:
        raise ValueError(f"need bound >= 3, got {bound}")
    total = positive = nonpositive = holds = 0
    failures: list[dict] = []
    for n in range(3, bound + 1):
        for l in range(n + 1, bound + 1):
            for s in range(1, bound + 1):
                for d1 in range(2 * s, (n - 1) * (s - 1)):
                    part = Partition([d1] + [1] * s)
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
    by_status: dict[str, dict[str, int]] = {}
    agree = disagree = skipped = predictor_only = 0
    findings: list[str] = []
    errors: list[str] = []
    for row in rows:
        status = row.prediction.status
        bucket = by_status.setdefault(status, {"total": 0, "agree": 0,
                                               "disagree": 0, "skipped": 0,
                                               "predictor_only": 0})
        bucket["total"] += 1
        if row.skipped_reason is not None:
            skipped += 1
            bucket["skipped"] += 1
        elif row.agree is None:
            predictor_only += 1
            bucket["predictor_only"] += 1
        elif row.agree:
            agree += 1
            bucket["agree"] += 1
        else:
            disagree += 1
            bucket["disagree"] += 1
        if row.finding:
            findings.append(row.finding)
        if row.error:
            errors.append(row.error)
    summary = {
        "total": len(rows),
        "agree": agree,
        "disagree": disagree,
        "skipped": skipped,
        "predictor_only": predictor_only,
        "by_status": by_status,
        "proven_disagreements": len(errors),
        "errors": errors,
        "findings": findings,
    }
    if cfg.g_check_bound is not None:
        summary["g_check"] = remark_region_scan(cfg.g_check_bound)
    return summary


def render_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.csv_record())
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

    Cells run on a process pool of min(workers, cells, CPUs) processes; a
    single collector writes results in enumeration order regardless of
    completion order, so output is deterministic.  When out_path is set,
    the rendered CSV or JSON is also written there.
    """
    cells = [
        (family, n, l, part.parts, cfg.oracle, cfg.predictor_only)
        for family, n, l, part in _enumerate_cells(cfg)
    ]
    cpus = os.cpu_count() or 1
    workers = min(cfg.workers or cpus, cpus, len(cells))
    if workers <= 1:
        rows: list[SweepRow] = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells, chunksize=4))
    summary = _summarize(rows, cfg)
    if cfg.out_path:
        text = (render_csv(rows) if cfg.out_format == "csv"
                else render_json(rows, summary, cfg))
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return rows, summary
