import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redsecant import cli, predictor, workbench
from redsecant.combinatorics import Partition, ProblemInstance
from redsecant.oracle import PrimeFieldConfig, runs
from redsecant.predictor import Remark510Result
from redsecant.workbench import (
    SweepConfig,
    SweepRow,
    remark_region_scan,
    render_csv,
    render_json,
    sweep,
    verify_case,
)

FAST_ORACLE = PrimeFieldConfig(trials=1, seed=13)


def small_config(**overrides):
    base = dict(n_range=(3, 3), l_range=(2, 2), d_max=4, r_max=4,
                oracle=PrimeFieldConfig(trials=2, seed=5), workers=1)
    base.update(overrides)
    return SweepConfig(**base)


# The sweep command that runs small_config().
SMALL_SWEEP_ARGV = ["sweep", "--n-range", "3:3", "--l-range", "2:2", "--d-max", "4",
                    "--r-max", "4", "--trials", "2", "--seed", "5", "--workers", "1"]


class TestVerifyCase:
    def test_agreeing_cell(self):
        row = verify_case(ProblemInstance(4, 3, "3,2,2"), FAST_ORACLE)
        assert row.agree is True
        assert row.error is None and row.finding is None
        assert row.oracle.secant_dim == row.prediction.predicted_dim == 113

    def test_predictor_only_leaves_oracle_empty(self):
        row = verify_case(ProblemInstance(4, 3, "3,2,2"), FAST_ORACLE,
                          predictor_only=True)
        assert row.oracle is None and row.agree is None

    def test_guard_becomes_a_skip(self):
        tight = PrimeFieldConfig(trials=1, max_columns=10)
        row = verify_case(ProblemInstance(5, 4, "4,3"), tight)
        assert row.skipped_reason is not None
        assert row.oracle is None and row.agree is None

    def test_family_dispatch(self):
        row = verify_case(ProblemInstance(6, 3, "2,1"), FAST_ORACLE,
                          family="linear_factor")
        assert row.prediction.citation == "linear factor family [d-1,1]"
        assert row.agree is True

    @pytest.mark.parametrize("family", ["linear_factor", "reducible_forms", "bogus"])
    def test_family_that_does_not_take_the_instance_is_refused(
            self, monkeypatch, family):
        """[3,2,2] is not the [6,1] that both family predictors stand in,
        and "bogus" is no family: each raises before the oracle runs,
        instead of reporting a proven-status disagreement."""
        monkeypatch.setattr(workbench, "oracle_run", None)
        with pytest.raises(ValueError, match="family"):
            verify_case(ProblemInstance(4, 3, "3,2,2"), FAST_ORACLE, family=family)


class TestSweep:
    def test_byte_identical_reruns(self):
        cfg = small_config()
        rows1, _ = sweep(cfg)
        rows2, _ = sweep(cfg)
        assert render_csv(rows1) == render_csv(rows2)

    def test_json_byte_identical_reruns(self):
        cfg = small_config()
        rows1, summary1 = sweep(cfg)
        rows2, summary2 = sweep(cfg)
        assert render_json(rows1, summary1, cfg) == render_json(rows2, summary2, cfg)

    def test_parallel_matches_sequential(self):
        seq = small_config()
        par = small_config(workers=3)
        assert render_csv(sweep(seq)[0]) == render_csv(sweep(par)[0])

    def test_summary_counts_partition_the_total(self):
        _, summary = sweep(small_config(d_max=5))
        total = summary["agree"] + summary["disagree"] + \
            summary["skipped"] + summary["predictor_only"]
        assert total == summary["total"]
        by_status = sum(b["total"] for b in summary["by_status"].values())
        assert by_status == summary["total"]

    def test_empty_range_sweeps_nothing(self):
        rows, summary = sweep(small_config(n_range=(5, 4)))
        assert rows == []
        assert summary["total"] == 0 and summary["errors"] == []

    def test_predictor_only_runs_without_oracle(self):
        rows, summary = sweep(small_config(predictor_only=True))
        assert summary["predictor_only"] == summary["total"] > 0
        assert all(r.oracle is None for r in rows)

    def test_predictor_only_builds_no_oracle_config(self, monkeypatch):
        cfg = small_config(n_range=(3, 5), l_range=(2, 4), d_max=6,
                           families=workbench.SWEEP_FAMILIES,
                           predictor_only=True)
        calls = []
        real = runs.is_prime
        monkeypatch.setattr(runs, "is_prime",
                            lambda m: calls.append(m) or real(m))
        rows, _ = sweep(cfg)
        assert calls == []
        # digest of the same sweep's CSV before cells stopped rebuilding
        # their oracle config
        assert len(rows) == 308
        assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == (
            "844788e0ec13a80777bd51e5fd6ff10629c7cd5b3ddad6e5895c38909a70fdd4")

    def test_oracle_csv_matches_frozen_digest(self):
        # Digest of this sweep's CSV under the row-by-row elimination kernel;
        # exact elimination yields the same ranks under any algorithm.
        cfg = small_config(n_range=(3, 4), l_range=(2, 3), d_max=5,
                           families=("general", "linear_factor"))
        rows, summary = sweep(cfg)
        assert len(rows) == 60
        assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == (
            "a29bf146e1ae2708aa08bfffe1c9227946a6f0198565f274d91081c31d362b3e")
        # The JSON report's digest, taken before the oracle's trial loops
        # became one engine; unlike the CSV it fixes the key order.
        assert hashlib.sha256(render_json(rows, summary, cfg).encode()).hexdigest() == (
            "3c9edeca701e18b36e41b5c5767a4c70eb7981b1403bb4801e20d6e6ae4e9d2a")

    @pytest.mark.parametrize("workers,cpus,want", [
        (500, 8, 3), (5, 2, 2), (None, 2, 2), (None, None, None)])
    def test_workers_capped_by_cells_and_cpus(self, monkeypatch, workers,
                                              cpus, want):
        made = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(workbench.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(workbench.os, "cpu_count", lambda: cpus)
        cfg = small_config(d_max=3, workers=workers)
        rows, _ = sweep(cfg)
        assert len(rows) == 3
        assert made == ([] if want is None else [want])
        assert render_csv(rows) == render_csv(sweep(small_config(d_max=3))[0])

    def test_predictor_only_sweep_runs_in_process(self, monkeypatch):
        """Predictor-only cells start no pool whatever workers says: with
        two CPUs and workers=2 the sweep gives the workers=1 CSV."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a predictor-only sweep started a pool")

        cfg = small_config(n_range=(3, 5), l_range=(2, 4), d_max=6,
                           families=workbench.SWEEP_FAMILIES, predictor_only=True)
        want = render_csv(sweep(cfg)[0])
        monkeypatch.setattr(workbench.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(workbench.os, "cpu_count", lambda: 2)
        rows, _ = sweep(dataclasses.replace(cfg, workers=2))
        assert render_csv(rows) == want

    def test_pool_spawns_workers_with_one_blas_thread(self, monkeypatch):
        """The sweep's pool spawns its workers with every BLAS thread
        variable the user left unset at 1, and keeps the user's own.  One
        real worker reads its environment; the parent's is restored after
        the block."""
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        with workbench._worker_pool(1) as pool:
            seen = list(pool.map(os.getenv, workbench._BLAS_THREAD_VARS))
        assert seen == ["1", "2", "1"]
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_skipped_rows_are_kept(self):
        cfg = small_config(d_max=8,
                           oracle=PrimeFieldConfig(trials=1, max_columns=20))
        rows, summary = sweep(cfg)
        assert summary["skipped"] > 0
        skipped = [r for r in rows if r.skipped_reason]
        assert len(skipped) == summary["skipped"]
        assert all("guard" in r.skipped_reason or "columns" in r.skipped_reason
                   for r in skipped)

    def test_family_enumeration(self):
        cfg = small_config(n_range=(6, 6), l_range=(3, 3), d_max=6,
                           families=("linear_factor", "balanced"),
                           predictor_only=True)
        rows, _ = sweep(cfg)
        by_family = {}
        for r in rows:
            by_family.setdefault(r.family, []).append(
                r.prediction.instance.partition.parts)
        # [d-1,1] for d = 3..6; [d/2,d/2] for d = 2, 4, 6
        assert by_family["linear_factor"] == [(2, 1), (3, 1), (4, 1), (5, 1)]
        assert by_family["balanced"] == [(1, 1), (2, 2), (3, 3)]

    def test_n3_family_only_emits_plane_line_cells(self, monkeypatch):
        cfg = small_config(n_range=(3, 4), l_range=(2, 3), d_max=3,
                           families=("n3",), predictor_only=True)
        rows, _ = sweep(cfg)
        assert rows
        assert all(r.prediction.instance.n == 3 and
                   r.prediction.instance.l == 2 for r in rows)
        # a grid without (3, 2) holds no n3 cell, so even a cap of 0 admits it
        monkeypatch.setattr(workbench, "MAX_SWEEP_CELLS", 0)
        assert sweep(dataclasses.replace(cfg, n_range=(4, 5)))[0] == []

    def test_writes_csv_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert cli.main(SMALL_SWEEP_ARGV + ["--out", str(out)]) == 0
        rows, summary = sweep(small_config())
        assert json.loads(capsys.readouterr().out) == summary
        text = out.read_text()
        assert text == render_csv(rows)
        header = text.splitlines()[0]
        assert header.startswith("family,n,l,partition,")
        assert "runtime_ms" not in header

    def test_writes_json_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(SMALL_SWEEP_ARGV + ["--out", str(out),
                                            "--format", "json"]) == 0
        cfg = small_config()
        rows, summary = sweep(cfg)
        assert json.loads(capsys.readouterr().out) == summary
        assert out.read_text() == render_json(rows, summary, cfg)
        doc = json.loads(out.read_text())
        assert doc["summary"]["total"] == summary["total"]
        assert len(doc["rows"]) == len(rows)
        first = doc["rows"][0]
        assert first["prediction"]["n"] == 3
        assert first["oracle"]["secant_dim"] == rows[0].oracle.secant_dim

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(n_range=(2, 4))
        with pytest.raises(ValueError):
            small_config(l_range=(1, 3))
        with pytest.raises(ValueError):
            small_config(families=("mystery",))
        with pytest.raises(ValueError):
            small_config(workers=0)

    @pytest.mark.parametrize("families,r_max", [
        (("general",), 4), (("general",), 9), (workbench.SWEEP_FAMILIES, 3),
        (("linear_factor", "balanced", "reducible_forms"), 4), (("n3",), 5)])
    def test_cell_cap_counts_the_cells_exactly(self, monkeypatch, families, r_max):
        """The count the cap is checked against is the number of cells the
        sweep runs: a cap of exactly that many admits the grid, one less
        makes SweepConfig refuse it."""
        grid = dict(n_range=(3, 5), l_range=(2, 4), d_max=9, r_max=r_max,
                    families=families, predictor_only=True)
        cells = len(sweep(small_config(**grid))[0])
        monkeypatch.setattr(workbench, "MAX_SWEEP_CELLS", cells)
        assert len(sweep(small_config(**grid))[0]) == cells
        monkeypatch.setattr(workbench, "MAX_SWEEP_CELLS", cells - 1)
        with pytest.raises(ValueError, match=f"more than {cells - 1} cells"):
            small_config(**grid)

    def test_g_check_bound_lands_in_summary(self):
        cfg = small_config(predictor_only=True, g_check_bound=8)
        _, summary = sweep(cfg)
        g = summary["g_check"]
        assert g["region_cells"] == g["implication_holds"]
        assert g["failures"] == []


def test_proven_disagreement_is_an_error_state(monkeypatch):
    """An oracle one above the prediction makes verify_case file a proven
    cell as an error and a conjectural cell as a finding."""
    real = workbench.oracle_run

    def one_too_many(inst, cfg):
        run = real(inst, cfg)
        return dataclasses.replace(run, secant_dim=run.secant_dim + 1)

    monkeypatch.setattr(workbench, "oracle_run", one_too_many)
    proven = verify_case(ProblemInstance(3, 2, "9,7,2"), FAST_ORACLE)
    assert proven.prediction.status == "proven"
    assert proven.agree is False
    assert proven.error.startswith("proven-status disagreement")
    assert proven.finding is None
    conjectural = verify_case(ProblemInstance(4, 3, "3,2,2"), FAST_ORACLE)
    assert conjectural.prediction.status == "conjectural"
    assert conjectural.agree is False
    assert conjectural.error is None
    assert conjectural.finding.startswith("conjectural disagreement")


@pytest.fixture
def oracle_one_too_many(monkeypatch):
    """workbench.oracle_run returns the real run, one dimension too high."""
    real = workbench.oracle_run

    def one_too_many(inst, cfg):
        run = real(inst, cfg)
        return dataclasses.replace(run, secant_dim=run.secant_dim + 1)

    monkeypatch.setattr(workbench, "oracle_run", one_too_many)


def test_summary_files_each_disagreement_in_its_bucket(oracle_one_too_many):
    """A sweep's own summary counts a proven disagreement as an error and
    a conjectural one as a finding, each in its status bucket."""
    rows = [verify_case(ProblemInstance(3, 2, "9,7,2"), FAST_ORACLE),
            verify_case(ProblemInstance(4, 3, "3,2,2"), FAST_ORACLE)]
    summary = workbench._summarize(rows, small_config())
    assert summary["disagree"] == 2 and summary["agree"] == 0
    assert summary["proven_disagreements"] == 1
    assert summary["errors"] == [rows[0].error]
    assert summary["findings"] == [rows[1].finding]
    assert summary["by_status"]["proven"]["disagree"] == 1
    assert summary["by_status"]["conjectural"]["disagree"] == 1


def test_remark_region_scan_tallies_nonpositive_g_and_failures(monkeypatch):
    """With g = -1 on every cell and the implication failing on the first
    cell only, every cell is nonpositive and that one cell is listed."""
    cells = []

    def fake(n, l, part):
        cells.append((n, l, part))
        return Remark510Result(g=-1, implication_holds=len(cells) > 1)

    monkeypatch.setattr(workbench, "remark510_check", fake)
    got = remark_region_scan(8)
    n, l, part = cells[0]
    assert got["region_cells"] == len(cells) > 1
    assert got["g_positive"] == 0
    assert got["g_nonpositive"] == got["region_cells"]
    assert got["implication_holds"] == got["region_cells"] - 1
    assert got["failures"] == [{"n": n, "l": l, "s": part.s,
                                "d1": part.parts[0], "g": -1}]


def test_remark_region_scan_small_bound():
    got = remark_region_scan(8)
    assert got["failures"] == []
    assert got["region_cells"] == got["g_positive"] + got["g_nonpositive"]
    assert got["implication_holds"] == got["region_cells"]
    with pytest.raises(ValueError):
        remark_region_scan(2)


def test_remark_region_scan_refuses_past_its_limit():
    """Bound 100 would visit about 7.5 * 10^8 cells, hours of work: it is
    refused before the scan, as a sweep's g_check_bound is before the
    sweep; the benchmark's bound 12 still scans."""
    start = time.perf_counter()
    for bound in (workbench.MAX_G_CHECK_BOUND + 1, 100):
        with pytest.raises(ValueError, match="g-check bound"):
            remark_region_scan(bound)
        with pytest.raises(ValueError, match="g-check bound"):
            small_config(predictor_only=True, g_check_bound=bound)
    assert time.perf_counter() - start < 1.0
    assert remark_region_scan(12)["region_cells"] == 7136


def _sweep_command_digests(argv, out, capsys):
    """Run the sweep command in process, writing to out: the sha256 of the
    report file and of the printed summary."""
    assert cli.main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(printed.encode()).hexdigest())


def test_full_predictor_sweep_matches_frozen_digests(tmp_path, capsys):
    """The predictor-only sweep of every family over n 3-12, l 2-8, d <= 12
    and the remark scan at bound 12, frozen before a sweep built each
    partition once per sweep instead of once per cell.  The sweep command's
    JSON report of the same grid, which also pins the family rows' errata,
    and its printed summary were frozen before the command took over
    writing the report from sweep()."""
    cfg = SweepConfig(n_range=(3, 12), l_range=(2, 8), d_max=12, r_max=4,
                      families=workbench.SWEEP_FAMILIES, predictor_only=True,
                      workers=1)
    rows, _ = sweep(cfg)
    assert len(rows) == 11972
    assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == (
        "93d3cf8ebf67bde404a080ff83b672b7694f52deaf228ff83182b416a8543905")
    scan = json.dumps(remark_region_scan(12), sort_keys=True)
    assert hashlib.sha256(scan.encode()).hexdigest() == (
        "17e523c443a67bbd999f8ca7f4743e57efad8c841f34f72b74ff40a5f436e0d4")
    argv = ["sweep", "--n-range", "3:12", "--l-range", "2:8", "--d-max", "12",
            "--families", *workbench.SWEEP_FAMILIES, "--predictor-only",
            "--workers", "1", "--g-check-bound", "12", "--format", "json"]
    assert _sweep_command_digests(argv, tmp_path / "predict.json", capsys) == (
        "0b4193b6ab0c5d3fbaf346120fcb12288aa588a32782261370d5035f823f434a",
        "66d3058cc68efd1c07719c77c203a8cbd1850c7cfd48fa6c899e8a0f307bc400")


@pytest.mark.parametrize("fmt,file_digest", [
    ("csv", "928433c2f93928752662b6d69507beac0174054e78c9721e8ae15aa412e3d1b3"),
    ("json", "9e6a0e7fe1f0ee691106912a2c1ca90186ef5e826d0e62461493ca32f5821146"),
])
def test_mixed_outcome_sweep_command_matches_frozen_digests(tmp_path, capsys,
                                                            fmt, file_digest):
    """An oracle sweep of 48 cells, 34 agreeing and 14 refused by the column
    guard, in proven and conjectural buckets: its report file and printed
    summary, frozen before each outcome was counted only in its bucket.
    The summary printed is the same for both formats."""
    argv = ["sweep", "--n-range", "3:4", "--l-range", "2:3", "--d-max", "5",
            "--max-columns", "30", "--trials", "1", "--workers", "1",
            "--g-check-bound", "6", "--format", fmt]
    assert _sweep_command_digests(argv, tmp_path / f"mixed.{fmt}", capsys) == (
        file_digest,
        "824ec6deb56561e854cdd2255e63821acec5a06a24d21cd0f43e30be37718b2f")


@pytest.mark.parametrize("drift", ["extra", "missing"])
def test_render_csv_refuses_records_off_the_columns(monkeypatch, drift):
    """render_csv writes values by position, so a record with a key added
    or dropped must raise rather than shift the columns."""
    rows, _ = sweep(small_config(d_max=3, predictor_only=True))
    real = SweepRow.csv_record

    def drifted(row):
        record = real(row)
        if drift == "extra":
            record["runtime_ms"] = 1
        else:
            del record["finding"]
        return record

    monkeypatch.setattr(SweepRow, "csv_record", drifted)
    with pytest.raises(ValueError, match="CSV record keys"):
        render_csv(rows)


def test_sweeps_share_no_partition_memo(monkeypatch):
    """Each sweep enumerates its shape lists itself, once per (family, d):
    a second sweep of the same config is not answered from the first."""
    calls = []
    real = workbench.enumerate_partitions
    monkeypatch.setattr(workbench, "enumerate_partitions",
                        lambda *args: calls.append(args) or real(*args))
    cfg = small_config(n_range=(3, 5), l_range=(2, 4), d_max=6,
                       families=workbench.SWEEP_FAMILIES, predictor_only=True)
    first = render_csv(sweep(cfg)[0])
    per_sweep = len(calls)
    second = render_csv(sweep(cfg)[0])
    # d = 2..6 once for "general" and once for the n3 cells at (3, 2)
    assert per_sweep == 10
    assert len(calls) == 2 * per_sweep
    assert first == second


def _counted(monkeypatch, module, name, calls):
    """Patch module.name to record its positional arguments in calls."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweep_predicts_each_instance_once(monkeypatch):
    """A predictor-only sweep of every family predicts each distinct (n, l,
    partition) once, in one verify_case call per row; the linear_factor
    and reducible_forms rows still run their own threshold checks."""
    predicted, verified, thresholds = [], [], []
    _counted(monkeypatch, workbench, "predict", predicted)
    _counted(monkeypatch, workbench, "verify_case", verified)
    _counted(monkeypatch, predictor, "threshold_l0", thresholds)
    cfg = small_config(n_range=(3, 5), l_range=(2, 4), d_max=6,
                       families=workbench.SWEEP_FAMILIES, predictor_only=True)
    rows, _ = sweep(cfg)
    assert len(rows) == len(verified) == 308
    distinct = {(r.prediction.instance,) for r in rows}
    assert len(predicted) == len(set(predicted)) == len(distinct)
    assert set(predicted) == distinct
    assert len(thresholds) == sum(r.family in ("linear_factor", "reducible_forms")
                                  for r in rows) > 0
    assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == (
        "844788e0ec13a80777bd51e5fd6ff10629c7cd5b3ddad6e5895c38909a70fdd4")


def test_sweeps_share_no_prediction(monkeypatch):
    """Each sweep predicts its instances itself: a second sweep of the same
    config is not answered from the first."""
    predicted = []
    _counted(monkeypatch, workbench, "predict", predicted)
    cfg = small_config(n_range=(3, 4), l_range=(2, 3), d_max=5,
                       families=workbench.SWEEP_FAMILIES, predictor_only=True)
    first = render_csv(sweep(cfg)[0])
    per_sweep = len(predicted)
    second = render_csv(sweep(cfg)[0])
    assert per_sweep > 0
    assert len(predicted) == 2 * per_sweep
    assert first == second


class TestCli:
    def test_predict_human_output(self, capsys):
        assert cli.main(["predict", "--n", "4", "--l", "3",
                         "--partition", "3,2,2"]) == 0
        out = capsys.readouterr().out
        assert "predicted = 113 (codim 6)" in out
        assert "status: conjectural" in out

    def test_predict_json_output(self, capsys):
        assert cli.main(["predict", "--n", "3", "--l", "2",
                         "--partition", "9,7,2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["predicted"] == 188 and doc["status"] == "proven"

    def test_series_variants(self, capsys):
        argv = ["series", "--n", "4", "--l", "3", "--partition", "3,2,2"]
        assert cli.main(argv + ["--truncate", "7"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            [1, 4, 10, 20, 32, 38, 30, 6]
        assert cli.main(argv + ["--truncate", "15", "--which", "artinian"]) == 0
        art = json.loads(capsys.readouterr().out)
        assert art[9] == 646 and art[15] == 8
        assert cli.main(argv + ["--truncate", "7", "--which", "numerator"]) == 0
        num = json.loads(capsys.readouterr().out)
        assert num[0] == 1
        assert cli.main(argv + ["--truncate", "7", "--which", "join"]) == 0
        join = json.loads(capsys.readouterr().out)
        assert join[:4] == [1, 4, 10, 20]

    def test_oracle_json(self, capsys):
        assert cli.main(["oracle", "--n", "3", "--l", "2", "--partition",
                         "2,2", "--trials", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 2
        assert doc["secant_dim"] == doc["max_rank"] - 1

    def test_oracle_full_hilbert(self, capsys):
        assert cli.main(["oracle", "--n", "4", "--l", "2", "--partition",
                         "2,1", "--trials", "1", "--full-hilbert"]) == 0
        assert "hilbert function:" in capsys.readouterr().out

    def test_oracle_full_hilbert_json_matches_frozen_digest(self, capsys):
        # Byte digest of the printed JSON (elimination path, key order
        # included), taken before the oracle's trial loops became one engine.
        assert cli.main(["oracle", "--n", "4", "--l", "2", "--partition", "3,1",
                         "--full-hilbert", "--json", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "58cae802eb70cf9e7d8d8533ec1318b603ebca337356ae27b8bdf992fd516834")

    def test_verify_agreement(self, capsys):
        assert cli.main(["verify", "--n", "6", "--l", "3", "--partition",
                         "2,1", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "agreement: yes" in out

    def test_sweep_writes_report(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        code = cli.main(["sweep", "--n-range", "3:3", "--l-range", "2:2",
                         "--d-max", "3", "--out", str(out),
                         "--trials", "1", "--workers", "1"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["disagree"] == 0
        assert out.read_text().startswith("family,n,l,partition,")

    def test_n3line(self, capsys):
        assert cli.main(["n3line", "--partition", "9,7,2"]) == 0
        out = capsys.readouterr().out
        assert "defective" in out and "defect = 1" in out

    def test_lfactor_and_redforms(self, capsys):
        assert cli.main(["lfactor", "--n", "6", "--l", "3", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "predicted = 54" in out and "threshold l0 = 4" in out
        assert cli.main(["redforms", "--n", "6", "--l", "2", "--d", "2"]) == 0
        assert "predicted = 17" in capsys.readouterr().out

    def test_segre(self, capsys):
        assert cli.main(["segre", "--n", "4", "--l", "3",
                         "--partition", "3,2,2"]) == 0
        assert "P^19 x P^9 x P^9" in capsys.readouterr().out

    def test_validation_failures_exit_2(self, capsys):
        assert cli.main(["predict", "--n", "2", "--l", "2",
                         "--partition", "1,1"]) == 2
        assert cli.main(["predict", "--n", "4", "--l", "2",
                         "--partition", "0,1"]) == 2
        assert cli.main(["sweep", "--n-range", "3-4", "--l-range", "2:2",
                         "--d-max", "3", "--out", "/tmp/x.csv"]) == 2
        # refused before any series is allocated
        assert cli.main(["series", "--n", "4", "--l", "2", "--partition", "2,1",
                         "--truncate", "1000000000000"]) == 2
        assert cli.main(["series", "--n", "100000000", "--l", "2", "--partition", "2,1",
                         "--truncate", "10000", "--which", "join"]) == 2
        # quick to expand, but too long to print: about 8.2 * 10^6 digits
        assert cli.main(["series", "--n", "4", "--l", "2000", "--partition", "3,2",
                         "--truncate", "10000", "--which", "join"]) == 2
        assert "the series would hold about 8167153 digits" in capsys.readouterr().err
        # and about 2.04 * 10^6 digits, just past the limit
        assert cli.main(["series", "--n", "4", "--l", "1000", "--partition", "3,2",
                         "--truncate", "10000", "--which", "join"]) == 2
        assert f"more than {cli.MAX_REPORT_DIGITS}" in capsys.readouterr().err
        # long binomials, but one pass of small-by-big products and about
        # 1.7 * 10^5 digits to print
        start = time.perf_counter()
        assert cli.main(["series", "--n", "100", "--l", "300", "--partition", "3,2",
                         "--truncate", "10000", "--which", "join"]) == 0
        assert time.perf_counter() - start < 5.0
        assert len(json.loads(capsys.readouterr().out)) == 10001
        # coefficients past the interpreter's 4300-digit limit for printing
        # an integer are refused by name; those below it print
        for which in ("join", "predicted"):
            assert cli.main(["series", "--n", "1000000000", "--l", "2",
                             "--partition", "2,1", "--truncate", "650",
                             "--which", which]) == 2
            err = capsys.readouterr().err
            assert "more than 4300 digits" in err and "--truncate" in err
            assert "sys.set_int_max_str_digits" not in err
            assert cli.main(["series", "--n", "1000000000", "--l", "2",
                             "--partition", "2,1", "--truncate", "600",
                             "--which", which]) == 0
            assert len(json.loads(capsys.readouterr().out)) == 601
        # and so are reports holding such a number (the ambient dimension)
        for extra in ([], ["--json"]):
            assert cli.main(["predict", "--n", "1000000000", "--l", "2",
                             "--partition", "649,1"] + extra) == 2
            err = capsys.readouterr().err
            assert "more than 4300 digits" in err
            assert "sys.set_int_max_str_digits" not in err
            assert cli.main(["predict", "--n", "1000000000", "--l", "2",
                             "--partition", "599,1"] + extra) == 0
            assert "predicted" in capsys.readouterr().out
        # a wide ring is fine through a short window
        assert cli.main(["series", "--n", "100000000", "--l", "2", "--partition", "2,1",
                         "--truncate", "3", "--which", "join"]) == 0
        # numerator 1 - 2t + ..., so the t coefficient is n - 2
        assert json.loads(capsys.readouterr().out)[1] == 100000000 - 2
        # and a high power through a short window
        assert cli.main(["series", "--n", "4", "--l", "300", "--partition", "3,2",
                         "--truncate", "100", "--which", "join"]) == 0
        # (1 - t^2)^300 (1 - t^3)^300 / (1-t)^4 = 1 + 4t + (10 - 300)t^2 + ...
        assert json.loads(capsys.readouterr().out)[:3] == [1, 4, -290]

    def test_g_check_bound_past_its_limit_exits_2(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        start = time.perf_counter()
        assert cli.main(["sweep", "--n-range", "3:3", "--l-range", "2:2",
                         "--d-max", "3", "--predictor-only", "--out", str(out),
                         "--g-check-bound", "100"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "g-check bound" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_sweep_grid_exits_2_before_building_cells(
            self, tmp_path, capsys, monkeypatch):
        """10^8 (n, l) pairs would be 10^8 cells, about 13 GB for the cell
        list alone: refused by count, before any cell is enumerated."""
        # enumerating any cell would raise TypeError out of cli.main
        monkeypatch.setattr(workbench, "_enumerate_cells", None)
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert cli.main(["sweep", "--n-range", "3:100000000", "--l-range", "2:2",
                         "--d-max", "2", "--predictor-only", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"more than {workbench.MAX_SWEEP_CELLS} cells" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_sweep_report_exits_2_before_any_cell(
            self, tmp_path, capsys, monkeypatch, out):
        """A report path in a missing directory, or a directory, is refused
        before the sweep starts, naming the path."""
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        out = str(tmp_path / out)
        assert cli.main(["sweep", "--n-range", "3:3", "--l-range", "2:2",
                         "--d-max", "3", "--predictor-only", "--workers", "1",
                         "--out", out]) == 2
        assert out in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_oversized_series_exit_2_on_every_subcommand(self, capsys):
        """predict, segre, verify, lfactor and redforms expand the series
        that `series` prints, through the same guard, before any oracle."""
        # (1 - t)^299996 (1 - t^20000)^300000 through degree 20001, whose
        # coefficients pass 10^5 bits (test_series.HUGE_POWER)
        wide = ["--n", "4", "--l", "300000", "--partition", "20000,1"]
        for argv in (["predict"] + wide, ["segre"] + wide, ["verify"] + wide,
                     ["lfactor", "--n", "4", "--l", "300000", "--d", "20001"],
                     ["redforms", "--n", "4", "--l", "300000", "--d", "20001"]):
            start = time.perf_counter()
            assert cli.main(argv) == 2
            assert time.perf_counter() - start < 1.0
            assert "would cost" in capsys.readouterr().err

    def test_high_power_with_a_linear_factor_runs(self, capsys):
        """(1 - t)^300 (1 - t^2000)^300 through degree 2001 is one pass of
        2,002 steps, which the estimate admits."""
        start = time.perf_counter()
        assert cli.main(["predict", "--n", "4", "--l", "300",
                         "--partition", "2000,1"]) == 0
        assert time.perf_counter() - start < 5.0
        assert "fills = yes" in capsys.readouterr().out

    def test_json_report_past_the_digit_limit_exits_2(self, capsys):
        """An a_seq of 16,442 integers of up to 1,900 digits is refused as
        JSON, by its size, before it is rendered; the text report, which
        prints none of it, still runs."""
        argv = ["predict", "--n", "1795", "--l", "315",
                "--partition", "5272,4102,5272,1795"]
        start = time.perf_counter()
        assert cli.main(argv + ["--json"]) == 2
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {cli.MAX_REPORT_DIGITS}" in captured.err
        digits = int(captured.err.split("about ")[1].split(" digits")[0])
        assert 31_000_000 < digits < 32_000_000
        assert cli.main(argv) == 0
        assert "predicted" in capsys.readouterr().out

    def test_report_numbers_past_the_print_limit_exit_2(self, capsys):
        # lfactor and redforms reach it once their threshold is a bisection
        for command in ("lfactor", "redforms"):
            assert cli.main([command, "--n", "1000000000", "--l", "2",
                             "--d", "650"]) == 2
            err = capsys.readouterr().err
            assert "more than 4300 digits" in err
            assert "sys.set_int_max_str_digits" not in err
        assert cli.main(["lfactor", "--n", "1000000000", "--l", "2",
                         "--d", "600"]) == 0
        assert "threshold l0 = 999999996" in capsys.readouterr().out

    def test_resource_guard_exits_4(self, capsys):
        assert cli.main(["oracle", "--n", "5", "--l", "4", "--partition",
                         "4,3", "--max-columns", "10"]) == 4
        assert "resource guard" in capsys.readouterr().err
        # [3, 1] points in 6 variables are sampled in the 4 their linear
        # factors leave, whose degree-4 piece has 35 columns
        assert cli.main(["oracle", "--n", "6", "--l", "2", "--partition",
                         "3,1", "--max-columns", "34"]) == 4
        assert "35 columns" in capsys.readouterr().err
        assert cli.main(["oracle", "--n", "6", "--l", "2", "--partition",
                         "3,1", "--max-columns", "35"]) == 0
        assert "columns=35" in capsys.readouterr().out
        # [4, 1] points in 20 variables leave one: one column, no quartic
        assert cli.main(["oracle", "--n", "20", "--l", "19", "--partition",
                         "4,1", "--max-columns", "1000"]) == 0
        assert "columns=1," in capsys.readouterr().out
        # the product of the degree-50 and degree-49 factors would gather
        # through a table of C(53, 3) x C(52, 3) entries
        assert cli.main(["oracle", "--n", "4", "--l", "2", "--partition",
                         "50,49,1"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("resource guard:") and "517714600 entries" in err

    def test_table_guard_exits_4_under_an_address_space_cap(self):
        """The degree-20 shadow table of [20, 20] in 5 variables has
        C(24, 4)^2 entries.  Under a 2 GiB address-space cap the command
        refuses it, exit 4, before anything of that size is allocated."""
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "redsecant.cli", "oracle", "--n", "5", "--l", "2",
             "--partition", "20,20", "--trials", "1"],
            env=env, preexec_fn=cap, capture_output=True, timeout=20)
        assert proc.returncode == 4, proc.stderr.decode(errors="replace")[-2000:]
        assert b"112911876 entries" in proc.stderr

    def test_verify_guard_exits_4(self, capsys):
        assert cli.main(["verify", "--n", "5", "--l", "4", "--partition",
                         "4,3", "--max-columns", "10"]) == 4
        assert "skipped" in capsys.readouterr().out

    def test_sweep_with_proven_disagreement_exits_3(self, capsys, tmp_path,
                                                    monkeypatch):
        def fake_sweep(cfg):
            return [], {"total": 1, "agree": 0, "disagree": 1, "skipped": 0,
                        "predictor_only": 0, "by_status": {},
                        "proven_disagreements": 1,
                        "errors": ["proven-status disagreement: fabricated"],
                        "findings": []}

        monkeypatch.setattr(cli, "sweep", fake_sweep)
        code = cli.main(["sweep", "--n-range", "3:3", "--l-range", "2:2",
                         "--d-max", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        capsys.readouterr()

    def test_sweep_exits_3_on_a_disagreement_it_finds(self, capsys, tmp_path,
                                                       oracle_one_too_many):
        """The real sweep and summary, with every oracle one too high."""
        code = cli.main(["sweep", "--n-range", "3:3", "--l-range", "2:2",
                         "--d-max", "3", "--workers", "1", "--trials", "1",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["proven_disagreements"] == len(summary["errors"]) >= 1

    def test_verify_prints_a_conjectural_disagreement_as_a_finding(
            self, capsys, oracle_one_too_many):
        assert cli.main(["verify", "--n", "4", "--l", "3", "--partition",
                         "3,2,2", "--trials", "1"]) == 0
        assert "finding: conjectural disagreement" in capsys.readouterr().out

    def test_sweep_range_with_a_non_integer_end_exits_2(self, capsys, tmp_path):
        assert cli.main(["sweep", "--n-range", "3:x", "--l-range", "2:2",
                         "--d-max", "3", "--out", str(tmp_path / "x.csv")]) == 2
        assert "range must look like A:B" in capsys.readouterr().err

    def test_proven_disagreement_exits_3(self, capsys, monkeypatch):
        real = verify_case

        def sabotaged(inst, cfg, family="general", predictor_only=False):
            row = real(inst, cfg, family, predictor_only)
            fake_oracle = dataclasses.replace(row.oracle, secant_dim=1)
            return dataclasses.replace(
                row, oracle=fake_oracle, agree=False,
                error="proven-status disagreement: fabricated for the test")

        monkeypatch.setattr(cli, "verify_case", sabotaged)
        code = cli.main(["verify", "--n", "6", "--l", "3", "--partition",
                         "2,1", "--trials", "1"])
        assert code == 3
        assert "disagreement" in capsys.readouterr().err


# Subcommands answered by the predictor and the series alone.  oracle,
# verify and sweep are left out: the oracle's column guard still admits
# bases of 250,000 columns, which take minutes and gigabytes before any
# byte guard stops them, and sweep starts worker processes.
_FUZZ_PARTS = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=10**6), max_size=6),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2000),
)


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(
        ["predict", "series", "segre", "lfactor", "redforms", "n3line"]))
    n = draw(st.integers(min_value=-1, max_value=10**9))
    l = draw(st.integers(min_value=-1, max_value=10**6))
    if command in ("lfactor", "redforms"):
        d = draw(st.integers(min_value=-1, max_value=10**6))
        return [command, f"--n={n}", f"--l={l}", f"--d={d}"]
    partition = ",".join(map(str, draw(_FUZZ_PARTS)))
    if command == "n3line":
        return [command, f"--partition={partition}"]
    argv = [command, f"--n={n}", f"--l={l}", f"--partition={partition}"]
    if command == "predict" and draw(st.booleans()):
        argv.append("--json")
    if command == "series":
        truncate = draw(st.integers(min_value=-1, max_value=10**9))
        which = draw(st.sampled_from(["numerator", "join", "artinian", "predicted"]))
        argv += [f"--truncate={truncate}", f"--which={which}"]
    return argv


_MANY_PARTS = ",".join(["3"] * 700 + ["2"] * 700 + ["1"] * 600)


class TestCliFuzz:
    @settings(max_examples=50, deadline=5000, derandomize=True)
    @given(_fuzz_argv())
    @example(["predict", "--n=1000000000", "--l=2", f"--partition={_MANY_PARTS}"])
    @example(["segre", "--n=1000000000", "--l=1000000", f"--partition={_MANY_PARTS}"])
    @example(["predict", "--n=5", "--l=1000000", f"--partition={_MANY_PARTS}"])
    def test_every_input_exits_0_or_2_in_good_time(self, argv):
        """Huge n, l and parts, and thousands of parts: each run ends in
        exit 0 or 2 within the deadline, and raises nothing."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        assert code in (0, 2), (code, err.getvalue())
        if code == 2:
            assert "sys.set_int_max_str_digits" not in err.getvalue()
