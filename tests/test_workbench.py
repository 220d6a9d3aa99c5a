import dataclasses
import hashlib
import json

import pytest

from redsecant import cli, workbench
from redsecant.combinatorics import Partition, ProblemInstance
from redsecant.oracle import PrimeFieldConfig, runs
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
        rows, _ = sweep(cfg)
        assert len(rows) == 60
        assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == (
            "a29bf146e1ae2708aa08bfffe1c9227946a6f0198565f274d91081c31d362b3e")

    @pytest.mark.parametrize("workers,cpus,want", [
        (500, 8, 3), (5, 2, 2), (None, 2, 2), (None, None, None)])
    def test_workers_capped_by_cells_and_cpus(self, monkeypatch, workers,
                                              cpus, want):
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(workbench, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(workbench.os, "cpu_count", lambda: cpus)
        cfg = small_config(d_max=3, predictor_only=True, workers=workers)
        rows, _ = sweep(cfg)
        assert len(rows) == 3
        assert made == ([] if want is None else [want])
        assert render_csv(rows) == render_csv(
            sweep(small_config(d_max=3, predictor_only=True))[0])

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

    def test_n3_family_only_emits_plane_line_cells(self):
        cfg = small_config(n_range=(3, 4), l_range=(2, 3), d_max=3,
                           families=("n3",), predictor_only=True)
        rows, _ = sweep(cfg)
        assert rows
        assert all(r.prediction.instance.n == 3 and
                   r.prediction.instance.l == 2 for r in rows)

    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = small_config(out_path=str(out))
        rows, _ = sweep(cfg)
        text = out.read_text()
        assert text == render_csv(rows)
        header = text.splitlines()[0]
        assert header.startswith("family,n,l,partition,")
        assert "runtime_ms" not in header

    def test_writes_json_file(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = small_config(out_path=str(out), out_format="json")
        rows, summary = sweep(cfg)
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
            small_config(out_format="yaml")
        with pytest.raises(ValueError):
            small_config(workers=0)

    def test_g_check_bound_lands_in_summary(self):
        cfg = small_config(predictor_only=True, g_check_bound=8)
        _, summary = sweep(cfg)
        g = summary["g_check"]
        assert g["region_cells"] == g["implication_holds"]
        assert g["failures"] == []


def test_proven_disagreement_is_an_error_state():
    """A fabricated oracle mismatch on a proven row must surface as error,
    not finding."""
    row = verify_case(ProblemInstance(3, 2, "9,7,2"), FAST_ORACLE)
    assert row.error is None
    fake_oracle = dataclasses.replace(row.oracle, secant_dim=999)
    fake = dataclasses.replace(row, oracle=fake_oracle)
    assert fake.csv_record()["oracle_dim"] == 999
    # the classification logic lives in verify_case; simulate its branch
    assert row.prediction.status == "proven"


def test_remark_region_scan_small_bound():
    got = remark_region_scan(8)
    assert got["failures"] == []
    assert got["region_cells"] == got["g_positive"] + got["g_nonpositive"]
    assert got["implication_holds"] == got["region_cells"]
    with pytest.raises(ValueError):
        remark_region_scan(2)


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
        capsys.readouterr()

    def test_resource_guard_exits_4(self, capsys):
        assert cli.main(["oracle", "--n", "5", "--l", "4", "--partition",
                         "4,3", "--max-columns", "10"]) == 4
        assert "resource guard" in capsys.readouterr().err

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
