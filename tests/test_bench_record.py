"""tools/bench_record.py against a stub runner: no process starts."""

import importlib.util
import json
import signal
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

METRICS = {"wall_s": "lower", "cells_per_s": "higher"}


def result_line(wall, cells):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "cells_per_s": {"value": cells, "unit": "cells/s"}}}


def describe(tree="abc"):
    return lambda checkout: {"commit": f"c-{checkout.name}",
                             "src_tree": f"s-{checkout.name}",
                             "perfbench_tree": tree, "clean": True}


class StubRunner:
    """Canned result lines by (checkout name, seed); records every call."""

    def __init__(self, lines):
        self.lines = lines
        self.calls = []

    def __call__(self, checkout, args):
        self.calls.append((checkout.name, list(args)))
        seed = int(args[args.index("--seed") + 1])
        return self.lines[checkout.name, seed]


CHECKOUTS = {"parent": Path("/x/parent"), "change": Path("/x/change")}


def test_pairs_alternate_and_metrics_are_summarized():
    walls = {"parent": [1.0, 1.2, 0.9, 1.1], "change": [0.5, 1.2, 0.6, 1.3]}
    cells = {"parent": [10, 8, 11, 9], "change": [20, 8, 17, 7]}
    seeds = [11, 12, 13, 14]
    runner = StubRunner({(side, seed): result_line(walls[side][i], cells[side][i])
                         for side in walls for i, seed in enumerate(seeds)})
    doc = bench_record.record(CHECKOUTS, ["ladder"], seeds, 20, METRICS,
                              run=runner, describe=describe())
    # one process per run, alternating which side goes first
    assert [name for name, _ in runner.calls] == [
        "parent", "change", "change", "parent"] * 2
    assert runner.calls[0][1] == ["--workload", "ladder", "--seed", "11",
                                  "--seconds", "20"]
    assert doc["seeds"] == seeds and doc["seconds"] == 20
    assert doc["sides"]["change"]["commit"] == "c-change"
    runs = doc["workloads"]["ladder"]["runs"]
    assert len(runs) == 8
    assert runs[2] == {"pair": 1, "seed": 12, "side": "change", "position": 0,
                       "result": result_line(1.2, 8)}
    wall = doc["workloads"]["ladder"]["metrics"]["wall_s"]
    assert wall["pairs_won"] == {"parent": 1, "change": 2}  # pair 1 is a tie
    assert wall["parent"]["median"] == pytest.approx(1.05)
    assert wall["change"]["median"] == pytest.approx(0.9)
    assert wall["parent"]["runs"] == 4
    # statistics.quantiles, exclusive method, on 0.9, 1.0, 1.1, 1.2
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((0.925, 1.175))
    assert wall["parent"]["iqr"] == pytest.approx(0.25)
    per_s = doc["workloads"]["ladder"]["metrics"]["cells_per_s"]
    assert per_s["better"] == "higher"
    assert per_s["pairs_won"] == {"parent": 1, "change": 2}
    json.dumps(doc)


def test_a_failed_run_drops_its_pair_from_the_wins_only():
    runner = StubRunner({("parent", 1): result_line(1.0, 10),
                         ("change", 1): {"error": "exit 3", "stderr": "boom"},
                         ("parent", 2): result_line(2.0, 10),
                         ("change", 2): result_line(1.0, 10)})
    doc = bench_record.record(CHECKOUTS, ["grid"], [1, 2], 5, METRICS,
                              run=runner, describe=describe())
    wall = doc["workloads"]["grid"]["metrics"]["wall_s"]
    assert wall["pairs_won"] == {"parent": 0, "change": 1}
    assert wall["parent"]["runs"] == 2 and wall["change"]["runs"] == 1
    assert doc["workloads"]["grid"]["runs"][1]["result"]["error"] == "exit 3"


def test_traced_runs_and_refused_checkouts():
    lines = {(side, seed): result_line(1.0, 10)
             for side in ("parent", "change") for seed in (1, 9)}
    runner = StubRunner(lines)
    doc = bench_record.record(CHECKOUTS, ["ladder", "grid"], [1], 5, METRICS,
                              trace_seed=9, run=runner, describe=describe())
    traced = [(name, args) for name, args in runner.calls if "--trace" in args]
    assert [name for name, _ in traced] == ["parent", "change"] * 2
    assert traced[0][1][-2:] == ["--trace", "1"]
    assert doc["workloads"]["grid"]["traced"]["seed"] == 9
    assert doc["workloads"]["grid"]["traced"]["change"] == result_line(1.0, 10)

    trees = iter(["abc", "abd"])
    with pytest.raises(ValueError, match="perfbench"):
        bench_record.record(CHECKOUTS, ["grid"], [1], 5, METRICS, run=runner,
                            describe=lambda c: describe(next(trees))(c))


def test_main_writes_the_file(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    runner = StubRunner({(side, 3): result_line(1.0 if side == "parent" else 0.5, 10)
                         for side in ("parent", "change")})
    monkeypatch.setattr(bench_record, "run_benchmark", runner)
    monkeypatch.setattr(bench_record, "describe_checkout", describe())
    out = tmp_path / "BENCH_t.json"
    assert bench_record.main(["--label", "t", "--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"),
                              "--workloads", "ladder", "--seeds", "3",
                              "--seconds", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "t"
    assert list(doc["workloads"]["ladder"]["metrics"]) == ["wall_s"]
    assert doc["workloads"]["ladder"]["metrics"]["wall_s"]["pairs_won"] == {
        "parent": 0, "change": 1}


class FakePopen:
    """Stands in for subprocess.Popen, so no process starts.  Every instance
    is kept in made.  The first communicate calls fail(number), which may
    raise, and returns a result line; a later one, as after a kill, returns
    no output and the stderr read before it."""

    made: list = []
    fail = staticmethod(lambda number: None)

    def __init__(self, cmd, cwd, **kwargs):
        assert kwargs["start_new_session"]
        self.side = Path(cwd).name
        self.number = len(FakePopen.made)
        self.pid = 4000 + self.number
        self.timeouts = []
        self.returncode = None
        FakePopen.made.append(self)

    def communicate(self, timeout=None):
        self.timeouts.append(timeout)
        if len(self.timeouts) > 1:
            self.returncode = -signal.SIGKILL
            return "", "still ranking"
        FakePopen.fail(self.number)
        self.returncode = 0
        wall = 1.0 if self.side == "parent" else 0.5
        return "log line\n" + json.dumps(result_line(wall, 10)) + "\n", ""


@pytest.fixture
def killed(monkeypatch):
    """Patches Popen with FakePopen and os.killpg with a list of its calls."""
    calls = []
    monkeypatch.setattr(FakePopen, "made", [])
    monkeypatch.setattr(bench_record.subprocess, "Popen", FakePopen)
    monkeypatch.setattr(bench_record.os, "killpg",
                        lambda pid, sig: calls.append((pid, sig)))
    return calls


def _overrun_second(number):
    if number == 1:
        raise subprocess.TimeoutExpired("perfbench/run.py", bench_record.RUN_TIMEOUT_S)


def _ctrl_c(number):
    raise KeyboardInterrupt


def _sigterm(number):
    # the handler installed now, called as the signal would call it
    signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)


def test_a_run_that_times_out_is_recorded_as_an_error(killed, monkeypatch):
    """The second run overruns: its process group is killed and reaped, and
    every other pair is still measured and summarized."""
    monkeypatch.setattr(FakePopen, "fail", staticmethod(_overrun_second))
    calls = FakePopen.made
    assert bench_record.run_benchmark(Path("/x/parent"), ["--seed", "1"]) == \
        result_line(1.0, 10)
    assert bench_record.run_benchmark(Path("/x/change"), ["--seed", "1"]) == {
        "error": f"timeout after {bench_record.RUN_TIMEOUT_S} s",
        "stderr": "still ranking"}
    assert [(p.side, p.timeouts) for p in calls] == [
        ("parent", [bench_record.RUN_TIMEOUT_S]),
        ("change", [bench_record.RUN_TIMEOUT_S, None])]
    assert killed == [(calls[1].pid, signal.SIGKILL)]
    calls.clear()
    doc = bench_record.record(CHECKOUTS, ["ladder"], [1, 2, 3], 5, METRICS,
                              run=bench_record.run_benchmark, describe=describe())
    runs = doc["workloads"]["ladder"]["runs"]
    assert len(calls) == len(runs) == 6
    assert runs[1]["result"]["error"].startswith("timeout")
    wall = doc["workloads"]["ladder"]["metrics"]["wall_s"]
    assert wall["pairs_won"] == {"parent": 0, "change": 2}
    assert wall["parent"]["runs"] == 3 and wall["change"]["runs"] == 2


@pytest.mark.parametrize("interrupt, stopped",
                         [(_ctrl_c, KeyboardInterrupt), (_sigterm, SystemExit)])
def test_an_interrupted_recorder_kills_its_run_first(tmp_path, monkeypatch, killed,
                                                     interrupt, stopped):
    """Ctrl-C, or SIGTERM, which main turns into an exit while it records,
    comes while a run is measured: the run's process group is killed and
    reaped before the recorder stops, and main restores the SIGTERM handler."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    monkeypatch.setattr(bench_record, "describe_checkout", describe())
    monkeypatch.setattr(FakePopen, "fail", staticmethod(interrupt))
    before = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "BENCH_t.json"
    with pytest.raises(stopped) as info:
        bench_record.main(["--label", "t", "--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change"),
                           "--workloads", "grid", "--seeds", "1", "2",
                           "--seconds", "2", "--out", str(out)])
    if stopped is SystemExit:
        assert info.value.code == 128 + signal.SIGTERM
    (proc,) = FakePopen.made
    assert proc.timeouts == [bench_record.RUN_TIMEOUT_S, None]
    assert killed == [(proc.pid, signal.SIGKILL)]
    assert signal.getsignal(signal.SIGTERM) is before
    assert not out.exists()
