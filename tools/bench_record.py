"""Record a benchmark comparison of two checkouts as BENCH_<label>.json.

    python3 tools/bench_record.py --label mine --parent ../parent --change . \
        --workloads ladder grid predict --seeds 1001 1002 1003 --seconds 20

Each checkout is a local copy of the repository (a `git worktree add` or
a `git clone` of the commit), and perfbench/run.py runs from inside it on
its own sources.  For every workload and seed the two sides make one
pair, run one after the other; the side that runs first alternates from
pair to pair, so drift in the machine's speed falls on both sides alike.
Runs are sequential: one benchmark process at a time.

The file holds both commits, with the git tree ids of their src/ and
perfbench/ directories, the command, the workloads and seeds, every
run's result line, and per workload and end-to-end metric each side's
median, quartiles and IQR, and the pairs each side won (ties count for
neither).  With --trace-seed, each side also makes one traced run per
workload, whose per-layer counters are stored as they are.  Checkouts
whose perfbench/ trees differ are refused: their numbers would not
compare.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def _stop(proc: subprocess.Popen) -> str:
    """Kill proc's process group, the run and its worker, and reap proc:
    the stderr it wrote before the kill."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the group has exited already
        pass
    return proc.communicate()[1] or ""


def run_benchmark(checkout: Path, args: Sequence[str]) -> dict:
    """One perfbench/run.py process in checkout: its result line, or the
    exit code and the end of its stderr when it printed none.  A run that
    overruns RUN_TIMEOUT_S is killed and recorded as an error too, so the
    pairs measured before it are kept.  The run starts in a session of its
    own, and a recorder that is interrupted or sent SIGTERM kills that
    session's process group before it exits, so no run outlives it."""
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", *args],
                            cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stderr = _stop(proc)
        return {"error": f"timeout after {RUN_TIMEOUT_S} s", "stderr": stderr[-2000:]}
    except BaseException:
        _stop(proc)
        raise
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}", "stderr": stderr[-2000:]}
    return json.loads(lines[-1])


def _exit_on_signal(signum, frame):
    """SIGTERM as SystemExit, so that run_benchmark stops its run first."""
    sys.exit(128 + signum)


def describe_checkout(checkout: Path) -> dict:
    """The commit of a checkout and the tree ids of its src/ and
    perfbench/ directories."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "perfbench_tree": git("rev-parse", "HEAD:perfbench"),
        "clean": git("status", "--porcelain", "--untracked-files=no") == "",
    }


def _spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric (name -> "lower" or "higher" is better): each side's
    spread over its good runs, and the pairs each side won among the pairs
    whose two runs are both good."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        if "metrics" in run["result"]:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    out = {}
    for name, better in metrics.items():
        values = {side: [m[side][name]["value"] for m in pairs.values() if side in m]
                  for side in SIDES}
        won = {side: 0 for side in SIDES}
        for m in pairs.values():
            if len(m) < 2:
                continue
            a, b = (m[side][name]["value"] for side in SIDES)
            if a != b:
                winner = (a < b) == (better == "lower")
                won[SIDES[0] if winner else SIDES[1]] += 1
        entry = {"better": better, "pairs_won": won}
        entry.update({side: _spread(v) for side, v in values.items() if v})
        out[name] = entry
    return out


def record(checkouts: dict[str, Path], workloads: Sequence[str], seeds: Sequence[int],
           seconds: int, metrics: dict[str, str], trace_seed: Optional[int] = None,
           run: Callable[[Path, Sequence[str]], dict] = run_benchmark,
           describe: Callable[[Path], dict] = describe_checkout) -> dict:
    """Run every pair and return the BENCH document."""
    sides = {side: describe(checkouts[side]) for side in SIDES}
    if sides["parent"]["perfbench_tree"] != sides["change"]["perfbench_tree"]:
        raise ValueError("the checkouts' perfbench/ trees differ")
    doc = {
        "sides": sides,
        "command": ["python3", "perfbench/run.py", "--workload", "<workload>",
                    "--seed", "<seed>", "--seconds", str(seconds)],
        "seconds": seconds,
        "seeds": list(seeds),
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds)]
                result = run(checkouts[side], args)
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "position": position, "result": result})
                wall = result.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: "
                      f"{result.get('error') or f'wall_s {wall}'}",
                      file=sys.stderr, flush=True)
        entry = {"runs": runs, "metrics": summarize(runs, metrics)}
        if trace_seed is not None:
            args = ["--workload", workload, "--seed", str(trace_seed),
                    "--seconds", str(seconds), "--trace", "1"]
            entry["traced"] = {"seed": trace_seed,
                               **{side: run(checkouts[side], args) for side in SIDES}}
        doc["workloads"][workload] = entry
    return doc


def end_to_end_metrics(benchmark: Path) -> dict[str, str]:
    """name -> which way is better, for the end-to-end metrics a
    BENCHMARK.json declares."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path,
                        help="where to write (default BENCH_<label>.json here)")
    args = parser.parse_args(argv)
    if args.seconds < 1 or min(args.seeds) < 0:
        parser.error("need --seconds >= 1 and seeds >= 0")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics(checkouts["parent"] / "BENCHMARK.json")
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        doc = record(checkouts, args.workloads, args.seeds, args.seconds, metrics,
                     args.trace_seed, run=run_benchmark, describe=describe_checkout)
    except (ValueError, subprocess.CalledProcessError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)
    doc = {"label": args.label, **doc}
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            medians = [f"{side} {m[side]['median']:.6g}" for side in SIDES if side in m]
            print(f"{workload:8s} {name:12s} {', '.join(medians)}, "
                  f"pairs won {m['pairs_won']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
