"""One benchmark process: set up a workload, then run rounds of it.

Started by run.py in a fresh interpreter with single-threaded BLAS.  It
prints `ready <epoch seconds>` once redsecant is imported and the inputs
are generated (run.py turns that into setup_s), then, unless --setup-only,
one JSON line with the run's results.

Untraced (--trace 0): rounds run back to back for --seconds.
Traced (--trace 1): an untraced warm-up round fills the library's
lru_caches, then traced and untraced rounds alternate; the per-layer figures
come from the traced rounds (counts from the first, times as medians) and
the tracing overhead is the best traced minus the best untraced round.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import redsecant

    if Path(redsecant.__file__).resolve().parent != ROOT / "src" / "redsecant":
        raise ImportError(f"redsecant imported from {redsecant.__file__}, "
                          f"not from this checkout")


def round_seed(seed: int, index: int) -> int:
    """Oracle seed of round `index` in a run with --seed `seed`."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(0.9 * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload, inputs: dict, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.index = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def round(self, cell_ms: list, tracer=None) -> float:
        """Run and check one round; return its timed wall seconds."""
        seed = round_seed(self.seed, self.index)
        self.index += 1
        ops = self.inputs["ops"]
        self.attempted += ops
        if tracer is not None:
            tracer.clear()
            tracer.install()
        out = None
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.workload.run_round(self.inputs, seed, cell_ms)
            else:
                with tracer.span():
                    out = self.workload.run_round(self.inputs, seed, cell_ms)
        except Exception:  # the whole round counts as failed
            traceback.print_exc()
        finally:
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if out is None:
            self.failed += ops
            return wall
        failed, problems = self.workload.check(self.inputs, out)
        self.failed += failed
        self.problems += problems
        return wall


def run_rounds(seconds: float, step) -> None:
    """Call step() round after round while the next round, judged by the
    last one, still ends within `seconds`; always at least once."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        now = perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


def untraced(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics from each operation's best time over the rounds.

    Every round runs the same operations in the same order, so operation i
    has one time per round; its least time is the one least disturbed by
    other load on the machine.  wall_s is the sum of these best times plus
    the best time of the rest of the round (sweep bookkeeping, rendering,
    scans).  Plain per-round walls are reported on stderr next to it.
    """
    walls, op_ms, completed = [], [], []

    def step():
        cell_ms: list = []
        failed_before = runner.failed
        walls.append(runner.round(cell_ms))
        op_ms.append(cell_ms)
        completed.append(runner.inputs["ops"] - (runner.failed - failed_before))

    run_rounds(seconds, step)
    whole = [(w, ms) for w, ms in zip(walls, op_ms) if len(ms) == runner.inputs["ops"]]
    if not whole:
        raise RuntimeError("no round timed all of its operations")
    best_ms = [min(times) for times in zip(*(ms for _, ms in whole))]
    rest_s = min(w - sum(ms) / 1000 for w, ms in whole)
    wall_s = sum(best_ms) / 1000 + rest_s
    return {
        "wall_s": wall_s,
        "cells_per_s": statistics.mean(completed) / wall_s,
        "cell_p90_ms": p90(best_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_walls": [round(w, 4) for w in walls],
        "median_round_s": statistics.median(walls),
    }


def traced(runner: Runner, seconds: float, spans_path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    runner.round([])
    plain, traced_walls, summaries = [], [], []

    def step():
        traced_walls.append(runner.round([], tracer))
        summaries.append(tracer.summary())
        if spans_path and len(summaries) == 1:
            tracer.dump(spans_path)
        tracer.clear()
        plain.append(runner.round([]))

    run_rounds(seconds, step)
    out = dict(summaries[0])
    for key, value in out.items():
        if isinstance(value, float):
            out[key] = statistics.median(s[key] for s in summaries)
    out["trace.overhead_s"] = min(traced_walls) - min(plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the first traced round's spans here")
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    print(f"ready {time.time():.6f}", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workload, inputs, args.seed)
    if args.trace:
        metrics = traced(runner, args.seconds, args.spans)
    else:
        metrics = untraced(runner, args.seconds)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
