"""Benchmark entry point.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads: grid, ladder, wide, predict (see README.md).  Every run starts
fresh interpreters with one BLAS thread, so neither the library's
module-level caches nor a thread pool carry over between runs:

* --trace 0 first times SETUP_PROBES set-ups (interpreter start until
  redsecant is imported and the inputs exist), then runs the workload for
  --seconds and prints the end-to-end metrics;
* --trace 1 runs the workload under the span tracer and prints the
  per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the library sources next to this
directory, or when a process fails or overruns, it exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("grid", "ladder", "wide", "predict")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args: list, started: float) -> tuple[float, list[str]]:
    """Run worker.py to its end; return (setup seconds, later stdout lines)."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise RunFailed("no time left for another process")
    t0 = time.time()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"worker overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise RunFailed("worker never reported its set-up")
    return float(lines[0].split()[1]) - t0, lines[1:]


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(launch(common + ["--seconds", "0", "--setup-only"], started)[0])
    setup, lines = launch(common + ["--seconds", str(seconds), "--trace", str(trace)],
                          started)
    setups.append(setup)
    if not lines:
        raise RunFailed("worker printed no result")
    result = json.loads(lines[-1])
    raw = dict(result["metrics"], setup_s=statistics.median(setups))
    declared = PER_LAYER if trace else END_TO_END
    missing = set(declared) - set(raw)
    if missing:
        raise RunFailed(f"worker did not report {sorted(missing)}")
    extra = {k: v for k, v in raw.items() if k not in declared}
    print(f"[{workload} seed={seed} trace={trace}] {json.dumps(extra)}", file=sys.stderr)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": raw[name], "unit": unit}
                    for name, (unit, _) in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="redsecant benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "redsecant" / "__init__.py").is_file():
        print(f"no library sources at {ROOT / 'src' / 'redsecant'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RunFailed, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
