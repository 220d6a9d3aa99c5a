"""Names, units and better directions of every reported metric.

BENCHMARK.json at the repository root lists the same metrics;
test_checks.py keeps the two in step.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "cell_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "oracle.modmat.add_rows_calls": ("count", "lower"),
    "oracle.modmat.rows_fed": ("rows", "lower"),
    "oracle.modmat.pivots": ("rows", "higher"),
    "oracle.modmat.pivot_yield": ("ratio", "higher"),
    "oracle.modmat.add_rows_self_s": ("s", "lower"),
    "oracle.modmat.block_rows_max": ("rows", "higher"),
    "oracle.modmat.matmul_calls": ("count", "lower"),
    "oracle.modmat.matmul_s": ("s", "lower"),
    "oracle.modmat.matmul_gflop": ("GFLOP", "lower"),
    "oracle.modmat.matmul_mb": ("MB", "lower"),
    "oracle.modmat.matmul_gflops": ("GFLOP/s", "higher"),
    "oracle.runs.oracle_run_calls": ("count", "lower"),
    "oracle.runs.wlp_calls": ("count", "lower"),
    "oracle.runs.piece_rank_calls": ("count", "lower"),
    "oracle.runs.trials_used": ("count", "lower"),
    "oracle.runs.levels_executed": ("count", "lower"),
    "oracle.runs.levels_skipped": ("count", "lower"),
    "oracle.runs.self_s": ("s", "lower"),
    "oracle.forms.generator_calls": ("count", "lower"),
    "oracle.forms.eliminate_s": ("s", "lower"),
    "oracle.forms.self_s": ("s", "lower"),
    "oracle.monomials.rank_rows_calls": ("count", "lower"),
    "oracle.monomials.self_s": ("s", "lower"),
    "series.expand_calls": ("count", "lower"),
    "series.self_s": ("s", "lower"),
    "predictor.calls": ("count", "lower"),
    "predictor.self_s": ("s", "lower"),
    "combinatorics.self_s": ("s", "lower"),
    "workbench.cells": ("count", "higher"),
    "workbench.render_s": ("s", "lower"),
    "workbench.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
