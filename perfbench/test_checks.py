"""The benchmark's own tests: every check accepts a right value and rejects
a deliberately wrong one, the independent references reproduce known
values, and the tracer leaves the library as it found it.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402


def rank_mod_p(rows, p: int) -> int:
    """Plain Gaussian elimination over Z/p on Python integers."""
    rows = [[int(v) % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestReferences(unittest.TestCase):
    def test_partitions(self):
        self.assertEqual(checks.partitions(7, 3, 3),
                         [(5, 1, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)])
        self.assertEqual(len(checks.partitions(10, 1, 10)), 42)

    def test_hilbert_target_worked_example(self):
        self.assertEqual(checks.hilbert_target(4, 3, (3, 2, 2), 7),
                         (1, 4, 10, 20, 32, 38, 30, 6))
        self.assertEqual(checks.hilbert_target(5, 3, (3, 2, 2), 15),
                         (1, 5, 15, 35, 67, 105, 135, 141, 108, 34, 0, 0, 0, 0, 0, 0))

    def test_expected_and_closed_forms(self):
        self.assertEqual(checks.expected_dim(4, 3, (3, 2, 2)), 113)
        self.assertEqual(checks.expected_dim(3, 2, (9, 7, 2)), 189)
        self.assertEqual(checks.linear_factor_dim(6, 3, 3), 54)
        self.assertEqual(checks.linear_factor_dim(5, 3, 5), 125)

    def test_p_max_is_the_largest_admitted_prime(self):
        from redsecant.oracle.modmat import P_LIMIT

        def prime(m):
            return m > 1 and all(m % q for q in range(2, int(m ** 0.5) + 1))

        self.assertTrue(prime(checks.P_MAX))
        self.assertLess(checks.P_MAX, P_LIMIT)
        self.assertFalse(any(prime(m) for m in range(checks.P_MAX + 1, P_LIMIT)))

    def test_low_rank_product_has_rank_k(self):
        from workloads import low_rank_product

        a = low_rank_product(12, 5, 1_000_003, np.random.default_rng(3))
        self.assertEqual(rank_mod_p(a.tolist(), 1_000_003), 5)


class TestChecksRejectWrongValues(unittest.TestCase):
    def assert_rejects(self, problems):
        self.assertTrue(problems, "a wrong value passed the check")

    def test_grid_cell(self):
        cell = (4, 3, (3, 2, 2))
        self.assertEqual(checks.check_grid_cell(cell, 113, 113, None, None), [])
        self.assert_rejects(checks.check_grid_cell(cell, 113, 112, None, None))
        self.assert_rejects(checks.check_grid_cell(cell, 120, 120, None, None))
        self.assert_rejects(checks.check_grid_cell(cell, 113, None, None, None))
        self.assert_rejects(checks.check_grid_cell(cell, 113, 113, "proven", None))

    def test_cover_and_csv(self):
        wanted = [(3, 2, (1, 1)), (3, 2, (2, 1))]
        self.assertEqual(checks.check_cover(wanted, wanted), [])
        self.assert_rejects(checks.check_cover(wanted[:1], wanted))
        self.assert_rejects(checks.check_cover(wanted + wanted[:1], wanted))
        self.assertEqual(checks.check_csv("h\na\nb\n", 2), [])
        self.assert_rejects(checks.check_csv("h\na\n", 2))

    def test_ladder_cell(self):
        parts = (3, 2, 2)
        levels = [(v, checks.hilbert_target(v, 3, parts, 7), None) for v in (6, 5, 4)]
        self.assertEqual(checks.check_ladder_cell(4, 3, parts, levels), [])
        bad = list(levels)
        h = list(bad[1][1])
        h[5] += 1
        bad[1] = (5, tuple(h), None)
        self.assert_rejects(checks.check_ladder_cell(4, 3, parts, bad))
        self.assert_rejects(checks.check_ladder_cell(4, 3, parts, levels[:2]))
        skipped = levels[:2] + [(4, None, "guard")]
        self.assert_rejects(checks.check_ladder_cell(4, 3, parts, skipped))
        swapped = [levels[1], levels[0], levels[2]]
        self.assert_rejects(checks.check_ladder_cell(4, 3, parts, swapped))

    def test_ladder_first_coefficients(self):
        # a Hilbert function that matched a wrong target would still be
        # caught by H(1): here the level claims 4 linear forms too many
        parts = (2, 1)
        good = [(v, checks.hilbert_target(v, 3, parts, 3), None) for v in (6, 5, 4)]
        self.assertEqual(checks.check_ladder_cell(4, 3, parts, good), [])
        self.assertEqual(good[0][1][:2], (1, 3))
        bad = [(6, (1, 6) + good[0][1][2:], None)] + good[1:]
        self.assert_rejects(checks.check_ladder_cell(4, 3, parts, bad))

    def test_wide(self):
        self.assertEqual(checks.check_proven(8, 4, (3, 3), "proven", 931, 931), [])
        self.assert_rejects(checks.check_proven(8, 4, (3, 3), "proven", 931, 930))
        self.assert_rejects(checks.check_proven(8, 4, (3, 3), "conjectural", 931, 931))
        self.assertEqual(checks.check_filling(6, 6, (5, 4), 2001), [])
        self.assert_rejects(checks.check_filling(6, 6, (5, 4), 2000))
        self.assertEqual(checks.check_rank(400, 400), [])
        self.assert_rejects(checks.check_rank(400, 401))

    def test_filling_set(self):
        region = ((3, 8), (2, 4), 6, 4)
        want = {(4, 2, (1, 1)), (4, 2, (2, 1)), (4, 2, (1, 1, 1)),
                (6, 3, (1, 1)), (8, 4, (1, 1))}
        self.assertEqual(checks.check_filling_set(want, *region), [])
        self.assert_rejects(checks.check_filling_set(want - {(6, 3, (1, 1))}, *region))
        self.assert_rejects(checks.check_filling_set(want | {(5, 2, (1, 1))}, *region))

    def test_quoted(self):
        right = {key: (dim, 1 if defect else 0, fills)
                 for key, (dim, defect, fills) in checks.QUOTED.items()}
        self.assertEqual(checks.check_quoted(right), [])
        for key in checks.QUOTED:
            wrong = dict(right)
            dim, defect, fills = wrong[key]
            wrong[key] = (dim + 1, defect, fills)
            self.assert_rejects(checks.check_quoted(wrong))
        wrong = dict(right)
        wrong[(3, 2, (9, 7, 2))] = (188, 2, False)
        self.assert_rejects(checks.check_quoted(wrong))
        wrong[(3, 2, (9, 7, 2))] = (188, 1, False)
        wrong[(5, 3, (4, 1))] = (125, 0, False)
        self.assert_rejects(checks.check_quoted(wrong))
        del wrong[(5, 3, (4, 1))]
        self.assert_rejects(checks.check_quoted(wrong))

    def test_linear_factor_and_plane_line(self):
        self.assertEqual(checks.check_linear_factor(6, 3, 3, 54, 54), [])
        self.assert_rejects(checks.check_linear_factor(6, 3, 3, 55, 55))
        self.assert_rejects(checks.check_linear_factor(6, 3, 3, 54, 53))
        self.assertEqual(checks.check_plane_line((9, 7, 2), 188, 1, 188, 1), [])
        self.assert_rejects(checks.check_plane_line((9, 7, 2), 188, 1, 188, 0))

    def test_remark_scan(self):
        size = checks.remark_region_size(12)
        good = {"failures": [], "region_cells": size, "implication_holds": size}
        self.assertEqual(checks.check_remark_scan(12, good), [])
        self.assert_rejects(checks.check_remark_scan(12, dict(good, failures=[{"n": 3}])))
        self.assert_rejects(checks.check_remark_scan(12, dict(good, implication_holds=size - 1)))
        self.assert_rejects(checks.check_remark_scan(12, dict(good, region_cells=size + 1)))


class TestHarness(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        self.assertEqual(layer, metrics.PER_LAYER)

    def test_tracer_restores_the_library(self):
        import redsecant as rs
        from tracer import Tracer

        before = (rs.predict, rs.workbench.predict, rs.oracle.modmat.matmul_mod,
                  rs.oracle.modmat.RankAccumulator.add_rows)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span():
                rs.oracle_run(rs.ProblemInstance(3, 2, (2, 1)),
                              rs.PrimeFieldConfig(trials=1, seed=1))
                rs.predict(rs.ProblemInstance(4, 3, (3, 2, 2)))
        finally:
            tracer.uninstall()
        after = (rs.predict, rs.workbench.predict, rs.oracle.modmat.matmul_mod,
                 rs.oracle.modmat.RankAccumulator.add_rows)
        self.assertEqual(before, after)
        summary = tracer.summary()
        self.assertEqual(summary["predictor.calls"], 1)
        self.assertEqual(summary["oracle.runs.oracle_run_calls"], 1)
        self.assertEqual(summary["oracle.runs.trials_used"], 1)
        self.assertGreater(summary["oracle.modmat.add_rows_calls"], 0)
        self.assertEqual(set(summary) | {"trace.overhead_s"}, set(metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
