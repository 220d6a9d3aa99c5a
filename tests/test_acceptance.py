"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they print; without -s the per-test PASSED/FAILED markers carry the same
information.  Budgets are asserted inside the tests.  The heavy items are
criterion 4 (the full verification grid, swept on a process pool) and
criterion 8 (the Lefschetz ladder over that grid, in one process); on 2
CPUs they take about 8 s and 25 s.
"""

import dataclasses
import hashlib
import json
import random
import time

from redsecant.combinatorics import (
    Partition,
    ProblemInstance,
    binom,
    enumerate_partitions,
    partition_compare,
)
from redsecant.oracle import (
    PrimeFieldConfig,
    oracle_run,
    wlp_consequence_check,
)
from redsecant.predictor import (
    alternating_binomial_sum,
    linear_factor_predict,
    n3_secant_line,
    predict,
)
from redsecant.series import (
    artinian_bound,
    expand_rational,
    plus_truncate,
    predicted_hilbert,
    reducible_numerator,
    series_pow,
)
from redsecant.workbench import SweepConfig, remark_region_scan, sweep


def _verdict(num: int, text: str) -> None:
    print(f"\n[acceptance {num:02d}] PASS: {text}")


def test_criterion_01_worked_example_end_to_end():
    """Six-variable showcase: artinian series, both truncation steps,
    final Hilbert function, predictor, and oracle, in under ten seconds
    single-threaded."""
    start = time.perf_counter()
    part = Partition([3, 2, 2])
    num = series_pow(reducible_numerator(part), 3, artinian_bound(3, 7))

    art = expand_rational(num, 6, artinian_bound(3, 7))
    assert art.coeffs == (1, 6, 21, 56, 123, 228, 363, 504, 612, 646,
                          588, 456, 292, 144, 48, 8)

    step1 = predicted_hilbert(5, 3, part, 15)
    assert step1.coeffs == (1, 5, 15, 35, 67, 105, 135, 141, 108, 34,
                            0, 0, 0, 0, 0, 0)
    assert expand_rational(num, 5, 10).coeff(10) < 0  # truncation was real

    step2 = predicted_hilbert(4, 3, part)
    assert step2.coeffs == (1, 4, 10, 20, 32, 38, 30, 6)
    assert expand_rational(num, 4, 8).coeff(8) < 0

    rep = predict(ProblemInstance(4, 3, part))
    assert rep.predicted_dim == 113
    assert rep.instance.N - 1 - rep.predicted_dim == 6

    run = oracle_run(ProblemInstance(4, 3, part), PrimeFieldConfig(trials=2))
    assert run.secant_dim == 113 and run.codim == 6

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _verdict(1, f"artinian series, both truncations, dim 113 = oracle, "
                f"codim 6 in {elapsed:.2f}s")


def test_criterion_02_plane_hypersurface_worked_case():
    """[9,7,2] at two points in the plane: the four-variable expansion
    carries 634/635 and both dimension paths give 188."""
    part = Partition([9, 7, 2])
    num = series_pow(reducible_numerator(part), 2, 18)
    art = expand_rational(num, 4, 18)
    assert art.coeff(17) == 634
    assert art.coeff(18) == 635

    rep = predict(ProblemInstance(3, 2, part))
    assert rep.predicted_dim == 188 and rep.defect == 1
    assert rep.instance.N - 1 - rep.predicted_dim == 1

    run = oracle_run(ProblemInstance(3, 2, part), PrimeFieldConfig(trials=2))
    assert run.secant_dim == 188 and run.codim == 1
    _verdict(2, "h17=634, h18=635; predicted = oracle = 188, codim 1")


def test_criterion_03_filling_classification_proper_range():
    """Exhaustive 2l <= n scan: fills exactly on the finite list plus the
    diagonal pairs of linear forms; predictor-only, under 30 seconds."""
    start = time.perf_counter()
    fills = set()
    cells = 0
    for n in range(3, 13):
        for l in range(2, 7):
            if 2 * l > n:
                continue
            for d in range(2, 9):
                for part in enumerate_partitions(d, 2, 4):
                    cells += 1
                    if predict(ProblemInstance(n, l, part)).fills:
                        fills.add((n, l, part.parts))
    expected = {(4, 2, (1, 1)), (4, 2, (2, 1)), (4, 2, (1, 1, 1))}
    expected |= {(2 * l, l, (1, 1)) for l in range(3, 7)}
    assert fills == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(3, f"{cells} cells scanned, filling set exact ({len(fills)} "
                f"members) in {elapsed:.1f}s")


def test_criterion_04_oracle_equals_predictor_on_the_grid():
    """Full verification sweep n=3..6, l=2..5, d<=8, r<=4: the oracle and
    the predictor agree on every cell.  A mismatch is retried with
    trials=3; one that persists fails the test, listed first among the
    proven rows, then among the conjectural rows as findings."""
    start = time.perf_counter()
    cfg = SweepConfig(n_range=(3, 6), l_range=(2, 5), d_max=8, r_max=4,
                      oracle=PrimeFieldConfig(trials=2, seed=0))
    rows, summary = sweep(cfg)
    assert summary["total"] == len(rows) > 0
    assert summary["skipped"] == 0

    persistent = []
    for row in rows:
        if row.agree is False:
            inst = row.prediction.instance
            retry = oracle_run(inst, PrimeFieldConfig(trials=3, seed=1))
            if retry.secant_dim != row.prediction.predicted_dim:
                persistent.append((row, retry))
    proven_bad = [(r.prediction.instance, retry.secant_dim)
                  for r, retry in persistent if r.prediction.status == "proven"]
    assert proven_bad == [], f"proven-status disagreement: {proven_bad}"
    findings = [(str(r.prediction.instance), r.prediction.predicted_dim,
                 retry.secant_dim, retry.seed, retry.p)
                for r, retry in persistent]
    assert findings == [], f"conjectural disagreements (findings): {findings}"

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    proven = summary["by_status"].get("proven", {"total": 0})["total"]
    _verdict(4, f"{summary['total']} cells, 100% agreement "
                f"({proven} proven, {summary['total'] - proven} conjectural) "
                f"in {elapsed:.1f}s")


def test_criterion_05_gould_identity_randomized():
    """The alternating binomial sum vanishes on 100 randomized admissible
    tuples and on the hand-checked one."""
    assert binom(6, 2) - 4 * binom(5, 2) + 6 * binom(4, 2) \
        - 4 * binom(3, 2) + binom(2, 2) == 15 - 40 + 36 - 12 + 1 == 0
    assert alternating_binomial_sum(4, 3, 1, 4) == 0

    rng = random.Random(57345933)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 12)
        l = rng.randint(n, 18)
        s = rng.randint(1, 8)
        d = rng.randint(max(2, l * s - n + 1), l * s + 25)
        if l <= n - 1 or d - l * s + n - 1 < 0:
            continue
        assert alternating_binomial_sum(l, n, s, d) == 0, (l, n, s, d)
        checked += 1
    _verdict(5, "hand-checked (4,3,1,4) and 100 randomized tuples all sum to 0")


def test_criterion_06_plane_secant_line_table():
    """n3_secant_line agrees with predict for every partition of every
    d <= 10, and the three hypersurface cases have defect 1 at
    codimension 1, oracle-confirmed."""
    compared = 0
    for d in range(2, 11):
        for part in enumerate_partitions(d, 2, d):
            line = n3_secant_line(part)
            rep = predict(ProblemInstance(3, 2, part))
            assert line.dimension == rep.predicted_dim, part
            assert line.defect == rep.defect, part
            compared += 1

    cfg = PrimeFieldConfig(trials=2)
    for parts in ([9, 7, 2], [5, 2, 2, 1], [7, 5, 1, 1]):
        inst = ProblemInstance(3, 2, Partition(parts))
        rep = predict(inst)
        assert rep.defect == 1, parts
        assert inst.N - 1 - rep.predicted_dim == 1, parts
        run = oracle_run(inst, cfg)
        assert run.secant_dim == rep.predicted_dim, parts
        assert run.codim == 1, parts
    _verdict(6, f"{compared} partitions matched; [9,7,2], [5,2,2,1], "
                f"[7,5,1,1] defect 1 at codim 1, oracle-confirmed")


def test_criterion_07_linear_factor_family_cross_check():
    """[d-1,1] family: the dedicated formula, the general predictor, and
    the oracle agree for n <= 8, l <= 6, 3 <= d <= 8; the two quoted
    l = 3 instances come out exactly."""
    start = time.perf_counter()
    cfg = PrimeFieldConfig(trials=2, seed=0)
    cells = 0
    for n in range(3, 9):
        for l in range(2, 7):
            for d in range(3, 9):
                dedicated = linear_factor_predict(n, l, d)
                general = predict(ProblemInstance(n, l, Partition([d - 1, 1])))
                assert dedicated.predicted_dim == general.predicted_dim, (n, l, d)
                assert dedicated.defect == general.defect, (n, l, d)
                run = oracle_run(ProblemInstance(n, l, Partition([d - 1, 1])), cfg)
                assert run.secant_dim == dedicated.predicted_dim, (n, l, d)
                cells += 1

    fills = linear_factor_predict(5, 3, 5)
    assert fills.fills and fills.predicted_dim == binom(9, 4) - 1 == 125
    dim54 = linear_factor_predict(6, 3, 3)
    assert dim54.predicted_dim == 54
    elapsed = time.perf_counter() - start
    _verdict(7, f"{cells} cells: formula = predictor = oracle; (5,3,5) "
                f"fills, (6,3,3) dim 54; {elapsed:.1f}s")


def test_criterion_08_lefschetz_ladder_over_the_grid():
    """wlp_consequence_check over every criterion-4 cell with 2l > n at
    the documented 4000-column budget: no executed level mismatches.  A
    mismatch fails the test on any cell; those on proven cells are
    reported first, then those on conjectural cells, listed with their
    levels as findings.  The JSON of all 528
    results is frozen too, so the observed values, trials used and skip
    reasons cannot move; the digest was taken before blocks were
    sketched."""
    start = time.perf_counter()
    cfg = PrimeFieldConfig(trials=2, seed=0, max_columns=4000)
    cells = executed = skipped = 0
    findings = []
    results = []
    for n in range(3, 7):
        for l in range(2, 6):
            if 2 * l <= n:
                continue
            for d in range(2, 9):
                for part in enumerate_partitions(d, 2, 4):
                    inst = ProblemInstance(n, l, part)
                    res = wlp_consequence_check(inst, cfg)
                    results.append(res.to_json())
                    cells += 1
                    executed += sum(1 for lv in res.levels
                                    if not lv.skipped_reason)
                    skipped += sum(1 for lv in res.levels
                                   if lv.skipped_reason)
                    if not res.passed:
                        status = predict(inst).status
                        detail = (f"n={n} l={l} partition={part.text()} "
                                  f"status={status} p={cfg.p} seed={cfg.seed} "
                                  f"levels={[dataclasses.asdict(lv) for lv in res.levels]}")
                        findings.append((status, detail))
    proven_failures = [d for s, d in findings if s == "proven"]
    assert proven_failures == [], proven_failures
    conjectural = [d for s, d in findings if s != "proven"]
    assert conjectural == [], \
        f"findings (conjectural cells; a mismatch fails the test): {conjectural}"
    assert cells == 528
    doc = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "4cd90a75f5d66eb631ffdde698fd2cf5039f8c151b53a7eeed6583f6f3cf1894")

    elapsed = time.perf_counter() - start
    _verdict(8, f"{cells} cells, {executed} ladder levels executed, "
                f"{skipped} guard-skipped, 0 mismatches in {elapsed:.0f}s")


def test_criterion_09_defectivity_implication_region():
    """Region scan n, l, s <= 12 (n < l, 2s <= d1 < (n-1)(s-1)): the
    implication holds on every row, in under five minutes."""
    start = time.perf_counter()
    got = remark_region_scan(12)
    assert got["failures"] == []
    assert got["implication_holds"] == got["region_cells"] > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _verdict(9, f"{got['region_cells']} cells, {got['g_nonpositive']} with "
                f"g <= 0, implication holds everywhere in {elapsed:.1f}s "
                f"(the g <= 0 branch is pinned separately at n=4, l=29)")


def test_criterion_10_property_suites():
    """Deterministic spot runs of the five named property groups; the
    full randomized suites live in the module test files and run in the
    same pytest invocation."""
    # plus-truncation laws
    for coeffs in ((1, 3, -2, 5), (2, 0, 9), (1, 1, 1), (5, -1, -1)):
        once = plus_truncate(coeffs)
        assert plus_truncate(once).coeffs == once.coeffs
        neg = [j for j, c in enumerate(coeffs) if j > 0 and c <= 0]
        if neg:
            assert all(c == 0 for c in once.coeffs[neg[0]:])

    # dominance monotonicity of the variety dimension, d <= 10
    from redsecant.combinatorics import dim_variety
    for d in range(2, 11):
        parts = enumerate_partitions(d, 2, d)
        for i, lam1 in enumerate(parts):
            for lam2 in parts[i + 1:]:
                if partition_compare(lam1, lam2) == "greater":
                    assert dim_variety(4, lam1) > dim_variety(4, lam2)

    # r=2 numerator factorization
    from redsecant.series import SeriesNumerator
    for d in range(2, 13):
        for k in range(1, d // 2 + 1):
            split = SeriesNumerator([(0, 1), (k, -1)]).mul(
                SeriesNumerator([(0, 1), (d - k, -1)]))
            assert reducible_numerator([d - k, k]) == split

    # oracle semicontinuity and monotonicity in l
    one = oracle_run(ProblemInstance(4, 2, [3, 2]), PrimeFieldConfig(trials=1))
    three = oracle_run(ProblemInstance(4, 2, [3, 2]), PrimeFieldConfig(trials=3))
    assert one.max_rank <= three.max_rank <= binom(5 + 3, 3)
    dims = [oracle_run(ProblemInstance(4, l, [2, 2]),
                       PrimeFieldConfig(trials=1, seed=3)).secant_dim
            for l in (1, 2, 3)]
    assert dims == sorted(dims)

    # upper bounds: r=2 and the 2l = n+1 boundary
    cfg = PrimeFieldConfig(trials=2, seed=5)
    for n, l, parts in ((4, 3, [4, 2]), (3, 2, [5, 3]), (5, 3, [2, 2, 1]),
                        (3, 2, [3, 2, 1]), (4, 2, [6, 1])):
        run = oracle_run(ProblemInstance(n, l, Partition(parts)), cfg)
        rep = predict(ProblemInstance(n, l, Partition(parts)))
        assert run.secant_dim <= rep.predicted_dim, (n, l, parts)
    _verdict(10, "plus-truncation, dominance, r=2 factorization, "
                 "semicontinuity/monotonicity, upper bounds all hold")
