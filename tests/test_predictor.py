import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redsecant.combinatorics import (
    Partition,
    ProblemInstance,
    binom,
    dim_variety,
    enumerate_partitions,
)
from redsecant.predictor import (
    LINEAR_FACTOR_DIM_NOTE,
    alternating_binomial_sum,
    linear_factor_predict,
    long_formula_dim,
    n3_secant_line,
    predict,
    reducible_forms_predict,
    remark510_check,
    syz_dim,
    threshold_l0,
)


def P(n, l, parts):
    return ProblemInstance(n, l, Partition(parts))


def a_coeff(inst: ProblemInstance, j: int) -> int:
    """Closed-form reference for the coefficient a_j(l, n, lambda), which
    predict() reads off the series numerator^l / (1-t)^n instead.

    Six terms; under the zero-extended binomial convention the
    (r-1)*l*C(j,d) term contributes only at j = d, and the final two terms
    vanish whenever r >= 3 (2*d_2 - d and d_1 + d_2 - d are then negative
    enough).  a_j equals the predicted dim[A]_j while all earlier a_i are
    positive, A being the sum-of-tangent-ideals quotient.
    """
    n, l = inst.n, inst.l
    part = inst.partition
    d = part.d
    d1 = part.parts[0]
    d2 = part.parts[1]
    r = part.r
    s = part.s
    if j < 0 or j > d:
        raise ValueError(f"degree {j} out of range 0..{d}")
    total = binom(j + n - 1, n - 1)
    total -= l * sum(binom(j + di - d + n - 1, n - 1) for di in part.parts)
    total += (r - 1) * l * binom(j, d)
    total += sum(
        (-1) ** k * binom(l, k) * binom(j - k * s + n - 1, n - 1)
        for k in range(2, l + 1)
    )
    total += binom(l, 2) * binom(j + 2 * d2 - 2 * d + n - 1, n - 1)
    total += l * (l - 1) * binom(j + d1 + d2 - 2 * d + n - 1, n - 1)
    return total


def _grid():
    """Every cell with 3 <= n <= 9, 2 <= l <= 6, 2 <= d <= 11, every
    partition with at least two parts: 6405 instances."""
    return [ProblemInstance(n, l, part)
            for n in range(3, 10) for l in range(2, 7) for d in range(2, 12)
            for part in enumerate_partitions(d, 2, d)]


class TestACoefficients:
    def test_worked_six_variable_case(self):
        inst = P(4, 3, [3, 2, 2])
        a_seq = predict(inst).a_seq
        assert (a_coeff(inst, 0), a_coeff(inst, 4), a_coeff(inst, 7)) == (1, 32, 6)
        assert (a_seq[0], a_seq[4], a_seq[7]) == (1, 32, 6)

    def test_out_of_range_raises(self):
        inst = P(4, 3, [3, 2, 2])
        with pytest.raises(ValueError):
            a_coeff(inst, -1)
        with pytest.raises(ValueError):
            a_coeff(inst, 8)
        assert len(predict(inst).a_seq) == inst.partition.d + 1

    def test_series_matches_closed_form_on_the_grid(self):
        for inst in _grid():
            a_seq = predict(inst).a_seq
            want = tuple(a_coeff(inst, j) for j in range(inst.partition.d + 1))
            assert a_seq == want, inst

    def test_predict_json_matches_frozen_digest(self):
        """Frozen from the closed-form a_coeff predictor; covers a_seq,
        which the sweep CSV digests do not see."""
        blob = json.dumps([predict(inst).to_json() for inst in _grid()])
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "fd5ba21e1349c1fc8a00d3b72486e0ef13260ea074be773896a5acd12a2d4b25")

    def test_head_coefficient_closed_form(self):
        """Below degree s only the first two terms survive, and at j = s
        the count collapses to C(s+n-1, n-1) - t*l."""
        for n in (3, 4, 5, 6):
            for l in (2, 3, 4):
                for parts in ([3, 2, 2], [4, 1], [2, 2, 1], [5, 3, 2], [2, 2, 2, 1]):
                    inst = P(n, l, parts)
                    part = inst.partition
                    want = binom(part.s + n - 1, n - 1) - part.t * l
                    assert a_coeff(inst, part.s) == want
                    assert predict(inst).a_seq[part.s] == want

    def test_positive_below_s(self):
        for n in (3, 4, 5):
            for l in (2, 3):
                inst = P(n, l, [4, 3, 2])
                a_seq = predict(inst).a_seq
                for j in range(inst.partition.s):
                    assert a_coeff(inst, j) > 0
                    assert a_seq[j] > 0


def test_syz_dim_values():
    # l=2 has no alternating tail beyond k=2: one syzygy block
    assert syz_dim(3, 2, 9, 18) == binom(2, 2) == 1
    assert syz_dim(6, 3, 1, 3) == 3 * binom(6, 5) - binom(5, 5) == 17
    for n, l, s, d in ((3, 2, 4, 9), (4, 3, 2, 7), (5, 4, 3, 8)):
        assert syz_dim(n, l, s, d) >= 0


class TestGouldIdentity:
    def test_hand_checked_instance(self):
        # l=4, n=3, s=1, d=4: 15 - 40 + 36 - 12 + 1
        assert binom(6, 2) == 15 and 4 * binom(5, 2) == 40
        assert 6 * binom(4, 2) == 36 and 4 * binom(3, 2) == 12
        assert alternating_binomial_sum(4, 3, 1, 4) == 0

    def test_randomized_admissible_instances(self):
        import random
        rng = random.Random(20260822)
        seen = 0
        while seen < 100:
            n = rng.randint(3, 10)
            l = rng.randint(n, 14)
            s = rng.randint(1, 6)
            d = rng.randint(l * s - n + 1, l * s + 20)
            if l <= n - 1 or d - l * s + n - 1 < 0:
                continue
            assert alternating_binomial_sum(l, n, s, d) == 0, (l, n, s, d)
            seen += 1

    def test_nonvanishing_inside_the_window(self):
        # l <= n-1 is outside the identity's hypotheses
        assert alternating_binomial_sum(2, 4, 1, 3) != 0

    def test_sum_stopped_at_d_over_s_equals_the_full_sum(self):
        """Terms with k*s > d vanish, so stopping at min(l, d // s) keeps
        the value; the reference runs over every k = 0..l."""
        import random
        rng = random.Random(20261019)
        for _ in range(300):
            n = rng.randint(1, 12)
            s = rng.randint(1, 6)
            d = rng.randint(-3, 40)
            l = rng.randint(max(0, d // s + 1), d // s + 30)
            full = sum((-1) ** k * binom(l, k) * binom(d - k * s + n - 1, n - 1)
                       for k in range(l + 1))
            assert alternating_binomial_sum(l, n, s, d) == full, (l, n, s, d)


WORKED_CASES = [
    # (n, l, parts, predicted, defect, fills, status)
    (4, 3, [3, 2, 2], 113, 0, False, "conjectural"),
    (3, 2, [9, 7, 2], 188, 1, False, "proven"),
    (3, 2, [5, 2, 2, 1], 64, 1, False, "proven"),
    (3, 2, [7, 5, 1, 1], 118, 1, False, "proven"),
    (6, 3, [2, 1], 54, 1, False, "proven"),
    # nondefective with the parameter count landing exactly on the ambient
    # dimension, so it fills as well
    (3, 2, [2, 2, 2, 1], 35, 0, True, "proven"),
    (4, 2, [1, 1], 9, 0, True, "proven"),
    (4, 2, [2, 1], 19, 0, True, "proven"),
    (4, 2, [1, 1, 1], 19, 0, True, "proven"),
    (6, 2, [1, 1], 17, 3, False, "proven"),
]


@pytest.mark.parametrize("n,l,parts,dim,defect,fills,status", WORKED_CASES)
def test_predict_worked_cases(n, l, parts, dim, defect, fills, status):
    rep = predict(P(n, l, parts))
    assert rep.predicted_dim == dim
    assert rep.defect == defect
    assert rep.fills == fills
    assert rep.status == status


def test_predict_rejects_single_secant():
    with pytest.raises(ValueError):
        predict(P(3, 1, [2, 1]))


def test_report_fields_consistent():
    rep = predict(P(4, 3, [3, 2, 2]))
    inst = rep.instance
    assert rep.expected_dim == min(inst.N - 1, 3 * rep.dim_x + 2)
    assert rep.defect == rep.expected_dim - rep.predicted_dim
    assert rep.a_seq[0] == 1
    assert rep.first_nonpositive is None
    doc = rep.to_json()
    assert doc["predicted"] == 113 and doc["N"] == 120
    assert set(doc) == {"n", "l", "partition", "d", "r", "s", "N", "dimX",
                        "expected", "predicted", "fills", "defect", "epsilon",
                        "status", "citation", "a_seq", "errata"}


def test_both_dimension_paths_agree():
    """Off the filling locus, N-1-a_d must equal the direct alternating
    formula; predict() asserts this internally, so surviving a broad run
    is the test."""
    for n in (3, 4, 5, 6):
        for l in (2, 3, 4):
            for d in range(2, 9):
                for part in enumerate_partitions(d, 2, 4):
                    rep = predict(ProblemInstance(n, l, part))
                    if not rep.fills:
                        assert rep.predicted_dim == long_formula_dim(rep.instance)
                        assert rep.predicted_dim == rep.instance.N - 1 - rep.a_seq[-1]


def test_defect_nonnegative_everywhere():
    for n in (3, 4, 5, 6):
        for l in (2, 3, 4, 5):
            for d in range(2, 9):
                for part in enumerate_partitions(d, 2, 4):
                    rep = predict(ProblemInstance(n, l, part))
                    assert rep.defect >= 0
                    assert rep.predicted_dim <= rep.expected_dim


class TestStatusDispatch:
    def test_proper_intersection(self):
        rep = predict(P(8, 2, [3, 2]))
        assert rep.status == "proven"
        assert rep.citation == "proper intersection (2l <= n)"

    def test_two_factors_complete_intersection_range(self):
        rep = predict(P(3, 2, [4, 3]))
        assert rep.status == "proven"
        assert rep.citation == "two factors, 2l <= n+1 (complete intersection range)"

    def test_two_factors_three_variables(self):
        rep = predict(P(3, 4, [4, 3]))
        assert rep.status == "proven"
        assert rep.citation == "two factors in three variables"

    def test_pair_of_linear_forms(self):
        rep = predict(P(5, 4, [1, 1]))
        assert rep.status == "proven"
        assert rep.citation == "pair of linear forms (d = 2)"

    def test_linear_factor_family(self):
        rep = predict(P(4, 3, [4, 1]))
        assert rep.status == "proven"
        assert rep.citation == "linear factor family [d-1,1]"

    def test_high_secant_window(self):
        rep = predict(P(3, 3, [6, 1, 1]))
        assert rep.status == "proven"
        assert rep.citation == "high secant window (r >= 3, n <= l <= 1+(d1+n-1)/s)"

    def test_many_secants_fill(self):
        rep = predict(P(4, 10, [2, 1, 1]))
        assert rep.status == "proven"
        assert rep.citation == "many secants fill (l >= C(s+n-1,n-1))"
        assert rep.fills

    def test_plane_secant_lines(self):
        rep = predict(P(3, 2, [3, 3, 2]))
        assert rep.status == "proven"
        assert rep.citation == "secant lines of plane curves (n = 3, l = 2)"

    def test_totally_split_plane_curves(self):
        rep = predict(P(3, 5, [1, 1, 1, 1]))
        assert rep.status == "proven"
        assert rep.citation == "totally split plane curves (n = 3, all parts 1)"

    def test_conjectural_fallback(self):
        rep = predict(P(4, 3, [3, 2, 2]))
        assert rep.status == "conjectural"
        assert rep.citation == ""


def test_filling_set_in_proper_range():
    """With 2l <= n the secant variety fills only on one finite list plus
    the diagonal family of linear pairs."""
    fills = set()
    for n in range(3, 13):
        for l in range(2, 7):
            if 2 * l > n:
                continue
            for d in range(2, 9):
                for part in enumerate_partitions(d, 2, 4):
                    rep = predict(ProblemInstance(n, l, part))
                    if rep.fills:
                        fills.add((n, l, part.parts))
    expected = {(4, 2, (1, 1)), (4, 2, (2, 1)), (4, 2, (1, 1, 1))}
    expected |= {(2 * l, l, (1, 1)) for l in range(3, 7)}
    assert fills == expected


def test_nondefective_branch_r3_small_head():
    # r >= 3 with d1 < s: the parameter count is exact
    for n, l, parts in ((7, 2, [1, 1, 1]), (8, 3, [2, 2, 2]), (9, 4, [1, 1, 1, 1])):
        rep = predict(P(n, l, parts))
        assert rep.defect == 0
        assert rep.predicted_dim == l * rep.dim_x + l - 1


def test_overly_fills_flag():
    rep = predict(P(3, 3, [1, 1]))
    assert rep.fills and rep.overly_fills
    # fills with parameter count exactly on the nose
    rep = predict(P(4, 2, [1, 1, 1]))
    assert rep.fills and rep.epsilon == 0 and not rep.overly_fills


class TestPlaneSecantLines:
    def test_two_factors_always_fill(self):
        res = n3_secant_line([6, 3])
        assert res.classification == "fills"
        assert res.defect == 0

    def test_exceptional_table_members_fill(self):
        for parts in ([4, 4, 1], [3, 2, 2], [5, 3, 2], [9, 3, 3],
                      [4, 4, 1, 1], [7, 1, 1, 1, 1]):
            res = n3_secant_line(parts)
            assert res.classification == "fills", parts
            assert res.exceptional

    def test_defective_family(self):
        res = n3_secant_line([9, 7, 2])
        assert res.classification == "defective"
        assert res.p == 7 * 2
        assert res.defect == 1
        assert res.dimension == 188

    def test_nondefective_family(self):
        # d1 < s and not exceptional
        res = n3_secant_line([3, 3, 3, 2])
        assert res.classification == "nondefective"
        assert res.defect == 0
        assert res.dimension == 2 * dim_variety(3, [3, 3, 3, 2]) + 1

    def test_agrees_with_predict_for_all_small_partitions(self):
        # labels are not comparable (a nondefective variety can land
        # exactly on the ambient dimension); dimension and defect are
        for d in range(2, 11):
            for part in enumerate_partitions(d, 2, d):
                line = n3_secant_line(part)
                rep = predict(ProblemInstance(3, 2, part))
                assert line.dimension == rep.predicted_dim, part
                assert line.defect == rep.defect, part
                if line.classification == "fills":
                    assert rep.fills, part


class TestThresholds:
    def test_balanced_quadric_pairs(self):
        for n in range(3, 8):
            assert threshold_l0("balanced", n, 2) == (n + 1) // 2

    def test_balanced_frozen_value(self):
        assert threshold_l0("balanced", 6, 6) == 5

    def test_linear_factor_frozen_values(self):
        assert threshold_l0("linear_factor", 5, 5) == 3
        assert threshold_l0("linear_factor", 6, 3) == 4

    def test_bisection_matches_the_scan(self):
        """The reference is the upward scan from l = ceil(n/2) that the
        bisection on u = n - l replaced."""
        def scan(n, d):
            l = (n + 1) // 2
            while binom(d - l + n - 1, d) > l * (n - l):
                l += 1
            return l

        for family, min_d in (("linear_factor", 3), ("reducible_forms", 2)):
            for n in range(3, 61):
                for d in range(min_d, 16):
                    assert threshold_l0(family, n, d) == scan(n, d), (family, n, d)

    def test_balanced_bisection_matches_the_scan(self):
        """The reference is the upward scan from l = ceil(n/2) that the
        bisection on [n/2, B/2] replaced."""
        def scan(n, d):
            big_b = binom(d // 2 + n - 1, n - 1)
            ambient_n = binom(d + n - 1, n - 1)
            l = (n + 1) // 2
            while ambient_n > 2 * l * big_b + l - 2 * l * l and 2 * l < big_b:
                l += 1
            return l

        for n in range(3, 41):
            for d in range(2, 13, 2):
                assert threshold_l0("balanced", n, d) == scan(n, d), (n, d)

    def test_wide_balanced_threshold_is_quick(self):
        # the scan stepped through all 41,295,770 values here
        start = time.perf_counter()
        assert threshold_l0("balanced", 30000, 4) == 41295770
        assert time.perf_counter() - start < 0.5

    def test_wide_thresholds_are_the_least_admissible_l(self):
        # the scan takes seconds here; l0 satisfies C(d-l+n-1, d) <= l(n-l)
        # and l0 - 1 does not
        for n, d in ((10**5, 650), (10**9, 650), (10**9, 3)):
            l0 = threshold_l0("linear_factor", n, d)
            assert binom(d - l0 + n - 1, d) <= l0 * (n - l0)
            assert binom(d - l0 + n, d) > (l0 - 1) * (n - l0 + 1)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            threshold_l0("no_such_family", 4, 4)
        with pytest.raises(ValueError):
            threshold_l0("linear_factor", 4, 2)

    def test_thresholds_actually_fill(self):
        for n, d in ((4, 4), (5, 5), (6, 3), (6, 4)):
            l0 = threshold_l0("linear_factor", n, d)
            assert linear_factor_predict(n, l0, d).fills
        for n, d in ((5, 4), (6, 6)):
            l0 = threshold_l0("balanced", n, d)
            rep = predict(P(n, l0, [d // 2, d // 2]))
            assert rep.fills


class TestLinearFactorFamily:
    def test_frozen_values(self):
        rep = linear_factor_predict(6, 3, 3)
        assert rep.predicted_dim == 54 and rep.defect == 1
        assert rep.status == "proven"
        rep = linear_factor_predict(5, 3, 5)
        assert rep.fills and rep.predicted_dim == 125
        assert binom(5 + 4, 4) - 1 == 125

    def test_carries_dimension_note(self):
        rep = linear_factor_predict(6, 3, 3)
        assert LINEAR_FACTOR_DIM_NOTE in rep.errata_notes

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_factor_predict(6, 3, 2)
        with pytest.raises(ValueError):
            linear_factor_predict(6, 1, 4)

    def test_matches_general_path_dimensionwise(self):
        for n in range(3, 9):
            for l in range(2, 7):
                for d in range(3, 9):
                    viaf = linear_factor_predict(n, l, d)
                    viag = predict(P(n, l, [d - 1, 1]))
                    assert viaf.predicted_dim == viag.predicted_dim, (n, l, d)
                    assert viaf.defect == viag.defect, (n, l, d)


class TestReducibleForms:
    def test_frozen_quadric_case(self):
        rep = reducible_forms_predict(6, 2, 2)
        assert rep.predicted_dim == 17
        assert rep.status == "proven"

    def test_routes_through_standin_partition(self):
        rep = reducible_forms_predict(5, 2, 6)
        assert rep.instance.partition == Partition([5, 1])
        rep = reducible_forms_predict(6, 2, 2)
        assert rep.instance.partition == Partition([1, 1])

    def test_large_l_proven_fills(self):
        n, d = 4, 4
        l0 = threshold_l0("reducible_forms", n, d)
        rep = reducible_forms_predict(n, l0, d)
        assert rep.fills and rep.status == "proven"

    def test_middle_window_is_conjectural(self):
        rep = reducible_forms_predict(5, 3, 6)
        assert rep.status == "conjectural"


def test_remark_check_frozen_case():
    res = remark510_check(3, 2, [9, 7, 2])
    assert res.g == 1
    assert res.implication_holds


def test_remark_check_requires_large_head():
    with pytest.raises(ValueError):
        remark510_check(4, 3, [2, 2, 2])


def test_remark_check_nonpositive_g_falls_back_to_the_count():
    # the smallest cell (lexicographically) where g goes nonpositive; the
    # implication then rests on the parameter count reaching the ambient
    # dimension, which it does here
    res = remark510_check(4, 29, [80] + [1] * 28)
    assert res.g == -36540
    assert res.implication_holds
