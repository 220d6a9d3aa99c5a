import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redsecant.combinatorics import (
    Partition,
    ProblemInstance,
    as_partition,
    binom,
    dim_variety,
    enumerate_partitions,
    expected_dim,
    partition_compare,
    segre_report,
)
from redsecant.predictor import predict


def test_binom_small_values():
    assert binom(4, 2) == 6
    assert binom(10, 0) == 1
    assert binom(10, 10) == 1
    assert binom(19, 2) == 171
    # zero-extension outside the triangle
    assert binom(3, 5) == 0
    assert binom(-1, 2) == 0
    assert binom(5, -1) == 0


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_binom_pascal_identity(a, b):
    if b <= a:
        assert binom(a, b) == binom(a - 1, b) + binom(a - 1, b - 1)


def test_binom_stays_exact_at_large_arguments():
    # no fixed-width arithmetic anywhere: this value needs >64 bits
    import math
    assert binom(300, 150) == math.comb(300, 150)
    assert binom(300, 150).bit_length() > 64


class TestPartition:
    def test_sorts_and_freezes(self):
        p = Partition([2, 3, 2])
        assert p.parts == (3, 2, 2)
        for name in ("parts", "d", "weight"):
            with pytest.raises(AttributeError):
                setattr(p, name, (1,))

    def test_from_text(self):
        assert Partition.from_text("3,2,2").parts == (3, 2, 2)
        assert Partition.from_text(" 2, 3 ,2 ") == Partition([3, 2, 2])
        # one dict key, however the parts were given
        assert {Partition([2, 3, 2]): "key"}[Partition.from_text("3,2,2")] == "key"
        with pytest.raises(ValueError):
            Partition.from_text("")
        with pytest.raises(ValueError):
            Partition.from_text("3,x")

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition([])

    def test_derived_quantities(self):
        p = Partition([3, 2, 2])
        assert (p.d, p.r, p.s, p.t) == (7, 3, 4, 1)
        q = Partition([2, 2, 2, 1])
        # three maximal parts
        assert (q.d, q.r, q.s, q.t) == (7, 4, 5, 3)

    def test_text_round_trip(self):
        p = Partition([9, 7, 2])
        assert Partition.from_text(p.text()) == p
        assert repr(p) == "Partition([9,7,2])"

    def test_pickles(self):
        # the sweep harness ships partitions to worker processes
        p = Partition([4, 3, 1])
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        assert (q.d, q.r, q.s, q.t) == (8, 3, 4, 1)


def test_as_partition_coercions():
    p = Partition([2, 1])
    assert as_partition(p) is p
    assert as_partition("2,1") == p
    assert as_partition([1, 2]) == p


def test_problem_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(2, 2, Partition([1, 1]))
    with pytest.raises(ValueError):
        ProblemInstance(3, 0, Partition([1, 1]))
    with pytest.raises(ValueError):
        ProblemInstance(3, 2, Partition([5]))
    inst = ProblemInstance(4, 3, "3,2,2")
    assert inst.partition == Partition([3, 2, 2])
    assert inst.N == binom(7 + 3, 3) == 120


def test_dim_variety_known_values():
    # sum of coefficient-space dimensions minus one per factor
    assert dim_variety(4, [3, 2, 2]) == 20 + 10 + 10 - 3 == 37
    assert dim_variety(3, [9, 7, 2]) == 55 + 36 + 6 - 3 == 94
    assert dim_variety(6, [2, 1]) == 21 + 6 - 2 == 25
    assert dim_variety(4, [1, 1]) == 4 + 4 - 2 == 6


def test_expected_dim_and_epsilon():
    got = expected_dim(ProblemInstance(4, 3, "3,2,2"))
    assert (got.expected, got.epsilon) == (113, 0)
    # parameter count overshoots the ambient space here
    got = expected_dim(ProblemInstance(3, 2, "1,1"))
    assert (got.expected, got.epsilon) == (5, 4)


class TestPartitionCompare:
    def test_basic_orderings(self):
        assert partition_compare([3, 1], [2, 2]) == "greater"
        assert partition_compare([2, 2], [3, 1]) == "less"
        assert partition_compare([2, 2], [2, 2]) == "equal"
        assert partition_compare([4, 1, 1], [3, 3]) == "incomparable"

    def test_mismatched_totals_raise(self):
        with pytest.raises(ValueError):
            partition_compare([2, 1], [2, 2])

    def test_extremes_dominate_everything(self):
        for d in range(2, 11):
            top = Partition([d - 1, 1])
            for lam in enumerate_partitions(d, 2, d):
                assert partition_compare(top, lam) in ("greater", "equal")
                spread = Partition([lam.parts[0]] + [1] * (d - lam.parts[0]))
                assert partition_compare(lam, spread) in ("greater", "equal")


def test_dim_variety_monotone_in_dominance():
    """Strict dominance between partitions of the same degree forces a
    strict inequality of variety dimensions, for every ambient size."""
    for n in (3, 4, 5):
        for d in range(2, 11):
            parts = enumerate_partitions(d, 2, d)
            for i, lam1 in enumerate(parts):
                for lam2 in parts[i + 1:]:
                    rel = partition_compare(lam1, lam2)
                    if rel == "greater":
                        assert dim_variety(n, lam1) > dim_variety(n, lam2)
                    elif rel == "less":
                        assert dim_variety(n, lam1) < dim_variety(n, lam2)


def test_dim_variety_sandwich():
    # everything strictly between the spread-out partition and [d-1,1]
    for n in (3, 4, 5):
        for d in range(3, 11):
            top = Partition([d - 1, 1])
            for lam in enumerate_partitions(d, 2, d):
                spread = Partition([lam.parts[0]] + [1] * (d - lam.parts[0]))
                if lam in (spread, top):
                    continue
                assert dim_variety(n, spread) < dim_variety(n, lam) < dim_variety(n, top)


class TestEnumeratePartitions:
    def test_documented_order(self):
        got = [p.parts for p in enumerate_partitions(7, 3, 3)]
        assert got == [(5, 1, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)]

    def test_counts_against_closed_forms(self):
        # partitions of d into exactly 2 parts: floor(d/2)
        for d in range(2, 20):
            assert len(enumerate_partitions(d, 2, 2)) == d // 2

    def test_range_edge_cases(self):
        assert enumerate_partitions(5, 4, 3) == []
        # r_max above d is harmless; d=2 has just the pair of linear forms
        assert [p.parts for p in enumerate_partitions(2, 2, 4)] == [(1, 1)]
        with pytest.raises(ValueError):
            enumerate_partitions(1, 2, 3)
        with pytest.raises(ValueError):
            enumerate_partitions(5, 1, 3)

    @given(st.integers(min_value=2, max_value=14))
    @settings(max_examples=13)
    def test_every_output_is_a_partition_of_d(self, d):
        for p in enumerate_partitions(d, 2, d):
            assert p.d == d
            assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))


def test_segre_report_reading():
    inst = ProblemInstance(4, 3, "3,2,2")
    rep = segre_report(4, inst.partition, 3, predict(inst))
    assert rep.factors == (20, 10, 10)
    assert rep.balanced
    # conjectural status blocks the implication even though nondefective
    assert not rep.nondefective_implied

    inst = ProblemInstance(6, 2, "1,1")
    rep = segre_report(6, inst.partition, 2, predict(inst))
    assert rep.factors == (6, 6)
    # proven and defective: no certificate either
    assert not rep.nondefective_implied


def test_segre_report_positive_case():
    # proven, nondefective, not overly filling: r >= 3 with d1 < s
    inst = ProblemInstance(7, 2, "1,1,1")
    rep = predict(inst)
    assert rep.status == "proven" and rep.defect == 0 and not rep.overly_fills
    assert segre_report(7, inst.partition, 2, rep).nondefective_implied
