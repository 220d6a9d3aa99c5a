import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redsecant.combinatorics import Partition, binom
from redsecant.series import (
    SeriesNumerator,
    TruncatedSeries,
    artinian_bound,
    expand_rational,
    plus_truncate,
    predicted_hilbert,
    reducible_numerator,
    series_pow,
)

# frozen targets for the worked 6-variable example: sigma_3 of the
# [3,2,2] arrangement variety
ARTINIAN_322 = (1, 6, 21, 56, 123, 228, 363, 504, 612, 646,
                588, 456, 292, 144, 48, 8)
HILBERT_322 = (1, 4, 10, 20, 32, 38, 30, 6)


def test_truncated_series_basics():
    s = TruncatedSeries((1, 2, 3))
    assert s.coeff(1) == 2
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(IndexError):
        s.coeff(7)


def test_numerator_one_minus_t_power():
    num = SeriesNumerator.one_minus_t_power(3)
    assert num.as_series(4).coeffs == (1, -3, 3, -1, 0)
    assert SeriesNumerator.one().as_series(2).coeffs == (1, 0, 0)


def test_expand_rational_geometric_series():
    # 1/(1-t)^n has the simplex counts as coefficients
    one = SeriesNumerator.one()
    for n in (1, 2, 5):
        got = expand_rational(one, n, 6)
        assert got.coeffs == tuple(binom(j + n - 1, n - 1) for j in range(7))


def test_expand_rational_inverts_the_denominator():
    num = reducible_numerator([3, 2, 2])
    for n in (3, 4, 6):
        expanded = expand_rational(num, n, 12)
        back = expanded.mul_numerator(SeriesNumerator.one_minus_t_power(n))
        assert back.coeffs == num.as_series(12).coeffs


def test_reducible_numerator_terms():
    # 1 - sum_i t^(d - d_i) + (r-1) t^d
    num = reducible_numerator([3, 2, 2])
    assert num.as_series(7).coeffs == (1, 0, 0, 0, -1, -2, 0, 2)
    pair = reducible_numerator([1, 1])
    assert pair.as_series(2).coeffs == (1, -2, 1)


def _one_minus_t_to_the(k: int) -> SeriesNumerator:
    return SeriesNumerator([(0, 1), (k, -1)])


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=40)
def test_two_factor_numerator_factors(d, data):
    """For r=2 the defining numerator splits as (1-t^k)(1-t^(d-k))."""
    k = data.draw(st.integers(min_value=1, max_value=d // 2))
    num = reducible_numerator([d - k, k])
    split = _one_minus_t_to_the(k).mul(_one_minus_t_to_the(d - k))
    assert num == split


def test_two_factor_numerator_factors_exhaustively():
    for d in range(2, 13):
        for k in range(1, d // 2 + 1):
            num = reducible_numerator([d - k, k])
            split = _one_minus_t_to_the(k).mul(_one_minus_t_to_the(d - k))
            assert num == split


def test_series_pow_matches_repeated_mul():
    num = reducible_numerator([2, 1])
    assert series_pow(num, 3, 9).as_series(9).coeffs == \
        num.mul(num).mul(num).as_series(9).coeffs
    assert series_pow(num, 1, 3).as_series(3).coeffs == num.as_series(3).coeffs


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 3)), max_size=5),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=60)
def test_series_pow_is_the_exact_power_cut_at_the_bound(pairs, l, bound):
    num = SeriesNumerator(pairs)
    exact = SeriesNumerator.one()
    for _ in range(l):
        exact = exact.mul(num)
    cut = SeriesNumerator((e, c) for e, c in exact.terms if e <= bound)
    assert series_pow(num, l, bound) == cut


def test_series_pow_validation():
    num = reducible_numerator([2, 1])
    with pytest.raises(ValueError):
        series_pow(num, -1, 4)
    with pytest.raises(ValueError):
        series_pow(num, 2, -1)


class TestPlusTruncate:
    def test_zeroes_from_first_nonpositive(self):
        got = plus_truncate(TruncatedSeries((1, 3, 0, 5, 2)))
        assert got.coeffs == (1, 3, 0, 0, 0)
        got = plus_truncate(TruncatedSeries((1, 3, -2, 5)))
        assert got.coeffs == (1, 3, 0, 0)

    def test_accepts_plain_sequences(self):
        assert plus_truncate([2, 1, -1]).coeffs == (2, 1, 0)

    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=1, max_size=20))
    def test_idempotent_and_dominated(self, coeffs):
        once = plus_truncate(coeffs)
        assert plus_truncate(once).coeffs == once.coeffs
        assert all(c <= abs(orig) for c, orig in zip(once.coeffs, coeffs))
        assert all(c >= 0 for c in once.coeffs[1:])

    @given(st.lists(st.integers(min_value=1, max_value=50),
                    min_size=1, max_size=20))
    def test_identity_on_positive_series(self, coeffs):
        assert plus_truncate(coeffs).coeffs == tuple(coeffs)


def test_artinian_bound():
    assert artinian_bound(3, 7) == 15
    assert artinian_bound(2, 2) == 0
    assert artinian_bound(2, 1) == 0


def test_artinian_expansion_is_a_polynomial():
    """numerator^l / (1-t)^(2l) terminates at degree l(d-2)."""
    for parts, l in (([3, 2, 2], 3), ([2, 1], 2), ([9, 7, 2], 2)):
        part = Partition(parts)
        bound = artinian_bound(l, part.d)
        num = series_pow(reducible_numerator(part), l, bound + 6)
        ext = expand_rational(num, 2 * l, bound + 6)
        assert all(c == 0 for c in ext.coeffs[bound + 1:])
        assert ext.coeffs[bound] != 0


def test_worked_example_artinian_coefficients():
    part = Partition([3, 2, 2])
    num = series_pow(reducible_numerator(part), 3, artinian_bound(3, 7))
    got = expand_rational(num, 6, artinian_bound(3, 7))
    assert got.coeffs == ARTINIAN_322


def test_worked_example_predicted_hilbert():
    got = predicted_hilbert(4, 3, [3, 2, 2])
    assert got.coeffs == HILBERT_322


def test_hypersurface_case_tail_values():
    # two points on the [9,7,2] arrangement variety in the plane: the
    # four-variable (2l) expansion carries the codimension-1 signal
    num = series_pow(reducible_numerator([9, 7, 2]), 2, 18)
    art = expand_rational(num, 4, 18)
    assert art.coeff(17) == 634
    assert art.coeff(18) == 635


def test_predicted_hilbert_honours_bound_argument():
    full = predicted_hilbert(4, 3, [3, 2, 2])
    short = predicted_hilbert(4, 3, [3, 2, 2], 4)
    assert short.coeffs == full.coeffs[:5]


def test_predicted_hilbert_rejects_tiny_n():
    with pytest.raises(ValueError):
        predicted_hilbert(2, 2, [1, 1])


def test_proper_range_expansion_needs_no_truncation():
    """With 2l <= n the raw rational expansion is already nonnegative
    through degree d, so plus-truncation is the identity there."""
    for n in range(3, 9):
        for l in (2, 3):
            if 2 * l > n:
                continue
            for parts in ([1, 1], [2, 1], [3, 2], [2, 2, 1], [4, 3],
                          [3, 3, 2], [5, 1, 1, 1]):
                part = Partition(parts)
                num = series_pow(reducible_numerator(part), l, part.d)
                raw = expand_rational(num, n, part.d)
                assert all(c >= 0 for c in raw.coeffs)
                assert plus_truncate(raw).coeffs == raw.coeffs
