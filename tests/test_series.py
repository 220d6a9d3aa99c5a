import pickle
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redsecant import series
from redsecant.combinatorics import Partition, ProblemInstance, binom
from redsecant.predictor import predict
from redsecant.series import (
    MAX_SERIES_COST,
    SeriesNumerator,
    TruncatedSeries,
    artinian_bound,
    expand_power,
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


def _mul_numerator(series: TruncatedSeries, num: SeriesNumerator) -> TruncatedSeries:
    """Reference: multiply a window by a sparse polynomial, keeping its bound."""
    out = [0] * (series.bound + 1)
    for e, c in num.terms:
        for j in range(series.bound + 1 - e):
            out[e + j] += c * series.coeffs[j]
    return TruncatedSeries(out)


def _one_minus_t_power(k: int) -> SeriesNumerator:
    """Reference: (1 - t)^k expanded with exact signs."""
    return SeriesNumerator((j, (-1) ** j * binom(k, j)) for j in range(k + 1))


def _convolved(num: SeriesNumerator, n: int, bound: int) -> TruncatedSeries:
    """Reference: num / (1-t)^n through the bound, by convolving num with the
    expansion of 1/(1-t)^n, whose j-th coefficient C(j+n-1, n-1) is computed
    once, from the one before (n = 0: num itself)."""
    if n == 0:
        return num.as_series(bound)
    binomials = [1] * (bound + 1)
    for j in range(1, bound + 1):
        binomials[j] = binomials[j - 1] * (j + n - 1) // j
    out = [0] * (bound + 1)
    for e, c in num.terms:
        if e <= bound:
            out[e:] = [o + c * b for o, b in zip(out[e:], binomials)]
    return TruncatedSeries(out)


def test_truncated_series_basics():
    s = TruncatedSeries((1, 2, 3))
    assert s.coeff(1) == 2
    with pytest.raises(IndexError):
        s.coeff(7)


@pytest.mark.parametrize("public, trusted, text", [
    (SeriesNumerator([(2, 1), (0, 1), (2, -1)]), SeriesNumerator._trusted(((0, 1),)),
     "SeriesNumerator([(0, 1)])"),
    (SeriesNumerator([(5, 2), (0, True)]), SeriesNumerator._trusted(((0, 1), (5, 2))),
     "SeriesNumerator([(0, 1), (5, 2)])"),
    (TruncatedSeries([1, 2]), TruncatedSeries._trusted((1, 2)), "TruncatedSeries([1, 2])"),
])
def test_constructor_and_trusted_build_one_frozen_value(public, trusted, text):
    assert public == trusted and hash(public) == hash(trusted)
    assert repr(public) == repr(trusted) == text
    assert pickle.loads(pickle.dumps(trusted)) == public
    field = "terms" if isinstance(public, SeriesNumerator) else "coeffs"
    for name in (field, "window"):
        with pytest.raises(AttributeError):
            setattr(public, name, ())


def test_numerator_one_minus_t_power():
    num = _one_minus_t_power(3)
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
        back = _mul_numerator(expanded, _one_minus_t_power(n))
        assert back.coeffs == num.as_series(12).coeffs


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(-4, 4)), max_size=5),
       st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=60)
@example([(2, 1), (3, -2), (6, 1)], 3, 10)  # zero constant term: v = 2
@example([(0, -3), (1, 2)], 4, 8)  # negative constant other than -1
@example([(0, 2), (5, -1)], 0, 9)  # n = 0: the numerator itself
@example([(0, 1), (2, -1), (9, 1)], 2, 5)  # a term past the bound
@example([(7, 3)], 3, 4)  # every term past the bound
@example([], 3, 5)  # the zero polynomial
def test_expand_rational_matches_the_convolution(pairs, n, bound):
    num = SeriesNumerator(pairs)
    assert expand_rational(num, n, bound) == _convolved(num, n, bound)


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
@example([(2, 1), (3, -2), (5, 1)], 3, 14)  # zero constant term: v = 2
@example([(0, -2), (1, 3)], 5, 7)  # negative constant other than -1
@example([(1, 2), (4, -1)], 0, 5)  # l = 0
@example([], 3, 10)  # the zero polynomial
@example([(3, 1), (4, 1)], 4, 11)  # v*l = 12 is past the bound
def test_series_pow_is_the_exact_power_cut_at_the_bound(pairs, l, bound):
    num = SeriesNumerator(pairs)
    cut = SeriesNumerator((e, c) for e, c in _power(num, l).terms if e <= bound)
    assert series_pow(num, l, bound) == cut


def test_series_pow_validation():
    num = reducible_numerator([2, 1])
    with pytest.raises(ValueError):
        series_pow(num, -1, 4)
    with pytest.raises(ValueError):
        series_pow(num, 2, -1)


_SMALL_PARTS = st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=4)


def _power(num: SeriesNumerator, l: int) -> SeriesNumerator:
    """Reference: num^l by repeated multiplication."""
    out = SeriesNumerator.one()
    for _ in range(l):
        out = out.mul(num)
    return out


@given(_SMALL_PARTS, st.integers(0, 8), st.integers(0, 9), st.integers(0, 40))
@settings(max_examples=60)
def test_expand_power_is_the_composition(parts, l, m, bound):
    num = _power(reducible_numerator(parts), l)
    assert expand_power(parts, l, m, bound) == _convolved(num, m, bound)


def _counted_cost(num, l, m, bound):
    """The cost _expansion_cost bounds, counted on a run: the loop steps and
    coefficient products of the recurrence, with the largest coefficient
    and factor they meet, in the same units.  num is a reducible numerator,
    so v = 0 and h_0 = 1; the recurrence's factors p_k - j u_k are built
    here from u = h (1-t) and w = l h' (1-t) + m h (h^l and l h' for m = 0),
    with p_k = w_(k-1) + k u_k."""
    h = dict(num.terms) if l else {0: 1}
    u = {k: h.get(k, 0) - (h.get(k - 1, 0) if m else 0) for k in range(max(h) + 2)}
    w = {k: l * ((k + 1) * h.get(k + 1, 0) - (k * h.get(k, 0) if m else 0))
         + m * h.get(k, 0) for k in range(max(h) + 2)}
    factors = [(k, w[k - 1] + k * u[k], u[k]) for k in range(1, max(h) + 2)
               if w[k - 1] + k * u[k] or u[k]]
    f, products, k_bits = [1], 0, 0
    for j in range(1, (bound if m else min(bound, l * max(h))) + 1):
        acc = 0
        for k, p, u_k in factors:
            if k <= j:
                products += 1
                factor = p - j * u_k
                k_bits = max(k_bits, factor.bit_length())
                acc += factor * f[j - k]
        f.append(acc // j)
    assert tuple(f) == series._expand(num, l, m, bound)[:len(f)]
    f_bits = max(abs(c).bit_length() for c in f)
    steps = len(f)
    cost = (steps + products) * (
        8 + (f_bits * k_bits >> 16) + ((f_bits + k_bits) >> 9))
    return cost + ((steps * f_bits + (bound + 1) * 1024) >> 5)


@given(_SMALL_PARTS, st.integers(0, 300), st.integers(0, 3000), st.integers(0, 300))
@settings(max_examples=60, deadline=None)
@example([1, 1], 64, 0, 128)  # (1-t)^128: every step has its products
@example([1, 1], 64, 3000, 300)  # (1-t)^128 / (1-t)^3000, long binomials
@example([10000, 10000], 2, 0, 10000)  # 10,001 loop steps, one product
def test_cost_estimate_bounds_the_counted_cost(parts, l, m, bound):
    """Every bound the estimate takes (steps, products, coefficient and
    factor bits) holds on the run."""
    num = reducible_numerator(parts)
    assert series._expansion_cost(num, l, m, bound) >= _counted_cost(num, l, m, bound)


def test_one_division_per_degree(monkeypatch):
    """The pass divides once per degree after the first: through the bound
    when m > 0, and when m = 0 only through l deg h, however far the bound
    is, as _expansion_cost counts its steps."""
    divisors = []

    def counted(a, b):
        divisors.append(b)
        return divmod(a, b)

    monkeypatch.setattr(series, "divmod", counted, raising=False)
    for l, m, bound, steps in ((3, 0, 100_000, 9), (3, 4, 50, 50), (0, 0, 10, 0)):
        divisors.clear()
        expand_power([2, 1], l, m, bound)
        assert divisors == list(range(1, steps + 1))


# (1 - t)^299996 (1 - t^20000)^300000 through degree 20001: its coefficients
# reach C(299996, 20000), of 105,999 bits, so the pass would hold over 10^9 bits
HUGE_POWER = ([20000, 1], 300_000, 4, 20001)


def test_oversized_expansions_are_refused_before_they_start(monkeypatch):
    """predict, predicted_hilbert and expand_power share one guard, which
    raises before the recurrence runs."""
    def refuse(*args):
        raise AssertionError("the expansion started")

    parts, l, m, bound = HUGE_POWER
    # the coefficient of t^20000 alone has over 10^5 bits, and the pass
    # makes bound + 1 steps
    assert binom(l - m, parts[0]).bit_length() * (bound + 1) > 2 * 10 ** 9
    monkeypatch.setattr(series, "_expand", refuse)
    assert series._expansion_cost(reducible_numerator(parts), l, m,
                                  bound) > MAX_SERIES_COST
    start = time.perf_counter()
    with pytest.raises(ValueError, match="would cost"):
        expand_power(parts, l, m, bound)
    with pytest.raises(ValueError, match="would cost"):
        predicted_hilbert(m, l, parts)
    with pytest.raises(ValueError, match="would cost"):
        predict(ProblemInstance(m, l, Partition(parts)))
    assert time.perf_counter() - start < 1.0


def test_expand_power_validation():
    for l, m, bound in ((-1, 4, 3), (2, -1, 3), (2, 4, -1)):
        with pytest.raises(ValueError):
            expand_power([2, 1], l, m, bound)


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
