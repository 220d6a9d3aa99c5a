import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redsecant.combinatorics import Partition, ProblemInstance, binom
from redsecant.oracle import (
    HomogeneousForm,
    PrimeFieldConfig,
    RankAccumulator,
    ResourceGuardExceeded,
    eliminate_linear,
    exponents,
    froeberg_oracle_r2,
    grade_size,
    ideal_piece_rank,
    is_prime,
    matmul_mod,
    monomial_form,
    multiply,
    oracle_run,
    random_form,
    rank_exponent,
    rank_of,
    rank_rows,
    tangent_generators,
    unrank_exponent,
    wlp_consequence_check,
)
from redsecant.oracle import runs
from redsecant.oracle.modmat import _CHUNK, _LEAF, P_LIMIT
from redsecant.predictor import predict
from redsecant.series import expand_rational, reducible_numerator, series_pow

P_TEST = 1_000_003
# The largest prime below P_LIMIT: every float64 product takes the split path.
P_MAX = 94_906_249


def inst(n, l, parts):
    return ProblemInstance(n, l, Partition(parts))


class TestMonomialIndexing:
    def test_grade_size(self):
        assert grade_size(3, 4) == 15
        assert grade_size(1, 7) == 1
        assert grade_size(0, 0) == 1
        assert grade_size(0, 3) == 0
        with pytest.raises(ValueError):
            grade_size(-1, 2)

    def test_exponents_shape_and_content(self):
        e = exponents(3, 2)
        assert e.shape == (6, 3)
        assert sorted(map(tuple, e.tolist())) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
        assert all(row.sum() == 2 for row in e)

    def test_rank_is_the_row_index(self):
        for n, d in ((2, 5), (3, 4), (4, 3), (6, 2)):
            e = exponents(n, d)
            assert np.array_equal(rank_rows(e), np.arange(len(e)))

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=9))
    @settings(max_examples=60)
    def test_rank_unrank_round_trip(self, n, d):
        for k in range(0, grade_size(n, d), max(1, grade_size(n, d) // 7)):
            exp = unrank_exponent(n, d, k)
            assert sum(exp) == d
            assert rank_exponent(exp) == k


class TestModularArithmetic:
    def test_is_prime(self):
        assert is_prime(2) and is_prime(1_000_003)
        assert not is_prime(1) and not is_prime(1_000_001)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=1_000_001)
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=2)
        with pytest.raises(ValueError):
            PrimeFieldConfig(trials=0)
        with pytest.raises(ValueError):
            PrimeFieldConfig(seed=-1)
        # exactness bound for the float64 multiply path
        with pytest.raises(ValueError):
            PrimeFieldConfig(p=94_906_297)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_matmul_matches_integer_arithmetic(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, P_TEST, size=(7, 11), dtype=np.int64)
        b = rng.integers(0, P_TEST, size=(11, 5), dtype=np.int64)
        want = (a.astype(object) @ b.astype(object)) % P_TEST
        assert np.array_equal(matmul_mod(a, b, P_TEST), want.astype(np.int64))

    def test_rank_of_known_matrices(self):
        eye = np.eye(5, dtype=np.int64)
        assert rank_of(eye, P_TEST) == 5
        stacked = np.vstack([eye, eye, 2 * eye])
        assert rank_of(stacked, P_TEST) == 5
        assert rank_of(np.zeros((4, 6), dtype=np.int64), P_TEST) == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_rank_matches_plain_gaussian_elimination(self, seed):
        p = 10007
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 4, size=(8, 6), dtype=np.int64)
        assert rank_of(m, p) == _reference_rank(m % p, p)


class TestBlockedKernel:
    @pytest.mark.parametrize("p", [7, P_TEST, P_MAX])
    def test_matmul_exact_across_chunks(self, p):
        assert is_prime(p) and p < P_LIMIT
        rng = np.random.default_rng(p)
        k = _CHUNK + 300
        a = rng.integers(0, p, size=(3, k), dtype=np.int64)
        b = rng.integers(0, p, size=(k, 4), dtype=np.int64)
        a[0] = p - 1
        b[:, 0] = p - 1
        want = (a.astype(object) @ b.astype(object)) % p
        assert np.array_equal(matmul_mod(a, b, p), want.astype(np.int64))

    def test_modulus_above_the_exactness_limit_is_refused(self):
        with pytest.raises(ValueError):
            matmul_mod(np.ones((1, 1), np.int64), np.ones((1, 1), np.int64),
                       94_906_297)
        with pytest.raises(ValueError):
            RankAccumulator(3, 94_906_297)

    def test_low_rank_product_at_the_largest_prime(self):
        # B = [I; R1] and C = [I | R2] have identity k x k minors, so B*C has
        # rank exactly k; the product is formed with Python integers.
        m, k = 150, 90
        rng = np.random.default_rng(11)
        r1 = rng.integers(0, P_MAX, size=(m - k, k)).astype(object)
        r2 = rng.integers(0, P_MAX, size=(k, m - k)).astype(object)
        eye = np.eye(k, dtype=np.int64).astype(object)
        prod = (np.vstack([eye, r1]) @ np.hstack([eye, r2])) % P_MAX
        prod = prod.astype(np.int64)[rng.permutation(m)][:, rng.permutation(m)]
        assert rank_of(prod, P_MAX) == k

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([7, 10007, P_MAX]))
    @settings(max_examples=30, deadline=None)
    def test_accumulator_rank_and_basis_invariant(self, seed, p):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 81))
        ncols = int(rng.integers(1, 61))
        r = int(rng.integers(0, min(m, ncols) + 1))
        u = rng.integers(0, p, size=(m, r)).astype(object)
        v = rng.integers(0, p, size=(r, ncols)).astype(object)
        matrix = ((u @ v) % p).astype(np.int64) if r else np.zeros(
            (m, ncols), np.int64)
        acc = RankAccumulator(ncols, p)
        lo = 0
        while lo < m:
            size = int(rng.choice([1, 3, _LEAF - 1, _LEAF + 5, 2 * _LEAF + 9]))
            acc.add_rows(matrix[lo : lo + size])
            lo += size
        assert acc.rank == _reference_rank(matrix, p)
        basis, pivots = acc.basis, acc.pivots
        assert basis.shape == (acc.rank, ncols)
        assert len(set(pivots.tolist())) == acc.rank
        assert np.all((basis >= 0) & (basis < p))
        assert np.array_equal(basis[:, pivots], np.eye(acc.rank, dtype=np.int64))
        # the basis spans the rows it was fed
        assert _reference_rank(np.vstack([basis, matrix]), p) == acc.rank


def _reference_rank(matrix, p):
    rows = [list(map(int, row)) for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(v - c * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestForms:
    def test_multiply_square_of_linear_form(self):
        # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2
        coeffs = np.zeros(grade_size(3, 1), dtype=np.int64)
        coeffs[rank_exponent((0, 1, 0))] = 1
        coeffs[rank_exponent((0, 0, 1))] = 1
        f = HomogeneousForm(3, 1, coeffs)
        sq = multiply(f, f, P_TEST)
        want = {(0, 2, 0): 1, (0, 1, 1): 2, (0, 0, 2): 1}
        for k, exp in enumerate(exponents(3, 2)):
            assert sq.coeffs[k] == want.get(tuple(int(e) for e in exp), 0)

    def test_multiply_agrees_with_exponent_convolution(self):
        rng = np.random.default_rng(11)
        f = random_form(3, 2, P_TEST, rng)
        g = random_form(3, 3, P_TEST, rng)
        prod = multiply(f, g, P_TEST)
        brute = np.zeros(grade_size(3, 5), dtype=object)
        ef, eg = exponents(3, 2), exponents(3, 3)
        for i, a in enumerate(ef):
            for j, b in enumerate(eg):
                brute[rank_exponent(a + b)] += int(f.coeffs[i]) * int(g.coeffs[j])
        assert np.array_equal(prod.coeffs, (brute % P_TEST).astype(np.int64))

    def test_monomial_form(self):
        m = monomial_form(3, (1, 0, 1), P_TEST)
        assert m.degree == 2
        assert m.coeffs[rank_exponent((1, 0, 1))] == 1
        assert m.coeffs.sum() == 1

    def test_tangent_generators_products(self):
        rng = np.random.default_rng(5)
        factors = [random_form(4, e, P_TEST, rng) for e in (3, 2, 2)]
        gens = tangent_generators(factors, P_TEST)
        assert [g.degree for g in gens] == [4, 5, 5]
        # G_k * F_k is the full product, independent of k
        full = [multiply(g, f, P_TEST).coeffs for g, f in zip(gens, factors)]
        assert np.array_equal(full[0], full[1])
        assert np.array_equal(full[0], full[2])

    def test_eliminate_linear_rank_matches_naive(self):
        rng = np.random.default_rng(17)
        n, j = 4, 5
        lin = [random_form(n, 1, P_TEST, rng) for _ in range(2)]
        others = [random_form(n, 3, P_TEST, rng) for _ in range(3)]

        def piece_rank(nvars, gens):
            rows = []
            for g in gens:
                for mono_exp in exponents(nvars, j - g.degree):
                    m = monomial_form(nvars, tuple(int(e) for e in mono_exp),
                                      P_TEST)
                    rows.append(multiply(g, m, P_TEST).coeffs)
            return rank_of(np.array(rows), P_TEST) if rows else 0

        naive = piece_rank(n, lin + others)
        new_n, reduced = eliminate_linear(lin, others, P_TEST)
        assert new_n == n - 2
        small = piece_rank(new_n, reduced)
        assert naive == grade_size(n, j) - grade_size(new_n, j) + small


class TestIdealPieceRank:
    def test_koszul_pair(self):
        # two generic forms of degrees 2, 3 in 3 variables: no syzygies in
        # degree 4 yet, so the piece counts 6 + 3 independent products
        rng = np.random.default_rng(3)
        f = random_form(3, 2, P_TEST, rng)
        g = random_form(3, 3, P_TEST, rng)
        got = ideal_piece_rank([f, g], 4, P_TEST)
        assert got == grade_size(3, 2) + grade_size(3, 1) == 9

    def test_degree_below_generators_is_zero(self):
        rng = np.random.default_rng(3)
        f = random_form(3, 4, P_TEST, rng)
        assert ideal_piece_rank([f], 3, P_TEST) == 0

    def test_column_guard(self):
        rng = np.random.default_rng(3)
        f = random_form(4, 2, P_TEST, rng)
        with pytest.raises(ResourceGuardExceeded):
            ideal_piece_rank([f], 6, P_TEST, max_columns=10)


class TestOracleRuns:
    def test_worked_six_variable_case(self):
        run = oracle_run(inst(4, 3, [3, 2, 2]), PrimeFieldConfig(trials=2))
        assert run.secant_dim == 113
        assert run.codim == 6
        assert not run.fills

    def test_plane_hypersurface_case(self):
        run = oracle_run(inst(3, 2, [9, 7, 2]), PrimeFieldConfig(trials=2))
        assert run.secant_dim == 188
        assert run.codim == 1

    def test_filling_case_uses_elimination(self):
        run = oracle_run(inst(4, 2, [2, 1]), PrimeFieldConfig(trials=1))
        assert run.fills and run.secant_dim == 19
        assert run.eliminated

    def test_elimination_matches_naive_path(self):
        for n, l, parts in ((4, 2, [2, 1]), (3, 2, [3, 1]), (5, 2, [3, 1])):
            cfg = PrimeFieldConfig(trials=1, seed=9)
            auto = oracle_run(inst(n, l, parts), cfg)
            naive = oracle_run(inst(n, l, parts), cfg, elimination=False)
            assert auto.eliminated and not naive.eliminated
            assert auto.secant_dim == naive.secant_dim, (n, l, parts)

    def test_report_shape(self):
        cfg = PrimeFieldConfig(trials=2, seed=4)
        run = oracle_run(inst(3, 2, [2, 2]), cfg, want_hilbert=True)
        assert len(run.trial_ranks) == 2
        assert run.max_rank == max(run.trial_ranks)
        assert run.secant_dim == run.max_rank - 1
        doc = run.to_json()
        assert doc["n"] == 3 and doc["partition"] == "2,2"
        assert doc["hilbert"] is not None

    def test_hilbert_matches_series_in_proper_range(self):
        """With 2l <= n the tangent-ideal quotient is predicted exactly by
        the rational series, with no truncation needed."""
        for n, l, parts in ((4, 2, [2, 1]), (5, 2, [3, 2]), (6, 3, [2, 2]),
                            (6, 2, [2, 2, 1]), (7, 3, [1, 1, 1])):
            run = oracle_run(inst(n, l, parts), PrimeFieldConfig(trials=2),
                             want_hilbert=True)
            part = Partition(parts)
            num = series_pow(reducible_numerator(part), l, part.d)
            want = expand_rational(num, n, part.d)
            assert tuple(run.hilbert) == want.coeffs, (n, l, parts)

    def test_semicontinuity_across_trials(self):
        base = PrimeFieldConfig(trials=1, seed=0)
        more = PrimeFieldConfig(trials=3, seed=0)
        one = oracle_run(inst(4, 2, [3, 2]), base)
        three = oracle_run(inst(4, 2, [3, 2]), more)
        assert three.max_rank >= one.max_rank
        assert three.max_rank <= binom(5 + 3, 3)

    def test_monotone_in_l(self):
        cfg = PrimeFieldConfig(trials=1, seed=2)
        dims = [oracle_run(inst(4, l, [2, 2]), cfg).secant_dim
                for l in (1, 2, 3, 4)]
        assert dims == sorted(dims)

    def test_upper_bound_r2_and_boundary(self):
        cfg = PrimeFieldConfig(trials=2, seed=6)
        # r = 2 cases plus 2l = n+1 cases: prediction caps the oracle
        for n, l, parts in ((4, 3, [3, 2]), (3, 2, [4, 2]), (5, 3, [2, 2, 1]),
                            (4, 2, [5, 4]), (3, 2, [2, 2, 2])):
            run = oracle_run(inst(n, l, parts), cfg)
            rep = predict(inst(n, l, parts))
            assert run.secant_dim <= rep.predicted_dim, (n, l, parts)

    def test_reducible_forms_comparison(self):
        # splitting off a linear factor maximizes the secant dimension
        cfg = PrimeFieldConfig(trials=1, seed=8)
        for n, l in ((4, 2), (6, 3)):
            for d in range(3, 9):
                top = oracle_run(inst(n, l, [d - 1, 1]), cfg).secant_dim
                for k in range(2, d // 2 + 1):
                    got = oracle_run(inst(n, l, [d - k, k]), cfg).secant_dim
                    assert got <= top, (n, l, d, k)

    def test_guard_names_the_context(self):
        with pytest.raises(ResourceGuardExceeded) as err:
            oracle_run(inst(5, 4, [4, 3]), PrimeFieldConfig(max_columns=10))
        assert "330" in str(err.value)


class TestWlpConsequence:
    def test_vacuous_below_the_ladder(self):
        res = wlp_consequence_check(inst(6, 3, [2, 1]), PrimeFieldConfig())
        assert res.vacuous and res.passed
        assert res.k == 0 and res.levels == ()

    def test_worked_case_passes_both_levels(self):
        res = wlp_consequence_check(inst(4, 3, [3, 2, 2]),
                                    PrimeFieldConfig(trials=2))
        assert res.k == 2
        assert res.passed and not res.vacuous
        assert len(res.levels) == 3
        assert all(lv.matched for lv in res.levels)
        assert [lv.variables for lv in res.levels] == [6, 5, 4]

    def test_guard_skips_are_recorded_not_fatal(self):
        res = wlp_consequence_check(inst(3, 2, [2, 2]),
                                    PrimeFieldConfig(max_columns=5))
        assert res.passed
        assert any(lv.skipped_reason for lv in res.levels)

    def test_json_round_trip_fields(self):
        res = wlp_consequence_check(inst(4, 3, [3, 2, 2]),
                                    PrimeFieldConfig(trials=1))
        doc = res.to_json()
        assert doc["k"] == 2 and doc["passed"] is True
        assert len(doc["levels"]) == 3

    def test_levels_are_shared_across_ladders(self):
        """The ladder at n = 5 is the top of the ladder at n = 4, so its
        levels come from the memo and are the very same results."""
        cfg = PrimeFieldConfig(trials=1, seed=424242)
        low = wlp_consequence_check(inst(4, 3, [2, 1]), cfg)
        hits = runs._ladder_level.cache_info().hits
        high = wlp_consequence_check(inst(5, 3, [2, 1]), cfg)
        assert runs._ladder_level.cache_info().hits == hits + 2
        assert [lv.variables for lv in low.levels] == [6, 5, 4]
        assert high.levels == low.levels[:2]
        assert all(a is b for a, b in zip(high.levels, low.levels))


class TestFroebergBridge:
    def test_quartic_pair_case(self):
        chk = froeberg_oracle_r2(4, 2, 2, 4, PrimeFieldConfig(trials=2))
        assert chk.implied_secant_dim == 33
        assert chk.implied_secant_dim == predict(inst(4, 2, [2, 2])).predicted_dim

    def test_validation(self):
        with pytest.raises(ValueError):
            froeberg_oracle_r2(4, 2, 3, 4, PrimeFieldConfig())
        with pytest.raises(ValueError):
            froeberg_oracle_r2(4, 2, 0, 4, PrimeFieldConfig())
