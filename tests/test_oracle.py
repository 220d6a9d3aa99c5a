import contextlib
import hashlib
import json
import time
import tracemalloc
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from redsecant.combinatorics import (
    Partition,
    ProblemInstance,
    binom,
    enumerate_partitions,
)
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
    mul_table,
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
from redsecant.oracle import forms, modmat, monomials, runs
from redsecant.oracle.modmat import _CHUNK, _LEAF, P_LIMIT
from redsecant.predictor import predict
from redsecant.series import (
    TruncatedSeries,
    expand_rational,
    predicted_hilbert,
    reducible_numerator,
    series_pow,
)
from redsecant.workbench import SweepConfig, sweep

P_TEST = 1_000_003
# The largest prime below P_LIMIT: every float64 product takes the split path.
P_MAX = 94_906_249


@contextlib.contextmanager
def _cached_entries(limit):
    """Cache only multiplication tables of at most limit entries, from an
    empty cache that is emptied again on the way out."""
    monomials._cached_table.cache_clear()
    try:
        with mock.patch.object(monomials, "_CACHED_ENTRIES", limit):
            yield
    finally:
        monomials._cached_table.cache_clear()


def inst(n, l, parts):
    return ProblemInstance(n, l, Partition(parts))


def same_points(n, l, parts, cfg, trial):
    """The tangent-ideal generators, in all n variables, of the points a
    [d-1, 1] or [1, 1] oracle run samples at trial: the linear factors are
    x_{n-1}, x_{n-2}, ..., and the run's degree-(d-1) forms in the n_vars
    variables left fill the last colex coefficients, which are the
    monomials free of the other variables."""
    d = sum(parts)
    n_vars = n - min(n, 2 * l if d == 2 else l)
    gens = [monomial_form(n, np.eye(n, dtype=int)[v], cfg.p)
            for v in range(n - 1, n_vars - 1, -1)]
    if d > 2 and n_vars:
        size = grade_size(n, d - 1)
        for point in range(l):
            f = random_form(n_vars, d - 1, cfg.p,
                            runs._rng(cfg.seed, runs._TAG_ORACLE, n, trial, point, 0))
            coeffs = np.zeros(size, np.int64)
            coeffs[size - f.coeffs.size:] = f.coeffs
            gens.append(HomogeneousForm(n, d - 1, coeffs))
    return gens


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

    def test_colex_is_multiplication_compatible(self):
        """m < m' implies x_v m < x_v m': every row of mul_table(n, 1, j)
        strictly increases, which the shifted-basis rows rely on."""
        for n in range(1, 9):
            for j in range(9):
                assert np.all(np.diff(mul_table(n, 1, j), axis=1) > 0), (n, j)

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
        # every row is zero left of its pivot
        assert np.array_equal((basis != 0).argmax(axis=1), pivots)
        # the basis spans the rows it was fed
        assert _reference_rank(np.vstack([basis, matrix]), p) == acc.rank


    def test_add_rows_takes_residues_as_given_and_reduces_the_rest(self):
        p = 10007
        rng = np.random.default_rng(5)
        block = rng.integers(0, p, size=(20, 30), dtype=np.int64)
        block[3] = block[0]
        block.flags.writeable = False
        acc = RankAccumulator(30, p)
        acc.add_rows(block)
        assert acc.rank == _reference_rank(block, p) == 19
        raw = block - p * rng.integers(-3, 4, size=block.shape)
        assert raw.min() < 0 and raw.max() >= p
        before = raw.copy()
        acc = RankAccumulator(30, p)
        acc.add_rows(raw)
        assert np.array_equal(raw, before)
        assert acc.rank == 19
        assert np.array_equal(_reference_rref(acc.basis, p), _reference_rref(block, p))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([7, 10007, P_MAX]))
    @settings(max_examples=30, deadline=None)
    def test_unit_triangular_solve_matches_reference(self, seed, p):
        """Rows with a unit at increasing leads and zeros to their left, on
        both sides of the leaf size, against Gauss-Jordan in Python ints."""
        rng = np.random.default_rng(seed)
        k = int(rng.choice([1, 2, _LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF + 7]))
        ncols = k + int(rng.integers(0, 40))
        lead = np.sort(rng.choice(ncols, k, replace=False))
        t = rng.integers(0, p, size=(k, ncols), dtype=np.int64)
        t[rng.random(t.shape) < 0.3] = 0
        for i, c in enumerate(lead):
            t[i, :c] = 0
            t[i, c] = 1
        x, piv, free = modmat._unit_triangular(t, p)
        assert np.array_equal(piv, lead)
        assert np.array_equal(free, np.setdiff1d(np.arange(ncols), lead))
        basis = np.zeros((k, ncols), np.int64)
        basis[np.arange(k), piv] = 1
        basis[:, free] = x
        assert np.array_equal(basis, _reference_rref(t, p))

    @staticmethod
    def _level_solve(t, p):
        """_unit_triangular(t, p) as one basis, checked against the
        reference, and the number of levels it solved (one product each)."""
        with mock.patch.object(modmat, "matmul_mod", wraps=modmat.matmul_mod) as mm:
            x, piv, free = modmat._unit_triangular(t, p)
        lead = (t != 0).argmax(axis=1)
        assert np.array_equal(piv, lead)
        assert np.array_equal(free, np.setdiff1d(np.arange(t.shape[1]), lead))
        basis = np.zeros(t.shape, np.int64)
        basis[np.arange(lead.size), piv] = 1
        basis[:, free] = x
        assert np.array_equal(basis, _reference_rref(t, p))
        return basis, mm.call_count

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    @pytest.mark.parametrize("k", [_LEAF - 1, 3 * _LEAF + 5])
    def test_level_solve_on_a_bidiagonal_chain(self, p, k):
        """Row i touches the lead of row i + 1 alone, so the rows form one
        chain: k - 1 levels of one row each."""
        rng = np.random.default_rng(k)
        lead = np.arange(0, 2 * k, 2)
        t = np.zeros((k, 2 * k), np.int64)
        t[:, lead + 1] = np.triu(rng.integers(0, p, size=(k, k)))
        t[np.arange(k), lead] = 1
        t[np.arange(k - 1), lead[1:]] = rng.integers(1, p, size=k - 1)
        assert self._level_solve(t, p)[1] == k - 1

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    @pytest.mark.parametrize("k", [_LEAF - 1, 3 * _LEAF + 5])
    def test_level_solve_leaves_a_reduced_block_as_it_is(self, p, k):
        """Rows already in reduced echelon form touch no other lead: no
        level is solved and the block comes back unchanged."""
        rng = np.random.default_rng(k)
        ncols = k + 40
        t = rng.integers(0, p, size=(k, ncols), dtype=np.int64)
        lead = np.sort(rng.choice(ncols, k, replace=False))
        t[:, lead] = np.eye(k, dtype=np.int64)
        t[np.arange(ncols) < lead[:, None]] = 0
        basis, levels = self._level_solve(t, p)
        assert levels == 0
        assert np.array_equal(basis, t)

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    @pytest.mark.parametrize("k", [_LEAF - 1, 3 * _LEAF + 5])
    @pytest.mark.parametrize("density", [0.02, 0.1])
    def test_level_solve_on_sparse_triangles(self, p, k, density):
        """Sparse unit triangles with a few free columns, like the kept
        products of a shadow, at several depths."""
        rng = np.random.default_rng([k, int(100 * density)])
        ncols = k + k // 4
        lead = np.sort(rng.choice(ncols, k, replace=False))
        t = np.where(rng.random((k, ncols)) < density,
                     rng.integers(0, p, size=(k, ncols)), 0)
        t[np.arange(ncols) <= lead[:, None]] = 0
        t[np.arange(k), lead] = 1
        assert 1 < self._level_solve(t, p)[1] < k

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([7, 10007, P_MAX]))
    @settings(max_examples=40, deadline=None)
    def test_shadow_is_echeloned_shifts_of_the_basis(self, seed, p):
        """The shadow of a degree-e basis under mul_table(n, a, e) keeps,
        for each distinct column x^m * pivot, the first product in the
        order (multiplier m, basis row): every product by x_{n-1}^a (row 0
        of the table) and the others whose leads are new.  It reports
        exactly those pairs, and its basis is the reduced echelon form of
        exactly those rows, with one pivot per lead.  a = 1 is the shift
        by one variable of the by-degree engine; a > 1 seeds a piece from
        generators of lower degree."""
        rng = np.random.default_rng(seed)
        n, e, a = int(rng.integers(1, 6)), int(rng.integers(0, 4)), int(rng.integers(1, 4))
        below = grade_size(n, e)
        r = int(rng.integers(0, below + 1))
        u = rng.integers(0, p, size=(below + 3, r)).astype(object)
        v = rng.integers(0, p, size=(r, below)).astype(object)
        v[:, rng.random(below) < 0.3] = 0
        acc = RankAccumulator(below, p)
        acc.add_rows(((u @ v) % p).astype(np.int64) if r else np.zeros((1, below), np.int64))
        table = mul_table(n, a, e)
        ncols = grade_size(n, e + a)
        assert np.array_equal(exponents(n, a)[0], a * np.eye(n, dtype=np.int32)[n - 1])
        want_kept = np.zeros((table.shape[0], acc.rank), bool)
        kept, leads = [], set()
        for m in range(table.shape[0]):
            for i, (row, piv) in enumerate(zip(acc.basis, acc.pivots)):
                lead = int(table[m, piv])
                if lead in leads:
                    assert m > 0
                    continue
                leads.add(lead)
                want_kept[m, i] = True
                product = np.zeros(ncols, np.int64)
                product[table[m]] = row
                kept.append(product)
        shadow, got_kept = acc.shadow(table, ncols)
        assert np.array_equal(got_kept, want_kept)
        assert np.array_equal(np.sort(shadow.pivots), sorted(leads))
        order = np.argsort(shadow.pivots)
        want = _reference_rref(kept, p) if kept else np.zeros((0, ncols), np.int64)
        assert np.array_equal(shadow.basis[order], want)


def _reference_rref(matrix, p):
    """Nonzero rows of the reduced row echelon form, by Python integers."""
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
    return np.array(rows[:rank], np.int64).reshape(rank, ncols)


def _leads(matrix, p):
    """Leading columns of the reduced row echelon form, ascending."""
    return [int(np.flatnonzero(row)[0]) for row in _reference_rref(matrix, p)]


def _reference_rank(matrix, p):
    return len(_reference_rref(matrix, p))


def _evaluate(form, point, p):
    """form(point) mod p, by Python integers over the exponent rows."""
    total = 0
    for c, exp in zip(form.coeffs.tolist(), exponents(form.n, form.degree).tolist()):
        term = int(c)
        for x, e in zip(point, exp):
            term = term * pow(int(x), e, p) % p
        total += term
    return total % p


def _seeded_feed(gens, j, p):
    """The rows _ideal_piece feeds at degree j alone, by one product per
    row, with every row's columns in the kernel's order: colex column c of
    a piece with N columns at N - 1 - c.  Those of the seed (the
    coefficients of the nonzero generators of the lowest degree e0, when
    e0 < j) and those of the degree-j piece.  The latter are the products
    m * b of the seed's reduced echelon basis rows b by the monomials m of
    degree j - e0 that the shadow does not keep (it keeps the first per
    lead x^m * x^pivot(b), in the order (m, b)), then the brute-force rows
    of the generators above e0."""
    usable = [g for g in gens if g.degree <= j and not g.is_zero]
    e0 = min(g.degree for g in usable)
    if e0 == j:
        return [], [row[::-1] for row in _brute_rows(usable, j, p)]
    n = usable[0].n
    seed = [g.coeffs[::-1] for g in usable if g.degree == e0]
    basis = _reference_rref(seed, p)
    # the accumulator holds its basis rows in the order their leads are
    # met, seed row by seed row, which at small p need not be ascending
    met: list[int] = []
    for k in range(1, len(seed) + 1):
        met += [c for c in _leads(seed[:k], p) if c not in met]
    basis = basis[[_leads(seed, p).index(c) for c in met]]
    pivots = grade_size(n, e0) - 1 - (basis != 0).argmax(axis=1)
    leads, unkept = set(), []
    for m in exponents(n, j - e0).tolist():
        for b, c in zip(basis, pivots):
            lead = rank_exponent(np.add(m, exponents(n, e0)[c]))
            if lead in leads:
                unkept.append(multiply(HomogeneousForm(n, e0, b[::-1]),
                                       monomial_form(n, m, p), p).coeffs[::-1])
            leads.add(lead)
    above = _brute_rows([g for g in usable if g.degree > e0], j, p)
    return seed, unkept + [row[::-1] for row in above]


def _brute_rows(gens, j, p):
    """The rows multiply(g, m) for every nonzero g of degree at most j and
    every monomial m of degree j - deg g, in order, one product per row."""
    return [multiply(g, monomial_form(g.n, m, p), p).coeffs
            for g in gens if g.degree <= j and not g.is_zero
            for m in exponents(g.n, j - g.degree).tolist()]


class TestForms:
    def test_a_form_owns_its_coefficients_and_compares_by_identity(self):
        coeffs = np.arange(grade_size(3, 1), dtype=np.int64)
        f = HomogeneousForm(3, 1, coeffs)
        g = HomogeneousForm(3, 1, coeffs)
        # the caller's array stays writable, and writing it moves no form
        assert coeffs.flags.writeable and not f.coeffs.flags.writeable
        coeffs[0] = 7
        assert f.coeffs.tolist() == [0, 1, 2]
        assert f == f and f != g and len({f, g, f}) == 2
        with pytest.raises(AttributeError):
            f.coeffs = coeffs

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

    @pytest.mark.parametrize("degrees", [(3, 2), (1, 4, 2), (2, 1, 3, 1),
                                         (1, 2, 1, 3, 2)])
    def test_tangent_generators_match_the_product_of_the_others(self, degrees):
        rng = np.random.default_rng(len(degrees))
        factors = [random_form(4, e, P_MAX, rng) for e in degrees]
        gens = tangent_generators(factors, P_MAX)
        assert len(gens) == len(factors)
        for k, g in enumerate(gens):
            others = factors[:k] + factors[k + 1:]
            want = reduce(lambda f, h: multiply(f, h, P_MAX), others)
            assert g.degree == want.degree
            assert np.array_equal(g.coeffs, want.coeffs), (degrees, k)

    def test_eliminate_linear_is_exact_on_special_forms(self):
        """x0 = x1 - 3 x2 on the zero set of the linear form; and the ideal
        (x0 - x1, x0^2 - x1^2) is (x0 - x1), so the quadric maps to zero."""
        p = 10007
        x = [monomial_form(3, e, p) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        lin = HomogeneousForm(3, 1, (x[0].coeffs - x[1].coeffs + 3 * x[2].coeffs) % p)
        quad = random_form(3, 2, p, np.random.default_rng(2))
        new_n, (image,) = eliminate_linear([lin], [quad], p)
        assert new_n == 2
        for y in ((4, 9), (1, 0), (0, 1), (17, 5)):
            assert _evaluate(image, y, p) == _evaluate(quad, ((y[0] - 3 * y[1]) % p, *y), p)
        diff = HomogeneousForm(3, 1, (x[0].coeffs - x[1].coeffs) % p)
        square_gap = HomogeneousForm(
            3, 2, (multiply(x[0], x[0], p).coeffs - multiply(x[1], x[1], p).coeffs) % p)
        new_n, reduced = eliminate_linear([diff], [square_gap], p)
        assert new_n == 2 and reduced[0].is_zero
        # HF_2(3, I) = HF_2(new_n, reduced): 6 - 3 on the naive side
        naive = ideal_piece_rank([diff, square_gap], 2, p)
        assert naive == 3
        assert grade_size(3, 2) - naive == 3 == (
            grade_size(new_n, 2) - ideal_piece_rank(reduced, 2, p))

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

    def test_eliminate_linear_across_leaves_with_dependent_forms(self):
        """More linear forms than one Gauss-Jordan leaf holds, a quarter of
        them combinations of the others, and two variables in none of
        them.  Each reduced form takes its original's value where the
        linear forms vanish, with the pivots of the reduced echelon form
        as the variables substituted away; and the Hilbert value at
        degree 2 is that of the naive rows."""
        p, n, q, extra = 10007, 40, 36, 12
        assert q + extra > _LEAF
        rng = np.random.default_rng(23)
        base = rng.integers(0, p, size=(q, n))
        base[:, [3, 11]] = 0
        var_rows = np.vstack([base, rng.integers(0, p, size=(extra, q)) @ base % p])
        var_rows = var_rows[rng.permutation(q + extra)]
        order = np.argsort(exponents(n, 1).argmax(axis=1))
        lin = []
        for row in var_rows:
            coeffs = np.zeros(n, np.int64)
            coeffs[order] = row
            lin.append(HomogeneousForm(n, 1, coeffs))
        others = [random_form(n, 2, p, rng) for _ in range(3)]
        rref = _reference_rref(var_rows, p)
        pivots = (rref != 0).argmax(axis=1)
        assert len(rref) == q and 3 not in pivots and 11 not in pivots
        new_n, reduced = eliminate_linear(lin, others, p)
        assert new_n == n - q
        free = np.setdiff1d(np.arange(n), pivots)
        for _ in range(2):
            y = rng.integers(0, p, size=new_n)
            x = np.zeros(n, np.int64)
            x[free] = y
            x[pivots] = -(rref[:, free] @ y) % p
            for image, form in zip(reduced, others):
                assert _evaluate(image, y, p) == _evaluate(form, x, p)
        naive = rank_of(np.array(_brute_rows(lin + others, 2, p)), p)
        assert grade_size(n, 2) - naive == grade_size(new_n, 2) - ideal_piece_rank(reduced, 2, p)


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

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6),
           st.sampled_from([7, 10007, P_MAX]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_rows(self, n, j, p, data):
        """Gathered rows against one product per row, at degree j alone:
        the seed is fed the nonzero generators of the lowest degree, the
        degree-j piece is fed exactly the rows of _seeded_feed in order,
        each with colex column c at N - 1 - c, and the rank is that of all
        the brute-force rows.  Mixed degrees with constants, zero forms
        (one of the lowest degree), a generator above degree j and p = 7,
        where random forms often degenerate, are drawn.  The cached-table
        limit and the block size are drawn small as well, so rows whose
        table is not cached and blocks that split a generator are covered;
        with the limit at 0 no table is cached and every row is computed."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        degrees = data.draw(st.lists(st.integers(0, j), min_size=1, max_size=5))
        gens = [random_form(n, e, p, rng) for e in degrees]
        low = min(degrees)
        gens.insert(data.draw(st.integers(0, len(gens))),
                    HomogeneousForm(n, low, np.zeros(grade_size(n, low))))
        gens.append(HomogeneousForm(n, max(0, j - 1), np.zeros(grade_size(n, max(0, j - 1)))))
        gens.append(random_form(n, j + 1, p, rng))
        cached = data.draw(st.sampled_from([monomials._CACHED_ENTRIES, 0, grade_size(n, j)]))
        batch = data.draw(st.sampled_from([runs._BATCH_ENTRIES, 1, 3 * grade_size(n, j)]))
        fed = []
        add_rows = RankAccumulator.add_rows

        def record(acc, rows):
            fed.append((acc, np.array(rows)))
            return add_rows(acc, rows)

        with _cached_entries(cached), \
                mock.patch.object(runs, "_BATCH_ENTRIES", batch), \
                mock.patch.object(RankAccumulator, "add_rows", record):
            acc = runs._ideal_piece(gens, j, p)
        rows = _brute_rows(gens, j, p)
        if acc is None:
            assert not rows and not fed
            return
        seed_rows, want = _seeded_feed(gens, j, p)
        seeded = [row for a, block in fed if a is not acc for row in block]
        main = [row for a, block in fed if a is acc for row in block]
        assert len(seeded) == len(seed_rows)
        assert all(np.array_equal(a, b) for a, b in zip(seeded, seed_rows))
        if acc.rank < grade_size(n, j):
            assert len(main) == len(want)
        assert len(main) <= len(want)
        assert all(np.array_equal(a, b) for a, b in zip(main, want))
        assert acc.rank == rank_of(np.array(rows), p)

    def test_blocks_are_right_sized_and_keep_their_boundaries(self, monkeypatch):
        """Every block fed to the degree-j piece holds `step` rows but the
        last, across the seed's unkept products and the generators above
        the lowest degree, and each is a whole array of its own, not a
        slice of a larger one."""
        blocks = []
        add_rows = RankAccumulator.add_rows

        def record(acc, rows):
            blocks.append((acc.ncols, rows.shape[0], rows.base is None))
            return add_rows(acc, rows)

        monkeypatch.setattr(RankAccumulator, "add_rows", record)
        rng = np.random.default_rng(8)
        n, j = 4, 5
        ncols = grade_size(n, j)
        for degrees in ((3, 3, 4, 2), (2, 3, 2, 4)):
            gens = [random_form(n, e, P_TEST, rng) for e in degrees]
            total = len(_seeded_feed(gens, j, P_TEST)[1])
            want_rank = rank_of(np.array(_brute_rows(gens, j, P_TEST)), P_TEST)
            assert want_rank < ncols  # no early exit at full rank
            for step in (1, 7, 10, total - 1, total, total + 5, 10 * total):
                blocks.clear()
                monkeypatch.setattr(runs, "_BATCH_ENTRIES", step * ncols)
                got = ideal_piece_rank(gens, j, P_TEST)
                want = [step] * (total // step) + ([total % step] if total % step else [])
                assert [rows for width, rows, _ in blocks if width == ncols] == want, step
                assert all(whole for _, _, whole in blocks), step
                assert got == want_rank

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6),
           st.sampled_from([7, 10007, P_MAX]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_by_degree_ranks_match_each_degree_alone(self, n, d, p, data):
        """The engine builds each degree's piece on the one below; its
        Hilbert function equals one ideal_piece_rank per degree.  Random
        forms of mixed degrees (constants included), monomials, a zero
        form and p = 7, where random forms often degenerate, are drawn."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        degrees = data.draw(st.lists(st.integers(0, d + 1), max_size=5))
        gens = [random_form(n, e, p, rng) for e in degrees]
        for e in data.draw(st.lists(st.integers(1, max(1, d)), max_size=4)):
            gens.append(monomial_form(n, rng.multinomial(e, [1 / n] * n), p))
        if data.draw(st.booleans()):
            gens.append(HomogeneousForm(n, 1, np.zeros(n)))
        cfg = PrimeFieldConfig(p=p, trials=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the failure bound at p = 7
            (best,), _, per_trial = runs._levels_over_trials(
                lambda t: gens, (n,), range(d + 1), 1, "test run", cfg, (None,))
        want = tuple(grade_size(n, j) - ideal_piece_rank(gens, j, p)
                     for j in range(d + 1))
        assert per_trial == [(want,)] and best == want

    @given(st.sampled_from([(3, 2, (1, 1)), (4, 2, (1, 1)), (3, 1, (1, 1)),
                            (4, 2, (2, 1)), (3, 3, (2, 1)), (5, 2, (3, 1))]),
           st.sampled_from([7, 10007, P_MAX]), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_by_degree_ranks_on_the_elimination_path(self, case, p, seed):
        """Full-Hilbert runs in the variables the linear factors leave,
        including runs where they span every variable (n_vars = 0),
        against the generators of the same points in all n variables, one
        degree at a time."""
        n, l, parts = case
        cfg = PrimeFieldConfig(p=p, trials=2, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = oracle_run(inst(n, l, list(parts)), cfg, want_hilbert=True)
            want = None
            for t in range(cfg.trials):
                naive = same_points(n, l, parts, cfg, t)
                hf = tuple(grade_size(n, j) - ideal_piece_rank(naive, j, p)
                           for j in range(sum(parts) + 1))
                assert run.trial_ranks[t] == grade_size(n, sum(parts)) - hf[-1]
                want = hf if want is None else tuple(map(min, want, hf))
        assert run.eliminated and run.hilbert == want

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
           st.sampled_from([7, 10007, P_MAX]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_shadowed_degree_feeds_only_rows_off_x_star(self, n, j, p, data):
        """Built on the degree below, the degree-j piece is fed exactly the
        brute-force rows m * G whose monomial m is free of x_{n-1}, the
        variable of row 0 of mul_table(n, 1, j-1), in order, each with
        colex column c at N - 1 - c; the rows with x_{n-1} dividing m lie in
        the shadow's span.  The rank is that of all the rows.  Generators
        of mixed degrees, a zero form, one above degree j, small blocks and
        no cached tables are drawn."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        degrees = data.draw(st.lists(st.integers(0, j - 1), min_size=1, max_size=3))
        degrees += [j] * data.draw(st.integers(0, 2))
        gens = [random_form(n, e, p, rng) for e in degrees]
        gens.append(HomogeneousForm(n, j - 1, np.zeros(grade_size(n, j - 1))))
        gens.append(random_form(n, j + 1, p, rng))
        below = runs._ideal_piece(gens, j - 1, p)
        assume(below is not None)
        cached = data.draw(st.sampled_from([monomials._CACHED_ENTRIES, 0]))
        batch = data.draw(st.sampled_from([runs._BATCH_ENTRIES, 1, 3 * grade_size(n, j)]))
        fed = []
        add_rows = RankAccumulator.add_rows

        def record(acc, rows):
            fed.extend(np.array(rows))
            return add_rows(acc, rows)

        with _cached_entries(cached), \
                mock.patch.object(runs, "_BATCH_ENTRIES", batch), \
                mock.patch.object(RankAccumulator, "add_rows", record):
            acc = runs._ideal_piece(gens, j, p, below=below)
        assert exponents(n, 1)[0][n - 1] == 1
        want = [multiply(g, monomial_form(n, m, p), p).coeffs[::-1]
                for g in gens if g.degree <= j and not g.is_zero
                for m in exponents(n, j - g.degree).tolist() if m[n - 1] == 0]
        if acc.rank < grade_size(n, j):
            assert len(fed) == len(want)
        assert len(fed) <= len(want)
        assert all(np.array_equal(a, b) for a, b in zip(fed, want))
        rows = _brute_rows(gens, j, p)
        assert acc.rank == rank_of(np.array(rows), p)


class TestSketchedBlocks:
    """Blocks of a piece built on the degree below are fed as random
    combinations of their rows first (_feed_sketched)."""

    NCOLS, HELD, ROWS = 150, 40, 100

    @classmethod
    def _block(cls, p, t, rows=ROWS):
        """Rows spanning cls.HELD dimensions, and a block of random
        combinations of those and of t more, with a unit at scattered
        leads so that the ranks are known exactly at every p."""
        rng = np.random.default_rng([p, t, rows])
        gens = rng.integers(0, p, size=(cls.HELD + t, cls.NCOLS), dtype=np.int64)
        leads = np.sort(rng.choice(cls.NCOLS, cls.HELD + t, replace=False))
        for i, c in enumerate(leads):
            gens[i, :c] = 0
            gens[i, c] = 1
        held = gens[rng.permutation(cls.HELD)]
        mix = rng.integers(0, p, size=(rows, cls.HELD + t), dtype=np.int64)
        block = matmul_mod(mix, gens, p)
        assert rank_of(held, p) == cls.HELD
        assert rank_of(np.vstack([held, block]), p) == cls.HELD + t
        return held, block

    @staticmethod
    def _same_echelon(acc, exact):
        """The same pivots and reduced basis; the row order is the order
        the pivots were found in, which a sketch may change."""
        a, b = np.argsort(acc.pivots), np.argsort(exact.pivots)
        return (np.array_equal(acc.pivots[a], exact.pivots[b])
                and np.array_equal(acc.basis[a], exact.basis[b]))

    @staticmethod
    def _feed(held, block, p, rng):
        """The sketched accumulator, the unsketched one, and the size of
        every block the sketched one was fed after the held rows."""
        acc, exact = RankAccumulator(held.shape[1], p), RankAccumulator(held.shape[1], p)
        acc.add_rows(held)
        exact.add_rows(held)
        exact.add_rows(block)
        with mock.patch.object(RankAccumulator, "add_rows", autospec=True,
                               side_effect=RankAccumulator.add_rows) as spy:
            runs._feed_sketched(acc, lambda: rng, block)
        return acc, exact, [c.args[1].shape[0] for c in spy.call_args_list]

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    @pytest.mark.parametrize("t", [0, 1, 13, 24, 25, 28, 32, 33, 60])
    def test_sketch_is_accepted_only_below_the_margin(self, p, t):
        """t <= 24 new dimensions: the 32 combinations are the block's
        only rows.  24 < t <= 32 (the fallback band) and t > 32: the
        combinations gain more than 24 pivots, so the block is fed too.
        Either way the rank is that of the stacked rows and the pivots and
        reduced basis are the unsketched accumulator's."""
        held, block = self._block(p, t)
        acc, exact, fed = self._feed(held, block, p, np.random.default_rng(t))
        k = runs._SKETCH_ROWS
        assert fed == ([k] if t <= k - runs._SKETCH_MARGIN else [k, self.ROWS])
        assert acc.rank == rank_of(np.vstack([held, block]), p) == exact.rank
        assert self._same_echelon(acc, exact)

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    def test_blocks_up_to_the_threshold_are_fed_as_they_are(self, p):
        rows = runs._SKETCH_MIN_ROWS
        for size, fed_want in ((rows, [rows]), (rows + 1, [runs._SKETCH_ROWS])):
            held, block = self._block(p, 5, rows=size)
            acc, exact, fed = self._feed(held, block, p, np.random.default_rng(0))
            assert fed == fed_want
            assert self._same_echelon(acc, exact)

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    def test_the_sketch_is_the_trials_own_stream(self, p, monkeypatch):
        """A full-Hilbert run draws each trial's sketches, in order, from
        _rng(seed, _TAG_SKETCH, trial), made once per trial, and no other
        stream draws a sketch."""
        streams, products = [], []
        rng, mm = runs._rng, runs.matmul_mod

        def record_rng(*path):
            streams.append(path)
            return rng(*path)

        def record_mm(a, b, q):
            products.append(np.array(a))
            return mm(a, b, q)

        monkeypatch.setattr(runs, "_rng", record_rng)
        monkeypatch.setattr(runs, "matmul_mod", record_mm)
        cfg = PrimeFieldConfig(p=p, trials=2, seed=31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle_run(inst(4, 3, [3, 2, 2]), cfg, want_hilbert=True)
        sketch_streams = [s for s in streams if s[1] == runs._TAG_SKETCH]
        assert sketch_streams == [(31, runs._TAG_SKETCH, 0), (31, runs._TAG_SKETCH, 1)]
        assert [s.shape for s in products] == [(runs._SKETCH_ROWS, 66)] * 2
        want = [rng(31, runs._TAG_SKETCH, t).integers(0, p, size=s.shape)
                for t, s in enumerate(products)]
        assert all(np.array_equal(a, b) for a, b in zip(products, want))

    def test_degree_d_runs_never_sketch(self, monkeypatch):
        """oracle_run at degree d alone and a sweep feed the rank kernel
        their rows as they are: no sketch stream is made.  The same
        instance with want_hilbert does sketch."""
        tags = []
        rng = runs._rng

        def record(seed, tag, *path):
            tags.append(tag)
            return rng(seed, tag, *path)

        monkeypatch.setattr(runs, "_rng", record)
        cfg = PrimeFieldConfig(trials=2, seed=31)
        oracle_run(inst(4, 3, [3, 2, 2]), cfg)
        sweep(SweepConfig(n_range=(4, 4), l_range=(3, 3), d_max=7, r_max=3,
                          oracle=cfg, workers=1))
        assert set(tags) == {runs._TAG_ORACLE}
        oracle_run(inst(4, 3, [3, 2, 2]), cfg, want_hilbert=True)
        assert runs._TAG_SKETCH in tags


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
        """Each trial's rank in the variables the linear factors leave
        equals the rank of the generators of the same points in all n
        variables, at small and large primes."""
        cases = ((4, 2, [2, 1]), (3, 2, [3, 1]), (5, 2, [3, 1]),
                 (3, 2, [1, 1]), (5, 2, [1, 1]), (3, 4, [2, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for p in (7, 10007, P_MAX):
                cfg = PrimeFieldConfig(p=p, trials=2, seed=9)
                for n, l, parts in cases:
                    run = oracle_run(inst(n, l, parts), cfg)
                    assert run.eliminated
                    for t, rank in enumerate(run.trial_ranks):
                        naive = same_points(n, l, parts, cfg, t)
                        assert rank == ideal_piece_rank(naive, sum(parts), p), \
                            (p, n, l, parts, t)

    def test_full_hilbert_samples_l_forms_per_trial(self, monkeypatch):
        """A [3, 1] run with l = 2 in 4 variables samples two cubics per
        trial, each in the 2 variables the linear factors leave; modulo
        those factors, eliminate_linear turns the same points' generators
        in 4 variables into exactly those cubics."""
        calls = []
        real = runs.random_form
        monkeypatch.setattr(runs, "random_form",
                            lambda n, e, *a: calls.append((n, e)) or real(n, e, *a))
        cfg = PrimeFieldConfig(trials=3)
        run = oracle_run(inst(4, 2, [3, 1]), cfg, want_hilbert=True)
        assert run.eliminated and len(run.hilbert) == 5
        assert calls == [(2, 3)] * 6
        gens = same_points(4, 2, [3, 1], cfg, 0)
        new_n, reduced = eliminate_linear(gens[:2], gens[2:], cfg.p)
        sampled = [real(2, 3, cfg.p, runs._rng(cfg.seed, runs._TAG_ORACLE, 4, 0, point, 0))
                   for point in range(2)]
        assert new_n == 2 and len(reduced) == 2
        assert all(np.array_equal(f.coeffs, g.coeffs) for f, g in zip(reduced, sampled))

    @pytest.mark.parametrize("case", [(4, 2, [3, 1]), (5, 2, [2, 1]), (4, 1, [1, 1]),
                                      (6, 2, [1, 1]), (3, 3, [2, 1]), (20, 19, [4, 1])])
    def test_linear_factor_cells_sample_in_the_variables_left(self, case, monkeypatch):
        """On [d-1, 1] and [1, 1] cells no tangent generator is built, no
        linear form is eliminated, and every form is sampled in the
        n_vars variables the linear factors leave: one per point, or none
        for [1, 1] or when n_vars = 0."""
        n, l, parts = case
        n_vars = max(0, n - (2 * l if parts == [1, 1] else l))

        def refuse(*args):
            raise AssertionError("not on the sampled path")

        sampled = []
        real = runs.random_form
        monkeypatch.setattr(runs, "random_form",
                            lambda v, *a: sampled.append(v) or real(v, *a))
        for name in ("tangent_generators", "_point_generators"):
            monkeypatch.setattr(runs, name, refuse)
        monkeypatch.setattr(forms, "eliminate_linear", refuse)
        run = oracle_run(inst(n, l, parts), PrimeFieldConfig(trials=2),
                         want_hilbert=True)
        assert run.eliminated and run.columns == grade_size(n_vars, sum(parts))
        forms_per_trial = l if parts != [1, 1] and n_vars else 0
        assert sampled == [n_vars] * (2 * forms_per_trial)

    def test_engine_takes_the_minimum_and_stops_at_target(self):
        """A fake sampler whose trial t takes the first t % 3 + 1 of 3
        variables as generators, so its Hilbert function at degrees 0, 1 is
        (1, 2 - t % 3)."""
        p = 10007
        seen = []

        def sample(trial):
            seen.append(trial)
            return [monomial_form(3, e, p)
                    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))[:trial % 3 + 1]]

        def run(degrees, target):
            (best,), _, per_trial = runs._levels_over_trials(
                sample, (3,), degrees, 1, "test run", cfg, (target,))
            return best, [hf for hf, in per_trial]

        cfg = PrimeFieldConfig(p=p, trials=5)
        best, per_trial = run(range(2), None)
        assert seen == [0, 1, 2, 3, 4]
        assert per_trial == [(1, 2), (1, 1), (1, 0), (1, 2), (1, 1)]
        assert best == (1, 0)
        seen.clear()
        best, per_trial = run([1], (1,))
        assert seen == [0, 1] and per_trial == [(2,), (1,)] and best == (1,)
        seen.clear()
        best, per_trial = run([1], (5,))
        assert seen == [0, 1, 2, 3, 4] and best == (0,)

    def test_driver_checks_the_guard_before_sampling(self):
        """The driver's column guard, on the top level's widest piece,
        trips before the sampler is called; a guard one column wider
        admits the run, which samples once per trial."""
        seen = []

        def sample(trial):
            seen.append(trial)
            return [monomial_form(4, (1, 0, 0, 0), 10007)]

        def run(max_columns):
            cfg = PrimeFieldConfig(p=10007, trials=2, max_columns=max_columns)
            return runs._levels_over_trials(sample, (4, 3), range(4), 1,
                                            "test run", cfg, (None, None))

        with pytest.raises(ResourceGuardExceeded,
                           match="test run: matrix would have 20 columns, guard is 19"):
            run(19)
        assert seen == []
        best, used, _ = run(20)
        assert seen == [0, 1] and used == [2, 2]
        assert best == [(1, 3, 6, 10), (1, 2, 3, 4)]

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 7])
    def test_rng_streams_equal_the_tuple_entropy(self, seed):
        """_rng hands SeedSequence uint32 words; its pool, its state and its
        first draws equal those of the tuple form, for seeds and paths of
        one, two and three 32-bit words."""
        for path in ((), (0, 3, 1, 2, 0), (runs._TAG_FROEBERG, 2**40 + 1, 7)):
            want = np.random.SeedSequence(entropy=(seed, *path))
            got = runs._rng(seed, *path)
            assert np.array_equal(got.bit_generator.seed_seq.pool, want.pool)
            assert np.array_equal(got.bit_generator.seed_seq.generate_state(8),
                                  want.generate_state(8))
            ref = np.random.default_rng(want)
            assert np.array_equal(got.integers(0, P_MAX, size=20),
                                  ref.integers(0, P_MAX, size=20))
            assert got.random() == ref.random()
        with pytest.raises(ValueError):
            runs._rng(seed, -1)

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

    def test_failure_bound_warns_once_per_run(self):
        """35 columns at degree 4 times entries of degree r - 1 = 3 pass
        p = 101, though 35 alone does not; a full-Hilbert run sums its
        degrees and still warns once.  At a large prime nothing warns."""
        cfg = PrimeFieldConfig(p=101, trials=2)
        with pytest.warns(UserWarning, match="failure bound") as caught:
            oracle_run(inst(4, 2, [1, 1, 1, 1]), cfg)
        assert len(caught) == 1
        with pytest.warns(UserWarning, match="failure bound") as caught:
            oracle_run(inst(4, 2, [1, 1, 1, 1]), cfg, want_hilbert=True)
        assert len(caught) == 1
        # linear entries: 1 + 3 + 6 columns over degrees 0..2 reach p = 7
        with pytest.warns(UserWarning, match="failure bound"):
            froeberg_oracle_r2(3, 1, 1, 2, PrimeFieldConfig(p=7, trials=1))
        # two ladder levels in 4 and 3 variables, 15 and 10 columns
        with pytest.warns(UserWarning, match="failure bound") as caught:
            wlp_consequence_check(inst(3, 2, [1, 1]), PrimeFieldConfig(p=13, trials=1))
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle_run(inst(4, 2, [1, 1, 1, 1]), PrimeFieldConfig(trials=1),
                       want_hilbert=True)

    def test_guard_names_the_context(self, monkeypatch):
        with pytest.raises(ResourceGuardExceeded) as err:
            oracle_run(inst(5, 4, [4, 3]), PrimeFieldConfig(max_columns=10))
        assert "330" in str(err.value)
        # [3, 1] at n = 6, l = 2 samples its cubics in the 4 variables the
        # linear factors leave, where the degree-4 piece has 35 columns: a
        # guard of 34 refuses the run before any form is sampled, and a
        # guard of 35 admits it.
        def refuse(*args):
            raise AssertionError("a form was sampled")

        with monkeypatch.context() as m:
            m.setattr(runs, "random_form", refuse)
            with pytest.raises(ResourceGuardExceeded) as err:
                oracle_run(inst(6, 2, [3, 1]),
                           PrimeFieldConfig(trials=1, max_columns=34))
            assert "35 columns" in str(err.value)
        run = oracle_run(inst(6, 2, [3, 1]), PrimeFieldConfig(trials=1, max_columns=35))
        assert run.eliminated and run.columns == 35
        # [4, 1] at n = 20, l = 19 leaves one variable: the run has one
        # column, and its 19 cubics are sampled in that variable alone.
        sampled = []
        real = runs.random_form
        monkeypatch.setattr(runs, "random_form",
                            lambda v, *a: sampled.append(v) or real(v, *a))
        run = oracle_run(inst(20, 19, [4, 1]), PrimeFieldConfig(trials=1, max_columns=1))
        assert run.eliminated and run.columns == 1 and run.fills
        assert sampled == [1] * 19

    def test_failure_bound_counts_the_sampled_matrices(self):
        """On [d-1, 1] the bound sums the widths in the n - l variables a
        run samples in, not in n: one column at n = 20, l = 19 passes
        p = 10007 (42504 columns in 20 variables would not), and degrees
        0..5 in 9 variables have 2002 columns (6188 in 12 variables)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle_run(inst(20, 19, [4, 1]), PrimeFieldConfig(p=10007, trials=1))
        with pytest.warns(UserWarning, match="failure bound") as caught:
            oracle_run(inst(12, 3, [4, 1]), PrimeFieldConfig(p=1009, trials=1),
                       want_hilbert=True)
        assert len(caught) == 1
        assert "failure bound 2002 x 1 / p" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_table_guard_stops_before_the_table(self):
        """A factor product whose multiplication table would pass
        _TABLE_LIMIT entries raises the resource guard, naming the table's
        size, before the table is built."""
        with pytest.raises(ResourceGuardExceeded, match="517714600 entries"):
            mul_table(4, 50, 49)
        with pytest.raises(ResourceGuardExceeded, match=r"mul_table\(4, 50, 49\)"):
            oracle_run(inst(4, 2, [50, 49, 1]), PrimeFieldConfig(trials=1))

    def test_product_takes_its_table_before_the_product(self):
        """multiply asks for the table first, so a product past the table
        guard refuses before the outer product of the coefficients, 4 GB
        here, is formed."""
        rng = np.random.default_rng(0)
        f, g = random_form(4, 50, P_TEST, rng), random_form(4, 49, P_TEST, rng)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardExceeded, match="517714600 entries"):
                multiply(f, g, P_TEST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_computed_rows_cost_their_output_and_bounded_scratch(self):
        """A table too large to cache (C(62, 2)^2 entries) is computed a
        block of rows at a time, so a request costs its output plus
        scratch of fixed size."""
        exponents(3, 60)
        tracemalloc.start()
        try:
            table = monomials.table_rows(3, 60, 60, 0, 1891)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (1891, 1891)
        assert np.array_equal(table[1000], rank_rows(exponents(3, 60)[1000] + exponents(3, 60)))
        assert peak < table.nbytes + (64 << 20)


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
        """The ladders at n = 4 and n = 5 are read off one memoised run:
        the first call runs it, the second finds it, and the n = 5 ladder
        is the top of the n = 4 one, as the very same results."""
        cfg = PrimeFieldConfig(trials=1, seed=424242)
        before = runs._ladder.cache_info()
        low = wlp_consequence_check(inst(4, 3, [2, 1]), cfg)
        high = wlp_consequence_check(inst(5, 3, [2, 1]), cfg)
        after = runs._ladder.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
        assert [lv.variables for lv in low.levels] == [6, 5, 4]
        assert high.levels == low.levels[:2]
        assert all(a is b for a, b in zip(high.levels, low.levels))

    # (l, parts) families for the ladder reads: two or three points, two to
    # four parts, degrees 2 to 5.
    FAMILIES = ((2, (1, 1)), (2, (2, 1)), (2, (3, 1)), (2, (2, 2)),
                (3, (1, 1, 1)), (3, (2, 1)), (3, (2, 2)), (2, (2, 1, 1, 1)))

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    def test_levels_are_the_top_points_restricted(self, p):
        """Every level of a one-trial ladder (n = 3, so levels 2l..3) is
        the Hilbert function of the top run's points, sampled in m = 2l
        variables, with x_v, ..., x_{m-1} set to zero: ranked here by
        brute-force colex rows of the restricted generators, one degree at
        a time.  p = 7 makes degenerate points likely, which the equality
        must survive."""
        cfg = PrimeFieldConfig(p=p, trials=1, seed=17)
        for l, parts in self.FAMILIES:
            gens = [g for point in range(l)
                    for g in runs._point_generators(2 * l, parts, p, cfg.seed,
                                                    runs._TAG_WLP, 0, point)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = wlp_consequence_check(inst(3, l, list(parts)), cfg)
            assert [lv.variables for lv in res.levels] == list(range(2 * l, 2, -1))
            for lv in res.levels:
                want = _restricted_hilbert(gens, lv.variables, sum(parts), p)
                assert lv.observed == want, (l, parts, lv.variables)

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    def test_an_unmatched_level_takes_every_trial_alone(self, p, monkeypatch):
        """With the 5-variable target out of reach, that level uses every
        trial and reports no match, while every other level keeps the
        result, trial count included, of the unpatched run: a level stops
        at its first match though the trials go on."""
        cfg = PrimeFieldConfig(p=p, trials=3, seed=23)
        parts, l = (2, 1), 3
        real = runs.predicted_hilbert

        def target(v, l, parts):
            series = real(v, l, parts)
            if v != 5:
                return series
            return TruncatedSeries((-1,) + series.coeffs[1:])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = runs._ladder.__wrapped__(parts, l, cfg)
            monkeypatch.setattr(runs, "predicted_hilbert", target)
            patched = runs._ladder.__wrapped__(parts, l, cfg)
        assert sorted(patched) == sorted(plain) == [3, 4, 5, 6]
        assert patched[5].trials_used == cfg.trials
        assert patched[5].matched is False and patched[5].predicted[0] == -1
        for v in (3, 4, 6):
            assert patched[v] == plain[v], v
        if p != 7:
            assert all(lv.trials_used == 1 and lv.matched for lv in plain.values())
            assert patched[5].observed == plain[5].observed

    @pytest.mark.parametrize("p", [7, 10007, P_MAX])
    def test_guard_skips_leave_the_rest_to_the_largest_admitted_count(
            self, p, monkeypatch):
        """[2, 1] at l = 3 has 56, 35, 20 and 10 cubic columns in 6, 5, 4
        and 3 variables.  Under a guard of 35 the 6-variable level is
        skipped with its reason, the points are sampled in 5 variables
        only, and every lower level is read off that run."""
        cfg = PrimeFieldConfig(p=p, trials=1, seed=29, max_columns=35)
        sampled = []
        real = runs._point_generators
        monkeypatch.setattr(runs, "_point_generators",
                            lambda n, *rest: sampled.append(n) or real(n, *rest))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = wlp_consequence_check(inst(3, 3, [2, 1]), cfg)
        assert [lv.skipped_reason for lv in res.levels] == [
            "degree-3 piece in 6 variables has 56 columns, guard is 35",
            None, None, None]
        top = res.levels[0]
        assert (top.observed, top.matched, top.trials_used) == (None, None, 0)
        assert top.predicted == predicted_hilbert(6, 3, [2, 1]).coeffs
        assert set(sampled) == {5}
        gens = [g for point in range(3)
                for g in real(5, (2, 1), p, cfg.seed, runs._TAG_WLP, 0, point)]
        for lv in res.levels[1:]:
            assert lv.observed == _restricted_hilbert(gens, lv.variables, 3, p)


def _restricted_hilbert(gens, v, d, p):
    """Hilbert function through degree d of the generators with
    x_v, ..., x_{n-1} set to zero, as forms in v variables, from
    brute-force colex rows and rank_of, one degree at a time."""
    restricted = []
    for g in gens:
        exps = exponents(g.n, g.degree)
        keep = ~exps[:, v:].any(axis=1)
        coeffs = np.zeros(grade_size(v, g.degree), np.int64)
        coeffs[rank_rows(exps[keep, :v])] = g.coeffs[keep]
        restricted.append(HomogeneousForm(v, g.degree, coeffs))
    hf = []
    for j in range(d + 1):
        rows = np.array(_brute_rows(restricted, j, p), np.int64)
        hf.append(grade_size(v, j) - rank_of(rows.reshape(-1, grade_size(v, j)), p))
    return tuple(hf)


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

    def test_guard_stops_before_sampling(self, monkeypatch):
        """The degree-5 piece in 6 variables has 252 columns: a guard of
        251 refuses the run before any form is sampled, 252 admits it."""
        def refuse(*args):
            raise AssertionError("a form was sampled")

        with monkeypatch.context() as m:
            m.setattr(runs, "random_form", refuse)
            with pytest.raises(ResourceGuardExceeded) as err:
                froeberg_oracle_r2(6, 2, 2, 5, PrimeFieldConfig(max_columns=251))
        assert str(err.value) == ("generic-forms run (n=6, d=5): matrix would "
                                  "have 252 columns, guard is 251")
        chk = froeberg_oracle_r2(6, 2, 2, 5, PrimeFieldConfig(trials=1, max_columns=252))
        assert chk.froeberg_match

    def test_oversized_series_is_refused_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a form was sampled")

        monkeypatch.setattr(runs, "random_form", refuse)
        with pytest.raises(ValueError, match="would cost"):
            froeberg_oracle_r2(4, 300_000, 1, 20001, PrimeFieldConfig())

    def test_over_wide_piece_is_refused_before_the_recursive_reference(self):
        """(1 - t^5000)^1000 / (1-t)^4 through degree 10000 expands at once,
        but the degree-10000 piece in 4 variables has 166,766,685,001 columns:
        the guard raises before the recursive reference's 1,000 passes over
        10,001 degrees (seconds of work) start."""
        start = time.perf_counter()
        with pytest.raises(ResourceGuardExceeded, match="166766685001 columns"):
            froeberg_oracle_r2(4, 500, 5000, 10000, PrimeFieldConfig())
        assert time.perf_counter() - start < 1.0


class TestFrozenFullHilbert:
    def test_full_hilbert_json_matches_frozen_digest(self):
        """Every degree 0..d of the ladder, of want_hilbert runs (one on the
        elimination path, one at the largest admitted prime) and of the
        generic-forms comparison; the sweep CSV digests only see degree d.
        The digest was taken before the Terracini rows were gathered from
        cached index tables, and before blocks were sketched.  The ladder
        cache is cleared so that the ladders run here, and some blocks of
        these runs are sketched, so the digest gates that path too."""
        runs._ladder.cache_clear()
        cfg = PrimeFieldConfig(trials=2, seed=31)
        big_p = PrimeFieldConfig(p=P_MAX, trials=2, seed=31)
        with mock.patch.object(runs, "_feed_sketched", wraps=runs._feed_sketched) as fed:
            ladders = [wlp_consequence_check(inst(4, 3, part.parts), cfg).to_json()
                       for d in range(2, 6) for part in enumerate_partitions(d, 2, 4)]
            hilbert_runs = [
                oracle_run(inst(n, l, parts), c, want_hilbert=True).to_json()
                for n, l, parts, c in ((3, 2, [2, 2], cfg), (4, 2, [3, 1], cfg),
                                       (5, 2, [2, 2, 1], cfg), (4, 3, [3, 2, 2], cfg),
                                       (3, 3, [3, 2, 1, 1], cfg), (4, 2, [3, 2], big_p))
            ]
            froeberg = froeberg_oracle_r2(4, 2, 2, 5, cfg).to_json()
        sketched = sum(c.args[2].shape[0] > runs._SKETCH_MIN_ROWS
                       for c in fed.call_args_list)
        assert sketched >= 1
        assert hilbert_runs[1]["eliminated"]
        doc = json.dumps({"ladders": ladders, "runs": hilbert_runs,
                          "froeberg": froeberg}, sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "2de59f180fcc1702787410c50250adbbfd1fa81996f3441ba9727e562c04995c")
