"""Homogeneous forms over Z/p on the dense graded monomial basis.

A form is its coefficient vector, indexed by the colex rank of the exponent
vector.  A product of forms of degrees a and b sums the coefficient pairs
that land on each monomial, grouped by an order read once per (n, a, b)
from the multiplication table and cached.  Tangent-cone generators
G_k = prod_{i != k} F_i come from prefix and suffix partial products
(3r - 6 products for r >= 3 factors, none for two), so neither
polynomial division nor a product by the unit form is ever needed.  The
linear-elimination helpers substitute pivot variables of linear generators
away exactly, shrinking the ring.  They are public API and a reference for
the tests, and no run of the oracle or the sweep calls them.  The pivots
and their expressions are the reduced echelon form of the linear forms,
read from the rank kernel's RankAccumulator; where each coefficient moves
depends only on (n, d, v) and is cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .modmat import RankAccumulator
from .monomials import exponents, grade_size, mul_table, rank_rows


@dataclass(frozen=True, eq=False)
class HomogeneousForm:
    """A form owns a read-only copy of its coefficients.  Two forms are
    equal only when they are the same object, as an array has no single
    truth value to compare by."""

    n: int
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        want = grade_size(self.n, self.degree)
        coeffs = np.array(self.coeffs, np.int64)
        if coeffs.shape != (want,):
            raise ValueError(
                f"degree-{self.degree} form in {self.n} variables needs "
                f"{want} coefficients, got shape {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __repr__(self) -> str:
        return f"HomogeneousForm(n={self.n}, degree={self.degree})"


def monomial_form(n: int, exponent, p: int, coefficient: int = 1) -> HomogeneousForm:
    """The single monomial x^exponent with the given coefficient."""
    exponent = tuple(int(e) for e in exponent)
    if len(exponent) != n or any(e < 0 for e in exponent):
        raise ValueError(f"bad exponent {exponent} for n={n}")
    d = sum(exponent)
    coeffs = np.zeros(grade_size(n, d), np.int64)
    coeffs[rank_rows(np.asarray([exponent]))[0]] = coefficient % p
    return HomogeneousForm(n, d, coeffs)


def random_form(n: int, e: int, p: int, rng: np.random.Generator) -> HomogeneousForm:
    """Uniform coefficients in Z/p over the full dense basis."""
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    return HomogeneousForm(n, e, rng.integers(0, p, size=grade_size(n, e), dtype=np.int64))


@lru_cache(maxsize=64)
def _product_plan(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The order that groups the entries of mul_table(n, a, b) by the
    monomial they land on, and where each monomial's group starts."""
    flat = mul_table(n, a, b).ravel()
    order = np.argsort(flat, kind="stable")
    landed = flat[order]
    starts = np.flatnonzero(np.diff(landed, prepend=-1))
    # every monomial of degree a + b is a product, so each has a group
    assert starts.size == grade_size(n, a + b)
    order.flags.writeable = False
    starts.flags.writeable = False
    return order, starts


def multiply(f: HomogeneousForm, g: HomogeneousForm, p: int) -> HomogeneousForm:
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    order, starts = _product_plan(f.n, f.degree, g.degree)
    prod = np.multiply.outer(f.coeffs, g.coeffs)
    prod %= p
    out = np.add.reduceat(prod.ravel()[order], starts) % p
    return HomogeneousForm(f.n, f.degree + g.degree, out)


def tangent_generators(factors, p: int) -> tuple[HomogeneousForm, ...]:
    """G_k = product of all factors except the k-th, via partial products."""
    factors = list(factors)
    r = len(factors)
    if r < 2:
        raise ValueError(f"need at least two factors, got {r}")
    n = factors[0].n
    if any(f.n != n for f in factors):
        raise ValueError("factors live in different variable counts")
    # prefix[k] = F_0 .. F_k and suffix[k] = F_{k+1} .. F_{r-1}, k < r - 1
    prefix = [factors[0]]
    for f in factors[1:-1]:
        prefix.append(multiply(prefix[-1], f, p))
    suffix = [factors[-1]]
    for f in reversed(factors[1:-1]):
        suffix.append(multiply(f, suffix[-1], p))
    suffix.reverse()
    inner = (multiply(prefix[k - 1], suffix[k], p) for k in range(1, r - 1))
    return (suffix[0], *inner, prefix[-1])


# ------------------------------------------------------------
# Exact elimination of linear generators
# ------------------------------------------------------------


def _variable_order(n: int) -> np.ndarray:
    """ranks[v] = colex rank of the unit exponent vector e_v."""
    return np.argsort(exponents(n, 1).argmax(axis=1))


@lru_cache(maxsize=256)
def _substitution_plan(n: int, d: int, v: int) -> tuple:
    """Entry k: the positions of the degree-d monomials with x_v^k exactly,
    and the ranks of those monomials with x_v dropped, in n-1 variables."""
    exps = exponents(n, d)
    plan = []
    for k in range(d + 1):
        source = np.flatnonzero(exps[:, v] == k)
        target = rank_rows(np.delete(exps[source], v, axis=1))
        source.flags.writeable = False
        target.flags.writeable = False
        plan.append((source, target))
    return tuple(plan)


def substitute_out(form: HomogeneousForm, v: int, replacement: np.ndarray,
                   p: int) -> HomogeneousForm:
    """Substitute x_v = replacement, a linear form in the other variables
    given as its degree-1 coefficient vector in n-1 variables.

    Writing form = sum_k x_v^k F_k with F_k free of x_v, the result is
    sum_k replacement^k * F_k in n-1 variables, exactly.
    """
    n, d = form.n, form.degree
    if n < 2:
        raise ValueError("cannot eliminate the last variable this way")
    out_n = n - 1
    out = np.zeros(grade_size(out_n, d), np.int64)
    lin = HomogeneousForm(out_n, 1, np.asarray(replacement, np.int64) % p)
    power = lin
    for k, (source, target) in enumerate(_substitution_plan(n, d, v)):
        fk = np.zeros(grade_size(out_n, d - k), np.int64)
        fk[target] = form.coeffs[source]
        if k == 0:
            out += fk
            continue
        if k > 1:
            power = multiply(power, lin, p)
        out += multiply(HomogeneousForm(out_n, d - k, fk), power, p).coeffs
    return HomogeneousForm(out_n, d, out % p)


def eliminate_linear(linear_forms, other_forms, p: int):
    """Quotient by the span of the given linear forms, exactly.

    Returns (new_n, reduced_forms): the span has some rank q, each pivot
    variable is substituted by its expression in the free variables
    (highest pivot first, so positions of the remaining pivots never move),
    and every other form is rewritten in the n - q surviving variables.
    new_n = 0 means the linear forms span every variable.
    """
    linear_forms = list(linear_forms)
    other_forms = list(other_forms)
    if not linear_forms:
        return (other_forms[0].n if other_forms else 0), other_forms
    n = linear_forms[0].n
    order = _variable_order(n)
    acc = RankAccumulator(n, p)
    acc.add_rows(np.stack([f.coeffs[order] for f in linear_forms]))
    q = acc.rank
    if q >= n:
        return 0, []
    # x_pivot = -(rest of its row); expressions involve free variables only.
    substitutions = sorted(zip(acc.pivots.tolist(), (-acc.basis) % p), reverse=True)
    forms = other_forms
    pending = [expr.copy() for _, expr in substitutions]
    for step, (v, _) in enumerate(substitutions):
        expr = pending[step]
        # expr lists coefficients by variable; a linear form, by colex rank
        replacement = np.empty(n - step - 1, np.int64)
        replacement[_variable_order(n - step - 1)] = np.delete(expr, v)
        forms = [substitute_out(f, v, replacement, p) for f in forms]
        for later in range(step + 1, q):
            # the coefficient at v is zero (RREF), so the column just drops
            pending[later] = np.delete(pending[later], v)
    return n - q, forms
