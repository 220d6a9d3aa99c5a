"""Homogeneous forms over Z/p on the dense graded monomial basis.

A form is its coefficient vector, indexed by the colex rank of the exponent
vector.  A product of forms of degrees a and b adds each coefficient pair into
the monomial its multiplication table names.  Tangent-cone generators
G_k = prod_{i != k} F_i come from prefix and suffix partial products
(3r - 6 products for r >= 3 factors, none for two), so neither
polynomial division nor a product by the unit form is ever needed.
eliminate_linear quotients by linear generators exactly, shrinking the
ring: the reduced echelon form of the linear forms, read from the rank
kernel's RankAccumulator, sends each variable to a linear form in the free
variables, and every other form is rewritten through that one substitution,
monomial by monomial.  It is public API and a reference for the tests, and
no run of the oracle or the sweep calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def multiply(f: HomogeneousForm, g: HomogeneousForm, p: int) -> HomogeneousForm:
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    # the table first, so its guard refuses before the product is formed; a
    # monomial gets at most isqrt(_TABLE_LIMIT) residues < 2^27: exact int64
    table = mul_table(f.n, f.degree, g.degree)
    prod = np.multiply.outer(f.coeffs, g.coeffs)
    prod %= p
    out = np.zeros(grade_size(f.n, f.degree + g.degree), np.int64)
    np.add.at(out, table, prod)
    return HomogeneousForm(f.n, f.degree + g.degree, out % p)


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


def eliminate_linear(linear_forms, other_forms, p: int):
    """Quotient by the span of the given linear forms, exactly.

    Returns (new_n, reduced_forms): the span has some rank q, the free
    variables of its reduced echelon form (in variable order) are the
    new_n = n - q variables left, each pivot variable is replaced by its
    expression in them, and every other form is rewritten there.
    new_n = 0 means the linear forms span every variable.
    """
    linear_forms = list(linear_forms)
    other_forms = list(other_forms)
    if not linear_forms:
        return (other_forms[0].n if other_forms else 0), other_forms
    n = linear_forms[0].n
    acc = RankAccumulator(n, p)
    # a linear form lists x_v's coefficient at the colex rank of e_v
    by_variable = rank_rows(np.eye(n, dtype=np.int64))
    acc.add_rows(np.stack([f.coeffs[by_variable] for f in linear_forms]))
    m = n - acc.rank
    if m == 0:
        return 0, []
    free = np.setdiff1d(np.arange(n), acc.pivots)
    # image[v] = x_v in the free variables, the j-th at the colex rank of
    # e_j: itself, or minus its RREF row
    col = rank_rows(np.eye(m, dtype=np.int64))
    image = np.zeros((n, m), np.int64)
    image[free, col] = 1
    image[acc.pivots[:, None], col] = -acc.basis[:, free] % p
    images = [HomogeneousForm(m, 1, row) for row in image]

    def rewrite(f: HomogeneousForm) -> HomogeneousForm:
        out = np.zeros(grade_size(m, f.degree), np.int64)
        for exponent, c in zip(exponents(n, f.degree), f.coeffs):
            if c:
                term = HomogeneousForm(m, 0, [c])
                for v in np.repeat(np.arange(n), exponent):
                    term = multiply(term, images[v], p)
                out += term.coeffs
        return HomogeneousForm(m, f.degree, out % p)

    return m, [rewrite(f) for f in other_forms]
