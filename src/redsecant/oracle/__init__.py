"""Exact Terracini rank oracle over a large prime field."""

from .forms import (
    HomogeneousForm,
    eliminate_linear,
    monomial_form,
    multiply,
    random_form,
    tangent_generators,
)
from .modmat import RankAccumulator, matmul_mod, rank_of
from .monomials import (
    exponents,
    grade_size,
    mul_table,
    rank_exponent,
    rank_rows,
    unrank_exponent,
)
from .runs import (
    FroebergCheck,
    OracleRun,
    PrimeFieldConfig,
    ResourceGuardExceeded,
    WlpCheckResult,
    WlpLevel,
    froeberg_oracle_r2,
    ideal_piece_rank,
    is_prime,
    oracle_run,
    wlp_consequence_check,
)

__all__ = [
    "FroebergCheck",
    "HomogeneousForm",
    "OracleRun",
    "PrimeFieldConfig",
    "RankAccumulator",
    "ResourceGuardExceeded",
    "WlpCheckResult",
    "WlpLevel",
    "eliminate_linear",
    "exponents",
    "froeberg_oracle_r2",
    "grade_size",
    "ideal_piece_rank",
    "is_prime",
    "matmul_mod",
    "monomial_form",
    "mul_table",
    "multiply",
    "oracle_run",
    "random_form",
    "rank_exponent",
    "rank_of",
    "rank_rows",
    "tangent_generators",
    "unrank_exponent",
    "wlp_consequence_check",
]
