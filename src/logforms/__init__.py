"""Exact census and asymptotic checks for distinct rationals built from
bounded integer powers a_1**b_1 * ... * a_n**b_n with 1 <= a_i <= A_i and
|b_i| <= B_i.

The library enumerates the set of distinct values exactly, constructs the
filtered set of unique representatives via three exclusion conditions, counts
each condition against its theoretical envelope, and evaluates the
block-decomposition main term the exact counts converge to.
"""

from .core import (
    Bounds,
    BudgetError,
    ConfigError,
    FactorTable,
    FormTuple,
    Permutation,
    build_factor_table,
    factorize,
)
from .conditions import (
    FilterParameter,
    count_e_set,
    default_cutoff,
    has_smooth_base,
)
from .smooth import (
    ConditionReport,
    check_condition,
    condition_bound,
    count_bounded_relation,
    count_large_prime_power,
    count_smooth_base,
    smooth_count,
)
from .asymptotics import (
    BlockIndex,
    leading_term_envelope,
    main_term,
    main_term_exact,
    permanent_brute,
    permanent_ryser,
    symmetric_leading_term,
)
from .census import (
    CensusReport,
    ConvergenceResult,
    OrbitViolation,
    convergence_run,
    count_distinct_rationals,
    permissibility_closed_form,
    possible_count,
    run_census,
    verify_unique_representation,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "BudgetError",
    "ConfigError",
    "FactorTable",
    "FormTuple",
    "Permutation",
    "build_factor_table",
    "factorize",
    "FilterParameter",
    "count_e_set",
    "default_cutoff",
    "has_smooth_base",
    "ConditionReport",
    "check_condition",
    "condition_bound",
    "count_bounded_relation",
    "count_large_prime_power",
    "count_smooth_base",
    "smooth_count",
    "BlockIndex",
    "leading_term_envelope",
    "main_term",
    "main_term_exact",
    "permanent_brute",
    "permanent_ryser",
    "symmetric_leading_term",
    "CensusReport",
    "ConvergenceResult",
    "OrbitViolation",
    "convergence_run",
    "count_distinct_rationals",
    "permissibility_closed_form",
    "possible_count",
    "run_census",
    "verify_unique_representation",
    "__version__",
]
