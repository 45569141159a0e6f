"""Exact smooth-number counts and envelope checks for the three filter conditions.

``smooth_count`` evaluates the classical count of y-smooth integers in [1, x]
exactly via a greatest-prime-factor sieve.  The per-condition counters return
how many base (or exponent) tuples in a box satisfy each exclusion filter from
:mod:`logforms.conditions`; each has a theoretical envelope it should stay
under (up to an absolute constant), evaluated by ``condition_bound``:

* condition 1: prod(A_i) * (ln C)**n / sqrt(C)
* condition 2: prod(A_i) * sum_i exp(-u_i / 2) with C**u_i = A_i
* condition 3: prod(B_i) * sum_i (9 ln C)**n / B_i

Counts are exact, never sampled.  Conditions 1 and 3 are counted on the
filter engines of :mod:`logforms.conditions`, the ones the e-set count uses;
all agree with direct enumeration (property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_BUDGET, Bounds, FactorTable, np
from .conditions import FilterParameter, _charge_clean, _clean_tuples, _unrelated_rows

__all__ = [
    "ConditionReport",
    "smooth_count",
    "count_large_prime_power",
    "count_smooth_base",
    "count_bounded_relation",
    "condition_bound",
    "check_condition",
]


def smooth_count(x: int, y: float, table: FactorTable) -> int:
    """Exact number of y-smooth integers in [1, x]; 1 is smooth for every y."""
    x = int(x)
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > table.limit:
        raise ValueError(f"x = {x} exceeds factor table limit {table.limit}")
    return int(np.count_nonzero(table.gpf()[1 : x + 1] <= y))


def count_large_prime_power(
    bounds: Bounds,
    param: FilterParameter,
    table: FactorTable,
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact count of base tuples in the box satisfying condition 1: the box less
    its clean tuples, as counted and charged for the e-set."""
    _charge_clean(bounds.base_max, budget)
    every = np.ones(max(bounds.base_max) + 1, dtype=bool)
    clean = _clean_tuples(bounds.base_max, every, param.cutoff, table)
    return math.prod(bounds.base_max) - clean


def count_smooth_base(
    bounds: Bounds, param: FilterParameter, table: FactorTable
) -> int:
    """Exact count of base tuples satisfying condition 2.

    The coordinates are independent, so the count of tuples with at least one
    smooth base is prod(A_i) - prod(A_i - smooth_count(A_i, C)).
    """
    smooth = [smooth_count(a, param.cutoff, table) for a in bounds.base_max]
    total = math.prod(bounds.base_max)
    none_smooth = math.prod(a - s for a, s in zip(bounds.base_max, smooth))
    return total - none_smooth


def count_bounded_relation(
    bounds: Bounds, param: FilterParameter, *, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact count of exponent tuples in the box satisfying condition 3: the box
    less its unrelated rows, as counted and charged for the e-set."""
    space = math.prod(2 * b + 1 for b in bounds.exp_max)
    return space - _unrelated_rows(bounds.exp_max, param, budget)


def condition_bound(condition: int, bounds: Bounds, param: FilterParameter) -> float:
    """Theoretical envelope for the exact count of the given condition (1..3)."""
    n = bounds.n
    log_c = math.log(param.cutoff)
    if condition == 1:
        return math.prod(bounds.base_max) * log_c**n / math.sqrt(param.cutoff)
    if condition == 2:
        tail = sum(math.exp(-math.log(a) / log_c / 2.0) for a in bounds.base_max)
        return math.prod(bounds.base_max) * tail
    if condition == 3:
        tail = sum((9.0 * log_c) ** n / b for b in bounds.exp_max)
        return math.prod(bounds.exp_max) * tail
    raise ValueError(f"condition must be 1, 2 or 3, got {condition}")


@dataclass(frozen=True)
class ConditionReport:
    """Exact count of one condition against its envelope on one box."""

    condition: int
    exact_count: int
    bound_value: float
    ratio: float


def check_condition(
    condition: int,
    bounds: Bounds,
    param: FilterParameter,
    table: FactorTable,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ConditionReport:
    """Measure one condition's exact count against its envelope; 1 and 3 are charged."""
    if condition == 1:
        count = count_large_prime_power(bounds, param, table, budget=budget)
    elif condition == 2:
        count = count_smooth_base(bounds, param, table)
    elif condition == 3:
        count = count_bounded_relation(bounds, param, budget=budget)
    else:
        raise ValueError(f"condition must be 1, 2 or 3, got {condition}")
    bound = condition_bound(condition, bounds, param)
    return ConditionReport(condition, count, bound, count / bound)
