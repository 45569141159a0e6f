"""Exact counts of the three filter conditions against their envelopes.

``smooth_count`` evaluates the classical count of y-smooth integers in [1, x]
exactly via a greatest-prime-factor sieve.  ``check_condition`` counts how many
tuples of a box satisfy one exclusion filter from :mod:`logforms.conditions`,
and evaluates the envelope that count should stay under (up to an absolute
constant):

* condition 1: the base tuples, prod(A_i) less the clean tuples that the
  e-set count uses, charged as that count; envelope
  prod(A_i) * (ln C)**n / sqrt(C)
* condition 2: the base tuples with a C-smooth base, ``count_smooth_base``;
  envelope prod(A_i) * sum_i exp(-u_i / 2) with C**u_i = A_i
* condition 3: the exponent tuples, prod(2 B_i + 1) less the unrelated rows
  that the e-set count uses, charged as that count; envelope
  prod(B_i) * sum_i (9 ln C)**n / B_i

Counts are exact, never sampled, and all agree with direct enumeration
(property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_BUDGET, Bounds, FactorTable, np
from .conditions import FilterParameter, _charge_clean, _clean_tuples, _unrelated_rows

__all__ = [
    "ConditionReport",
    "smooth_count",
    "count_smooth_base",
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
    """Measure one condition's (1..3) exact count against its envelope; 1 and 3 are charged."""
    n = bounds.n
    log_c = math.log(param.cutoff)
    if condition == 1:
        _charge_clean(bounds.base_max, budget)
        every = np.ones(max(bounds.base_max) + 1, dtype=bool)
        clean = _clean_tuples(bounds.base_max, every, param.cutoff, table)
        count = math.prod(bounds.base_max) - clean
        bound = math.prod(bounds.base_max) * log_c**n / math.sqrt(param.cutoff)
    elif condition == 2:
        count = count_smooth_base(bounds, param, table)
        tail = sum(math.exp(-math.log(a) / log_c / 2.0) for a in bounds.base_max)
        bound = math.prod(bounds.base_max) * tail
    elif condition == 3:
        space = math.prod(2 * b + 1 for b in bounds.exp_max)
        count = space - _unrelated_rows(bounds.exp_max, param, budget)
        tail = sum((9.0 * log_c) ** n / b for b in bounds.exp_max)
        bound = math.prod(bounds.exp_max) * tail
    else:
        raise ValueError(f"condition must be 1, 2 or 3, got {condition}")
    return ConditionReport(condition, count, bound, count / bound)
