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
filter engines of :mod:`logforms.conditions`, except on pairs: every pair
base box is counted by a divisor-lattice inclusion-exclusion and every pair
exponent box by a closed form; all agree with direct enumeration
(property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_BUDGET, Bounds, FactorTable, charge, factorize, np
from .conditions import (
    FilterParameter, _large_prime_power_grid, _min_bad_exponent, _row_count, _unrelated_sets,
)

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
    """Exact count of base tuples in the box satisfying condition 1.

    Exponents never matter, so only the base box prod(A_i) is involved.  It is
    tested whole by the filter engine, charged prod(A_i) against the budget,
    except for pair boxes: those use an inclusion-exclusion over the divisor
    demands each clean partner value places on the other coordinate, which
    never walks the pairs and is charged A_1 + A_2, the base values it tests.
    """
    a_max = bounds.base_max
    if max(a_max) > table.limit:
        raise ValueError("base bound exceeds factor table limit")
    if bounds.n == 2:
        charge(sum(a_max), budget, f"condition-1 pair count would test {sum(a_max)} base values")
        return _count_pairs_large_prime_power(bounds, param, table)
    space = math.prod(a_max)
    charge(space, budget, f"condition-1 count would walk {space} base tuples")
    grid = [np.arange(1, a + 1) for a in a_max]
    return int(np.count_nonzero(_large_prime_power_grid(grid, param.cutoff, table)))


def _count_pairs_large_prime_power(
    bounds: Bounds, param: FilterParameter, table: FactorTable
) -> int:
    """Pair count for condition 1 without touching all prod(A) pairs.

    A pair is clean iff both members are clean alone and no prime's joint
    multiplicity reaches its bad exponent k_p.  Looping over the smaller
    coordinate, each clean value a imposes, at every prime p | a, the demand
    "partner multiplicity >= k_p - mult_p(a)" for a joint violation; the
    violating partners are counted by inclusion-exclusion over subsets of
    those prime demands, each term being a stride count over the clean mask.
    """
    cutoff = param.cutoff
    y_max, x_max = sorted(bounds.base_max)
    clean_x = ~_large_prime_power_grid([np.arange(x_max + 1)], cutoff, table)
    clean_x[0] = False  # the smaller coordinate's clean mask is a prefix of this one

    stride_counts: dict[int, int] = {1: int(clean_x[1:].sum())}

    def clean_multiples(d: int) -> int:
        got = stride_counts.get(d)
        if got is None:
            got = int(clean_x[d::d].sum())
            stride_counts[d] = got
        return got

    clean_pairs = 0
    for a in range(1, y_max + 1):
        if not clean_x[a]:
            continue  # whole row is violating
        # signed subset products of the per-prime demands p**(k_p - mult_p(a))
        terms = [(1, 1)]
        for p, e in factorize(a, table):
            demand = p ** (_min_bad_exponent(p, cutoff) - e)
            terms.extend(
                (d * demand, -s) for d, s in list(terms) if d * demand <= x_max
            )
        clean_pairs += sum(s * clean_multiples(d) for d, s in terms)
    return x_max * y_max - clean_pairs


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
    """Exact count of exponent tuples in the box satisfying condition 3.

    Bases never matter, so only the exponent box prod(2 B_i + 1) is involved.
    For two coordinates the qualifying nonzero pairs are exactly the multiples
    of primitive directions (q, p) with both entries <= coeff_bound, which are
    disjoint families, so the count closes to a double sum of floor divisions,
    charged its coeff_bound**2 coefficient pairs.  Every other box counts the
    complement of the admissible tuples, charged the half sums of searching
    each magnitude set once; their rows are never formed.
    """
    k = param.coeff_bound
    b_max = bounds.exp_max
    if bounds.n == 2:
        charge(k * k, budget, f"condition-3 pair count would walk {k * k} coefficient pairs")
        b1, b2 = b_max
        zeros = (2 * b1 + 1) + (2 * b2 + 1) - 1
        nonzero = 0
        for q in range(1, k + 1):
            for p in range(1, k + 1):
                if math.gcd(q, p) == 1:
                    # directions (+-q, p) with multiplier +-t
                    nonzero += 4 * min(b1 // q, b2 // p)
        return zeros + nonzero
    space = math.prod(2 * b + 1 for b in b_max)
    return space - _row_count(_unrelated_sets(b_max, param, budget), b_max)


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
