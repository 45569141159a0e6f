"""Exclusion filters selecting tuples whose products have rigid factor layouts.

Three per-tuple conditions are tested against a cutoff parameter C >= 2:

1. some prime divides the base product a_1 * ... * a_n with total multiplicity
   e >= 2 and that prime power p**e reaches C;
2. some base is C-smooth, i.e. all of its prime factors are <= C (the base 1
   counts vacuously);
3. the exponents admit a nontrivial integer relation
   c_1*b_1 + ... + c_n*b_n = 0 with every |c_i| <= floor(2 ln C).

Form tuples passing *none* of the three conditions make up the "e-set".
Inside it, equal product values force equal tuples up to reordering of the
(base, exponent) pairs: every remaining base carries a prime factor larger
than C that appears to the first power in the whole product, which pins each
exponent b_i to a matching partner, and condition 3 then forces the prime
exponent vectors of the bases themselves to match.

All logarithms are natural.  The coefficient window floor(2 ln C) is the
narrowest integer box that still covers any single prime's exponent imbalance
(a repeated prime power below C has exponent at most log2 C <= 2 ln C), which
is what lets the third filter close that uniqueness argument.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Bounds,
    BudgetError,
    ConfigError,
    FactorTable,
    FormTuple,
    factorize,
)

__all__ = [
    "FilterParameter",
    "default_cutoff",
    "has_large_prime_power",
    "has_smooth_base",
    "has_bounded_relation",
    "in_e_set",
    "count_e_set",
]

# Above this many candidate coefficient vectors the relation search switches
# to meet-in-the-middle on the two halves of the coordinate set.
_MITM_THRESHOLD = 10_000_000

_gpf_cache: "weakref.WeakKeyDictionary[FactorTable, np.ndarray]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class FilterParameter:
    """Cutoff C >= 2; its coefficient bound floor(2 ln C) is derived."""

    cutoff: float

    def __post_init__(self) -> None:
        if not 2.0 <= self.cutoff < math.inf:
            raise ConfigError(f"cutoff {self.cutoff} must be finite and >= 2")

    @property
    def coeff_bound(self) -> int:
        return math.floor(2.0 * math.log(self.cutoff))

    @classmethod
    def from_cutoff(cls, cutoff: float) -> "FilterParameter":
        return cls(float(cutoff))


def default_cutoff(bounds: Bounds) -> FilterParameter:
    """The canonical cutoff min(B_1..B_n, ln A_1..ln A_n) for a box.

    Raises ConfigError when that minimum drops below 2, i.e. when some base
    bound is below e**2 (so < 8 as an integer) or some exponent bound is < 2.
    """
    cutoff = min(
        min(float(b) for b in bounds.exp_max),
        min(math.log(a) for a in bounds.base_max),
    )
    if cutoff < 2.0:
        raise ConfigError(
            f"default cutoff {cutoff:.4f} < 2 for bounds {bounds.base_max}/{bounds.exp_max}; "
            "every base bound must be >= 8 and every exponent bound >= 2"
        )
    return FilterParameter.from_cutoff(cutoff)


def has_large_prime_power(
    bases: Sequence[int], param: FilterParameter, table: FactorTable
) -> bool:
    """Condition 1: some prime p has total multiplicity e >= 2 in the base
    product with p**e >= cutoff.

    Equivalent to the existence of k >= 2 with p**k dividing the product and
    p**k >= cutoff, since the maximal power is the easiest to push past the
    cutoff.
    """
    acc: Counter[int] = Counter()
    for a in bases:
        for p, e in factorize(a, table):
            acc[p] += e
    return any(e >= 2 and p**e >= param.cutoff for p, e in acc.items())


def has_smooth_base(
    bases: Sequence[int], param: FilterParameter, table: FactorTable
) -> bool:
    """Condition 2: some base is cutoff-smooth (1 is vacuously smooth)."""
    c = param.cutoff
    return any(all(p <= c for p, _ in factorize(a, table)) for a in bases)


def has_bounded_relation(exps: Sequence[int], param: FilterParameter) -> bool:
    """Condition 3: a nonzero integer vector c with |c_i| <= coeff_bound and
    c_1*b_1 + ... + c_n*b_n = 0 exists.

    Exhaustive over the coefficient box; switches to meet-in-the-middle on the
    two coordinate halves when the box holds more than ``_MITM_THRESHOLD``
    vectors.
    """
    k = param.coeff_bound
    if k < 1:
        return False
    b = tuple(int(x) for x in exps)
    n = len(b)
    if any(x == 0 for x in b):
        return True  # unit coefficient on a zero exponent
    if n == 1:
        return False  # c*b = 0 with b != 0 forces c = 0
    if len({abs(x) for x in b}) < n:
        return True  # matching magnitudes cancel with coefficients +-1
    width = 2 * k + 1
    if width**n <= _MITM_THRESHOLD:
        rng = range(-k, k + 1)
        for c in itertools.product(rng, repeat=n):
            if any(c) and sum(ci * bi for ci, bi in zip(c, b)) == 0:
                return True
        return False
    return _relation_mitm(b, k)


def _relation_mitm(b: tuple[int, ...], k: int) -> bool:
    """Meet-in-the-middle relation search; exact, used for wide coefficient boxes."""
    half = (len(b) + 1) // 2
    left, right = b[:half], b[half:]
    rng = range(-k, k + 1)

    def sums(part: tuple[int, ...]) -> Counter[int]:
        out: Counter[int] = Counter()
        for c in itertools.product(rng, repeat=len(part)):
            out[sum(ci * bi for ci, bi in zip(c, part))] += 1
        return out

    left_sums = sums(left)
    right_sums = sums(right)
    # zero achieved by a nonzero half-vector (the all-zero vector contributes 1)
    if left_sums[0] > 1 or right_sums[0] > 1:
        return True
    return any(s != 0 and -s in right_sums for s in left_sums)


def in_e_set(t: FormTuple, param: FilterParameter, table: FactorTable) -> bool:
    """Whether ``t`` passes all three filters (fails every exclusion condition)."""
    return (
        not has_large_prime_power(t.bases, param, table)
        and not has_smooth_base(t.bases, param, table)
        and not has_bounded_relation(t.exps, param)
    )


def _greatest_prime_factors(table: FactorTable) -> np.ndarray:
    """gpf[m] = largest prime factor of m (gpf[0] = gpf[1] = 0), cached per table."""
    gpf = _gpf_cache.get(table)
    if gpf is None:
        gpf = np.zeros(table.limit + 1, dtype=np.int32)
        for p in table.primes():
            gpf[p::p] = p  # ascending primes, so the last write wins
        _gpf_cache[table] = gpf
    return gpf


def _min_bad_exponent(p: int, cutoff: float) -> int:
    """Smallest k >= 2 with p**k >= cutoff."""
    k = 2
    pk = p * p
    while pk < cutoff:
        k += 1
        pk *= p
    return k


def _large_prime_power_grid(
    columns: Sequence[np.ndarray], cutoff: float, table: FactorTable
) -> np.ndarray:
    """Condition 1 on the product grid of the given base columns.

    ``bad[i_1, ..., i_n]`` is True iff the base tuple (columns[0][i_1], ...,
    columns[n-1][i_n]) satisfies condition 1: for some prime p the
    multiplicities of p in its bases sum to at least k_p.  Each prime adds
    one broadcast sum of its per-column multiplicities, unless the largest
    such sum stays below k_p.
    """
    bad = np.zeros([len(column) for column in columns], dtype=bool)
    top = max(int(column.max(initial=0)) for column in columns)
    primes = table.primes()
    for p in primes[primes <= top].tolist():
        k = _min_bad_exponent(p, cutoff)
        powers = [p]
        while powers[-1] * p <= top:
            powers.append(powers[-1] * p)
        if len(columns) * len(powers) < k:
            continue  # no base tuple can hold p that often
        # a multiplicity sum is at most log2 of the grid size, so int8 holds it
        divides = np.array(powers)[:, None]
        mult = [(column % divides == 0).sum(axis=0, dtype=np.int8) for column in columns]
        if sum(int(v.max(initial=0)) for v in mult) >= k:
            bad |= sum(np.meshgrid(*mult, indexing="ij", sparse=True)) >= k
    return bad


def _admissible_exps(exp_max: Sequence[int], param: FilterParameter) -> np.ndarray:
    """The exponent tuples in the box failing condition 3, as a (q, n) array."""
    exps = [
        e
        for e in itertools.product(*(range(-b, b + 1) for b in exp_max))
        if not has_bounded_relation(e, param)
    ]
    return np.array(exps, dtype=np.int64).reshape(len(exps), len(exp_max))


def _admissible_tuples(
    bounds: Bounds, param: FilterParameter, table: FactorTable, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """The e-set of the box as (bases, exps): an (m, n) and a (q, n) array.

    Conditions 1 and 2 touch only the bases and condition 3 only the
    exponents, so the e-set is every row of ``bases`` (lexicographic) with
    every row of ``exps`` (lexicographic).  A base passes condition 2 when its
    greatest prime factor exceeds the cutoff (1 has none); condition 1 is then
    tested on the grid of those bases.  Charges prod(A_i) + prod(2 B_i + 1).
    """
    work = math.prod(bounds.base_max) + math.prod(2 * b + 1 for b in bounds.exp_max)
    if work > budget:
        raise BudgetError(
            f"e-set filters walk {work} base and exponent tuples, over the budget "
            f"of {budget}; raise --budget"
        )
    if max(bounds.base_max) > table.limit:
        raise ValueError("base bound exceeds factor table limit")
    gpf = _greatest_prime_factors(table)
    columns = [np.flatnonzero(gpf[: a + 1] > param.cutoff) for a in bounds.base_max]
    clean = np.nonzero(~_large_prime_power_grid(columns, param.cutoff, table))
    bases = np.stack([column[i] for column, i in zip(columns, clean)], axis=1)
    return bases, _admissible_exps(bounds.exp_max, param)


def count_e_set(
    bounds: Bounds,
    param: FilterParameter,
    table: FactorTable,
    budget: int = 10**8,
) -> tuple[int, float]:
    """Exact size of the e-set in the box, with its density against 2**n * prod(A_i B_i).

    The budget is charged prod(A_i) + prod(2 B_i + 1), the tuples the filters visit.
    """
    bases, exps = _admissible_tuples(bounds, param, table, budget)
    count = len(bases) * len(exps)
    denom = 2**bounds.n * math.prod(
        a * bm for a, bm in zip(bounds.base_max, bounds.exp_max)
    )
    return count, count / denom
