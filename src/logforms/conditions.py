"""Exclusion filters selecting tuples whose products have rigid factor layouts.

Three per-tuple conditions are tested against a cutoff parameter C >= 2:

1. some prime divides the base product a_1 * ... * a_n with total multiplicity
   e >= 2 and that prime power p**e reaches C;
2. some base is C-smooth, i.e. all of its prime factors are <= C (the base 1
   counts vacuously);
3. the exponents admit a nontrivial integer relation
   c_1*b_1 + ... + c_n*b_n = 0 with every |c_i| <= floor(2 ln C), decided
   for whole exponent arrays by one vectorized meet-in-the-middle search.

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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DEFAULT_BUDGET,
    Bounds,
    ConfigError,
    FactorTable,
    charge,
    factorize,
    np,
)

__all__ = [
    "FilterParameter",
    "default_cutoff",
    "has_smooth_base",
    "count_e_set",
]

# Half sums per block of the relation engine, rows per exponent-grid block,
# and base cells per block of the condition-1 grid.
_BLOCK = 1 << 18


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


def has_smooth_base(
    bases: Sequence[int], param: FilterParameter, table: FactorTable
) -> bool:
    """Condition 2: some base is cutoff-smooth (1 is vacuously smooth)."""
    c = param.cutoff
    return any(all(p <= c for p, _ in factorize(a, table)) for a in bases)


def _search_plan(n: int, k: int, top: int, rows: int) -> tuple[int, int]:
    """(half sums per searched row, rows per block) of the search; refuses key overflow."""
    per_row = (2 * k + 1) ** ((n + 1) // 2) + (2 * k + 1) ** (n // 2)
    step = max(1, _BLOCK // per_row)
    if min(step, rows) * (2 * k * n * top + 1) >= 2**63:
        raise ConfigError(f"exponents up to {top} overflow the int64 relation keys")
    return per_row, step


def _related(exps: np.ndarray, k: int) -> np.ndarray:
    """Condition 3 on every row of a (q, n) int64 array, as a boolean mask.

    A zero entry or two equal magnitudes give a +-1 relation.  Otherwise the
    first ceil(n/2) coordinates meet the rest in the middle: the row is related
    iff a nonzero half-vector sums to 0, or a nonzero left sum s meets a right
    sum -s.  Each row's sums get a key range of their own, so one sort and one
    search serve a block of about ``_BLOCK`` half sums.
    """
    n = exps.shape[1]
    mags = np.sort(np.abs(exps), axis=1)
    related = (mags[:, :1] == 0).any(axis=1) | (mags[:, 1:] == mags[:, :-1]).any(axis=1)
    h = (n + 1) // 2
    left_grid, right_grid = (
        np.array(list(itertools.product(range(-k, k + 1), repeat=m)), dtype=np.int64).T
        for m in (h, n - h)
    )
    top = max(int(exps.max(initial=0)), -int(exps.min(initial=0)))
    step = _search_plan(n, k, top, len(exps))[1]
    todo = np.flatnonzero(~related)
    for block in np.split(todo, range(step, todo.size, step)):
        left, right = exps[block, :h] @ left_grid, exps[block, h:] @ right_grid
        # the zero half-vector always sums to 0, so a nonzero one needs a second 0
        found = ((left == 0).sum(axis=1) > 1) | ((right == 0).sum(axis=1) > 1)
        span = k * np.abs(exps[block]).sum(axis=1)  # bounds |half sum| in the row
        offset = (np.cumsum(2 * span + 1) - span - 1)[:, None]
        keys = offset + left
        # -1 is below every key, so a zero right sum meets no zero left sum
        wanted = np.sort(np.where(right == 0, -1, offset - right), axis=None)
        at = np.searchsorted(wanted, keys).clip(max=wanted.size - 1)
        related[block] = found | (wanted[at] == keys).any(axis=1)
    return related


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
    columns[n-1][i_n]) satisfies condition 1: its product is a multiple of
    p**k_p for some prime p.  One table over 0 .. prod(max column) marks those
    multiples, and each cell reads the mark of its product; the products are
    formed about ``_BLOCK`` cells at a time.  A product of 0 is never marked.
    Only primes p <= max(tops) with p*p in the table are visited (k_p >= 2).
    """
    tops = [int(column.max(initial=0)) for column in columns]
    marked = np.zeros(math.prod(tops) + 1, dtype=bool)
    primes = table.primes()
    for p in primes[(primes <= max(tops)) & (primes * primes < marked.size)].tolist():
        q = p ** _min_bad_exponent(p, cutoff)
        marked[q::q] = True
    rest = functools.reduce(np.multiply.outer, columns[1:], np.ones((), dtype=np.int64))
    step = max(1, _BLOCK // max(1, rest.size))  # a column may be empty
    bad = np.empty([len(column) for column in columns], dtype=bool)
    for start in range(0, len(columns[0]), step):
        products = np.multiply.outer(columns[0][start : start + step], rest)
        bad[start : start + step] = marked[products]
    return bad


def _admissible_exps(
    exp_max: Sequence[int], param: FilterParameter, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The exponent tuples in the box failing condition 3, as a (q, n) array in
    lexicographic order, tested in mixed-radix blocks of ``_BLOCK`` rows.  First
    charged the half sums of the rows searched, those with no zero and distinct
    magnitudes: 2**n * prod(B_(j) - j + 1) over the ascending bounds B_(j)."""
    shape = [2 * b + 1 for b in exp_max]
    space = math.prod(shape)
    per_row = _search_plan(len(shape), param.coeff_bound, max(exp_max), space)[0]
    work = per_row * 2 ** len(shape) * math.prod(b - j for j, b in enumerate(sorted(exp_max)))
    charge(work, budget, f"condition-3 search would form {work} half sums")
    kept = []
    for start in range(0, space, _BLOCK):
        index = np.arange(start, min(start + _BLOCK, space))
        rows = np.stack(np.unravel_index(index, shape), axis=1) - np.array(exp_max)
        kept.append(rows[~_related(rows, param.coeff_bound)])
    return np.concatenate(kept)


def _admissible_tuples(
    bounds: Bounds, param: FilterParameter, table: FactorTable, budget: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The e-set of the box as (columns, clean, exps).

    Conditions 1 and 2 touch only the bases and condition 3 only the
    exponents, so the e-set is every clean base tuple with every row of the
    (q, n) array ``exps`` (lexicographic).  ``columns[i]`` holds the values of
    base i passing condition 2, whose greatest prime factor exceeds the
    cutoff (1 has none); ``clean`` is the boolean grid over those columns of
    the tuples failing condition 1.  Charges prod(A_i) + prod(2 B_i + 1), then half sums.
    """
    work = math.prod(bounds.base_max) + math.prod(2 * b + 1 for b in bounds.exp_max)
    charge(work, budget, f"e-set filters walk {work} base and exponent tuples")
    exps = _admissible_exps(bounds.exp_max, param, budget)  # charged before the sieve
    if max(bounds.base_max) > table.limit:
        raise ValueError("base bound exceeds factor table limit")
    gpf = table.gpf()
    columns = [np.flatnonzero(gpf[: a + 1] > param.cutoff) for a in bounds.base_max]
    clean = ~_large_prime_power_grid(columns, param.cutoff, table)
    return columns, clean, exps


def count_e_set(
    bounds: Bounds,
    param: FilterParameter,
    table: FactorTable,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, float]:
    """Exact size of the e-set in the box, with its density against 2**n * prod(A_i B_i).

    Charged prod(A_i) + prod(2 B_i + 1), the tuples the filters visit, then the half sums.
    """
    _, clean, exps = _admissible_tuples(bounds, param, table, budget)
    count = int(np.count_nonzero(clean)) * len(exps)
    denom = 2**bounds.n * math.prod(
        a * bm for a, bm in zip(bounds.base_max, bounds.exp_max)
    )
    return count, count / denom
