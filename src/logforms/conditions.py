"""Exclusion filters selecting tuples whose products have rigid factor layouts.

Three per-tuple conditions are tested against a cutoff parameter C >= 2:

1. some prime divides the base product a_1 * ... * a_n with total multiplicity
   e >= 2 and that prime power p**e reaches C;
2. some base is C-smooth, i.e. all of its prime factors are <= C (the base 1
   counts vacuously);
3. the exponents admit a nontrivial integer relation
   c_1*b_1 + ... + c_n*b_n = 0 with every |c_i| <= floor(2 ln C).  A zero or
   a repeated magnitude is a +-1 relation, and signs and order do not matter,
   so one meet-in-the-middle search decides each set m_1 < ... < m_n once.

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

# Half sums per block of the relation engine, and base cells per condition-1 grid block.
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

    The first ceil(n/2) coordinates meet the rest in the middle: the row is
    related iff a nonzero half-vector sums to 0, or a nonzero left sum s meets
    a right sum -s.  Each row's sums get a key range of their own, so one sort
    and one search serve a block of about ``_BLOCK`` half sums.
    """
    n = exps.shape[1]
    h = (n + 1) // 2
    left_grid, right_grid = (
        np.array(list(itertools.product(range(-k, k + 1), repeat=m)), dtype=np.int64).T
        for m in (h, n - h)
    )
    top = max(int(exps.max(initial=0)), -int(exps.min(initial=0)))
    step = _search_plan(n, k, top, len(exps))[1]
    related = np.empty(len(exps), dtype=bool)
    for start in range(0, len(exps), step):
        block = exps[start : start + step]
        left, right = block[:, :h] @ left_grid, block[:, h:] @ right_grid
        # the zero half-vector always sums to 0, so a nonzero one needs a second 0
        found = ((left == 0).sum(axis=1) > 1) | ((right == 0).sum(axis=1) > 1)
        span = k * np.abs(block).sum(axis=1)  # bounds |half sum| in the row
        offset = (np.cumsum(2 * span + 1) - span - 1)[:, None]
        keys = offset + left
        # -1 is below every key, so a zero right sum meets no zero left sum
        wanted = np.sort(np.where(right == 0, -1, offset - right), axis=None)
        at = np.searchsorted(wanted, keys).clip(max=wanted.size - 1)
        related[start : start + step] = found | (wanted[at] == keys).any(axis=1)
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
    """Condition 1 on the product grid of the given columns of bases.

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


def _unrelated_sets(exp_max: Sequence[int], param: FilterParameter, budget: int) -> np.ndarray:
    """The magnitude sets m_1 < ... < m_n that fit the box (m_j <= B_(j) over the
    ascending bounds) and fail condition 3, as a lexicographic (s, n) array.
    First charged (2k+1)**ceil(n/2) + (2k+1)**floor(n/2) half sums per set."""
    tops, n = sorted(exp_max), len(exp_max)
    ways = [1] + [0] * n  # ways[c]: the sets of c magnitudes below the bounds seen
    for j, (low, top) in enumerate(zip([0, *tops], tops), 1):
        ways = [(c >= j) * sum(ways[c - t] * math.comb(top - low, t) for t in range(c + 1))
                for c in range(n + 1)]
    work = _search_plan(n, param.coeff_bound, tops[-1], ways[n])[0] * ways[n]
    charge(work, budget, f"condition-3 search would form {work} half sums")
    # each column keeps its values and their prefixes' indices, from m_0 = 0;
    # its cap lets every prefix extend to a set
    parents, values, last = [], [], np.zeros(1, dtype=np.int64)
    for cap in (min(b - t for t, b in enumerate(tops[j:])) for j in range(n)):
        counts = np.maximum(cap - last, 0)
        parents.append(np.repeat(np.arange(last.size), counts) if values else None)
        last = np.repeat(last + 1 - np.cumsum(counts) + counts, counts)
        last += np.arange(last.size)
        values.append(last)
    sets, index, last = np.empty((last.size, n), dtype=np.int64), slice(None), None
    for j in range(n - 1, -1, -1):
        sets[:, j] = values.pop()[index]
        index = parents.pop()[index] if j else None
    return sets[~_related(sets, param.coeff_bound)]


def _row_count(sets: np.ndarray, exp_max: Sequence[int]) -> int:
    """The exponent rows of the box with a magnitude set in ``sets``: placing each set
    largest first, then signing, 2**n * prod_j (j - #{i : B_i < m_j}) rows per set."""
    tops, per_set = np.sort(exp_max), np.ones(len(sets), dtype=np.int64)
    for j in range(len(exp_max)):  # a column at a time, so no second (s, n) array
        per_set *= j + 1 - np.searchsorted(tops, sets[:, j])
    return 2 ** len(exp_max) * int(per_set.sum())


def _signed_rows(sets: np.ndarray, exp_max: Sequence[int]) -> np.ndarray:
    """Every signed reordering of ``sets`` that fits the box, as a lexicographic (q, n)
    array: m_n, then m_(n-1) and so on, each goes to a free place i with B_i >= m_j."""
    n, tops, owner = len(exp_max), np.array(exp_max), np.arange(len(sets))
    rows = np.zeros_like(sets)  # 0 marks a free place: every magnitude is positive
    for j in range(n - 1, -1, -1):
        row, at = np.nonzero((rows == 0) & (tops >= sets[owner, j, None]))
        owner, rows = owner[row], rows[row]
        rows[np.arange(row.size), at] = sets[owner, j]
    rows = (rows[:, None, :] * np.array([*itertools.product((-1, 1), repeat=n)])).reshape(-1, n)
    return rows[np.lexsort(rows.T[::-1])]


def _charge_clean(base_max: Sequence[int], budget: int) -> None:
    """Charge ``_clean_tuples`` before it sieves: any box but a pair walks its
    prod(A_i) grid.  A pair reads about A_i ln A_i strided cells per coordinate,
    and never more than the grid, which is less when one side is tiny."""
    work = math.prod(base_max)
    if len(base_max) == 2:
        work = min(work, sum(a * math.ceil(math.log(a + 1)) for a in base_max))
        charge(work, budget, f"condition-1 pair count would read {work} base cells")
    else:
        charge(work, budget, f"condition-1 count would walk {work} base tuples")


def _clean_tuples(
    base_max: Sequence[int], keep: np.ndarray, cutoff: float, table: FactorTable
) -> int:
    """The base tuples of the box whose entries all lie in the mask ``keep`` (over
    0 .. max A_i; its slot 0 is ignored) and that fail condition 1.

    A tuple is clean iff each base is clean alone and no prime's joint
    multiplicity reaches its bad exponent k_p.  A pair loops over the smaller
    coordinate, whose mask is a prefix of the larger one's: each clean value a
    imposes, at every prime p | a, the demand "partner multiplicity >= k_p -
    mult_p(a)" for a joint violation, and the violating partners are counted by
    inclusion-exclusion over subsets of those demands, each term a stride count
    over the clean mask.  Any other box counts the clean cells of the grid over
    the values clean alone.
    """
    if max(base_max) > table.limit:
        raise ValueError("base bound exceeds factor table limit")
    y_max, x_max = min(base_max), max(base_max)
    clean_x = keep[: x_max + 1] & ~_large_prime_power_grid([np.arange(x_max + 1)], cutoff, table)
    clean_x[0] = False  # 0 is no base, but every stride below starts there
    if len(base_max) != 2:
        columns = [np.flatnonzero(clean_x[: a + 1]) for a in base_max]
        return int(np.count_nonzero(~_large_prime_power_grid(columns, cutoff, table)))

    @functools.cache
    def clean_multiples(d: int) -> int:
        return int(np.count_nonzero(clean_x[::d]))

    clean_pairs = 0
    for a in np.flatnonzero(clean_x[: y_max + 1]).tolist():
        # signed subset products of the per-prime demands p**(k_p - mult_p(a))
        terms = [(1, 1)]
        for p, e in factorize(a, table):
            demand = p ** (_min_bad_exponent(p, cutoff) - e)
            terms.extend((d * demand, -s) for d, s in list(terms) if d * demand <= x_max)
        clean_pairs += sum(s * clean_multiples(d) for d, s in terms)
    return clean_pairs


def _unrelated_rows(exp_max: Sequence[int], param: FilterParameter, budget: int) -> int:
    """The exponent rows of the box failing condition 3.

    One coordinate is related only at b = 0, so 2 * B_1 rows fail, uncharged.
    On pairs every row with a zero entry is related, and the related nonzero
    rows are exactly the multiples of the primitive directions (+-q, +-p) with
    both entries <= coeff_bound, disjoint families, so they close to a double
    sum of floor divisions, charged the coefficient pairs it walks: those whose
    entries fit the box.  Any other box counts the rows of its unrelated
    magnitude sets, charged their half sums.
    """
    if len(exp_max) == 1:
        return 2 * exp_max[0]
    if len(exp_max) != 2:
        return _row_count(_unrelated_sets(exp_max, param, budget), exp_max)
    b1, b2 = exp_max
    q_max, p_max = min(param.coeff_bound, b1), min(param.coeff_bound, b2)
    work = q_max * p_max
    charge(work, budget, f"condition-3 pair count would walk {work} coefficient pairs")
    related = 2 * (b1 + b2) + 1
    for q, p in itertools.product(range(1, q_max + 1), range(1, p_max + 1)):
        if math.gcd(q, p) == 1:
            related += 4 * min(b1 // q, b2 // p)
    return (2 * b1 + 1) * (2 * b2 + 1) - related


def _admissible_rows(
    bounds: Bounds, param: FilterParameter, table: FactorTable, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """The e-set of the box as (bases, rows), for the uniqueness check.

    Conditions 1 and 2 touch only the bases and condition 3 only the
    exponents, so the e-set is ``bases`` x ``rows``: the lexicographic (m, n)
    base tuples failing conditions 1 and 2 (each base's greatest prime factor
    exceeds the cutoff; 1 has none) times the lexicographic (q, n) exponent
    rows failing condition 3.  Charges the prod(A_i) base tuples and the half
    sums before the sieve, then the members len(bases) x rows before any row
    exists; an empty e-set forms no row.  The table must reach the box.
    """
    work = math.prod(bounds.base_max)
    charge(work, budget, f"e-set filters walk {work} base tuples")
    sets = _unrelated_sets(bounds.exp_max, param, budget)
    gpf = table.gpf()
    columns = [np.flatnonzero(gpf[: a + 1] > param.cutoff) for a in bounds.base_max]
    clean = np.nonzero(~_large_prime_power_grid(columns, param.cutoff, table))
    bases = np.stack([column[i] for column, i in zip(columns, clean)], axis=1)
    members = len(bases) * _row_count(sets, bounds.exp_max)
    charge(members, budget, f"uniqueness check would key {members} e-set members")
    return bases, _signed_rows(sets if members else sets[:0], bounds.exp_max)


def count_e_set(
    bounds: Bounds,
    param: FilterParameter,
    table: FactorTable,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, float]:
    """Exact size of the e-set in the box, with its density against 2**n * prod(A_i B_i).

    The clean base tuples passing condition 2 times the exponent rows failing
    condition 3, counted without forming a tuple or a row.  Charged by
    ``_charge_clean`` and ``_unrelated_rows``, both before the sieve.
    """
    _charge_clean(bounds.base_max, budget)
    rows = _unrelated_rows(bounds.exp_max, param, budget)
    keep = table.gpf()[: max(bounds.base_max) + 1] > param.cutoff
    count = _clean_tuples(bounds.base_max, keep, param.cutoff, table) * rows
    denom = 2**bounds.n * math.prod(a * b for a, b in zip(bounds.base_max, bounds.exp_max))
    return count, count / denom
