"""Exact ground truth for the power-product census.

Everything here is exact: ``count_distinct_rationals`` counts the distinct
product values in a box; ``verify_unique_representation`` checks that equal
values inside the filtered representative set only arise from coordinate
reorderings; the permissibility helpers measure how much of the box a
coordinate permutation preserves; and ``convergence_run`` sweeps a scale
sequence comparing exact counts against the leading-term formulas.

The count never visits a box tuple.  A value is its prime-exponent vector,
encoded as an exact integer key (one balanced mixed-radix digit per prime,
packed into int64 words) on which addition is vector addition.  The value set
is then the sumset S_1 + ... + S_n of the per-coordinate power sets, built
one layer at a time as T_k = dedup(T_{k-1} + S_k) with numpy sorts.  Keys
wider than one word are ordered by a linear 64-bit fingerprint (Karp-Rabin
style), and every run of equal fingerprints is certified on the exact keys,
so a collision costs time, never a wrong count.  A second, deliberately
independent strategy ("sorted") re-derives each tuple's full prime
factorization and deduplicates by sorting the canonical forms; the two must
agree exactly and the test suite holds them to that.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import le

from .core import (
    DEFAULT_BUDGET,
    Bounds,
    BudgetError,
    CanonicalRational,
    ConfigError,
    FactorTable,
    FormTuple,
    Permutation,
    canonical_form,
    charge,
    np,
)
from .conditions import FilterParameter, _admissible_tuples, count_e_set, default_cutoff
from .asymptotics import main_term, separated_leading_term, symmetric_leading_term

__all__ = [
    "CensusReport",
    "OrbitViolation",
    "ConvergenceResult",
    "count_distinct_rationals",
    "verify_unique_representation",
    "possible_count",
    "permissibility_closed_form",
    "run_census",
    "convergence_run",
]

# Seed of the census fingerprint multipliers.  Counts never depend on it:
# every run of equal fingerprints is certified on exact keys.
_FINGERPRINT_SEED = 0x6C6F67
# Fingerprint runs are certified this many adjacent pairs at a time, which
# bounds the exact key words rebuilt at once.
_CERTIFY_BLOCK = 1 << 16


@dataclass(frozen=True)
class CensusReport:
    """Exact census of one box against a leading-term formula."""

    bounds: Bounds
    tuple_space: int
    exact_count: int
    formula_value: float
    ratio: float
    e_count: int | None


@dataclass(frozen=True)
class OrbitViolation:
    """Two filtered representatives of one value not related by reordering."""

    value: CanonicalRational
    first: FormTuple
    second: FormTuple


@dataclass(frozen=True)
class ConvergenceResult:
    """Census reports along a scale sequence; truncated_at is the first
    scale whose box exceeded the work budget, if any."""

    reports: tuple[CensusReport, ...]
    truncated_at: int | None


def _usable_table(table: FactorTable | None, limit: int) -> FactorTable:
    """``table`` if it reaches ``limit``, else a table that sieves on first use."""
    if table is None or table.limit < limit:
        return FactorTable(limit)
    return table


def _key_layout(bounds: Bounds, table: FactorTable) -> tuple[int, list]:
    """The number of int64 words in an exact key, and each prime's digit slot.

    A key has one balanced digit per prime p <= max(A_i), in radix 2*M_p + 1
    with M_p = sum_i B_i * floor(log_p A_i): no product of box coordinates,
    full or partial, carries an exponent of p beyond +-M_p.  Digits are packed
    into int64 words while the product of their radices stays below 2**64, so
    such products never overflow a word or carry between digits.  Adding keys
    therefore adds prime-exponent vectors, and equal keys are equal rationals.
    A slot is (the powers p**k <= max(A_i), word, place value).  The layout
    allocates nothing per base, so callers charge the words before
    ``_key_words`` builds them.
    """
    limit = max(bounds.base_max)
    primes = table.primes()
    slots = []
    word, place = 0, 1
    for p in primes[primes <= limit].tolist():
        powers = [p]
        while powers[-1] * p <= limit:
            powers.append(powers[-1] * p)
        top = sum(
            b * sum(q <= a for q in powers) for a, b in zip(bounds.base_max, bounds.exp_max)
        )
        if place * (2 * top + 1) >= 2**64:
            word, place = word + 1, 1
        slots.append((powers, word, place))
        place *= 2 * top + 1
    return word + 1, slots


def _key_words(layout: tuple[int, list], limit: int) -> np.ndarray:
    """keys[:, a] is the exact key of the base a, for 0 <= a <= limit = max(A_i)."""
    words, slots = layout
    keys = np.zeros((words, limit + 1), dtype=np.int64)
    for powers, w, place in slots:
        for q in powers:
            keys[w, q::q] += place
    return keys


def _distinct_columns(words: np.ndarray) -> np.ndarray:
    """The distinct columns of a (words, m) key array, exactly."""
    words = words[:, np.lexsort(words)]
    return words[:, np.r_[True, (words[:, 1:] != words[:, :-1]).any(axis=0)]]


def _coordinate_values(keys: np.ndarray, a_max: int, b_max: int) -> np.ndarray:
    """Distinct keys of a**b over 1 <= a <= a_max, |b| <= b_max."""
    powers = keys[:, 1 : a_max + 1, None] * np.arange(-b_max, b_max + 1)
    return _distinct_columns(powers.reshape(keys.shape[0], -1))


def _fingerprint_weights(width: int) -> np.ndarray:
    """Random odd multipliers r_w of the fingerprint sum_w word_w * r_w mod 2**64."""
    rng = random.Random(_FINGERPRINT_SEED)
    return np.array([rng.getrandbits(64) | 1 for _ in range(width)], dtype=np.uint64)


def _sumset(values: np.ndarray, layer: np.ndarray, count_only: bool) -> np.ndarray | int:
    """Distinct sums of a column of ``values`` and a column of ``layer``.

    Returns their key columns, or only their number when ``count_only``.
    One-word keys are exact, so sorting them groups equal sums.  Wider keys
    are sorted by a linear fingerprint in the high bits of a uint64 whose low
    bits hold the candidate's index; equal sums then sit in one run of equal
    fingerprints.  Each run is certified by comparing the exact words of its
    adjacent members, rebuilt from the index, and a run whose members differ
    (a fingerprint collision) is resolved by an exact sort of its members.
    """
    if values.shape[0] == 1:
        sums = np.add.outer(values[0], layer[0]).ravel()
        sums.sort()
        fresh = np.r_[True, sums[1:] != sums[:-1]]
        return int(np.count_nonzero(fresh)) if count_only else sums[fresh][None]

    def words_at(index: np.ndarray) -> np.ndarray:
        t, s = np.divmod(index, layer.shape[1])
        return np.take(values, t, axis=1) + np.take(layer, s, axis=1)

    weights = _fingerprint_weights(values.shape[0])
    size = values.shape[1] * layer.shape[1]
    shift = np.uint64((size - 1).bit_length())
    packed = np.add.outer(
        (values.view(np.uint64) * weights[:, None]).sum(axis=0),
        (layer.view(np.uint64) * weights[:, None]).sum(axis=0),
    ).ravel()
    packed >>= shift
    packed <<= shift
    packed |= np.arange(size, dtype=np.uint64)
    packed.sort()
    fresh = np.r_[True, (packed[1:] ^ packed[:-1]) >> shift != 0]
    packed &= (np.uint64(1) << shift) - np.uint64(1)
    index = packed.view(np.int64)
    pairs = np.flatnonzero(~fresh[1:])
    collided = []
    for block in np.split(pairs, range(_CERTIFY_BLOCK, pairs.size, _CERTIFY_BLOCK)):
        unequal = words_at(index[block]) != words_at(index[block + 1])
        collided.append(block[functools.reduce(np.logical_or, unequal)])
    collided = np.concatenate(collided)
    clean, resolved = fresh, values[:, :0]
    if collided.size:
        runs = np.cumsum(fresh) - 1
        dirty = np.isin(runs, runs[collided])
        clean = fresh & ~dirty
        resolved = _distinct_columns(words_at(index[dirty]))
    if count_only:
        return int(np.count_nonzero(clean)) + resolved.shape[1]
    return np.concatenate((words_at(index[clean]), resolved), axis=1)


def _count_layered(bounds: Bounds, table: FactorTable, budget: int) -> int:
    """Distinct values as the layered sumset T_k = dedup(T_{k-1} + S_k).

    The budget is charged for every candidate value formed: the A_k*(2B_k+1)
    powers that make up the coordinate sets S_k, once per key word, then
    |T_{k-1}| * |S_k| sums per layer, each charged before it is formed.  The
    coordinates are combined in ascending order of |S_k|.
    """
    combine = "census would combine at least {} candidate values and key words".format
    work = powers = sum(a * (2 * b + 1) for a, b in zip(bounds.base_max, bounds.exp_max))
    charge(work, budget, combine(work))
    layout = _key_layout(bounds, table)
    work = layout[0] * powers
    charge(work, budget, combine(work))
    keys = _key_words(layout, max(bounds.base_max))
    layers = sorted(
        (_coordinate_values(keys, a, b) for a, b in zip(bounds.base_max, bounds.exp_max)),
        key=lambda layer: layer.shape[1],
    )
    values, count = layers[0], layers[0].shape[1]
    for k, layer in enumerate(layers[1:], start=2):
        work += values.shape[1] * layer.shape[1]
        charge(work, budget, combine(work))
        if k < bounds.n:
            values = _sumset(values, layer, count_only=False)
        else:
            count = _sumset(values, layer, count_only=True)
    return count


def _count_sorted(bounds: Bounds, table: FactorTable) -> int:
    """Independent census route: sort every tuple's exact canonical form and
    count runs.  Shares no dedup machinery with the key path."""
    forms: list[tuple[tuple[int, int], ...]] = []
    base_ranges = [range(1, a + 1) for a in bounds.base_max]
    exp_ranges = [range(-b, b + 1) for b in bounds.exp_max]
    for bases in itertools.product(*base_ranges):
        for exps in itertools.product(*exp_ranges):
            form = canonical_form(FormTuple(bases, exps), table)
            forms.append(form.factors)
    forms.sort()
    return sum(
        1 for k, form in enumerate(forms) if k == 0 or form != forms[k - 1]
    )


def count_distinct_rationals(
    bounds: Bounds,
    table: FactorTable | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "set",
) -> int:
    """Exact number of distinct rationals a_1**b_1 * ... * a_n**b_n in the box.

    ``strategy="set"`` builds the value set layer by layer on exact keys, and
    ``budget`` bounds the candidate values it combines.  ``strategy="sorted"``
    is the independent sort-and-scan route over every box tuple, and
    ``budget`` bounds the tuple space it walks.
    """
    table = _usable_table(table, max(bounds.base_max))
    if strategy == "set":
        return _count_layered(bounds, table, budget)
    if strategy != "sorted":
        raise ValueError(f"unknown strategy {strategy!r}")
    space = bounds.tuple_space()
    charge(space, budget, f"census oracle would walk {space} box tuples")
    return _count_sorted(bounds, table)


def verify_unique_representation(
    bounds: Bounds,
    table: FactorTable | None = None,
    *,
    param: FilterParameter | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[OrbitViolation]:
    """Check that equal values in the filtered set come from reorderings only.

    Each member of the filtered set (tuples passing none of the three
    exclusion conditions) gets two exact keys: its value (its bases' key
    words times its exponents) and its orbit (its sorted (base, exponent)
    pair codes).  One lexsort orders the members by value, then orbit.  A run
    of equal values whose orbit changes inside it is one violation, witnessed
    by the run's first member and its first member of another orbit.
    Violations come in key order; the expected result is an empty list.

    The budget is charged prod(A_i) + prod(2 B_i + 1) for the filters, then
    the value words of the filtered members (members times key words) before
    any key is formed.
    """
    table = _usable_table(table, max(bounds.base_max))
    if param is None:
        param = default_cutoff(bounds)
    bases, exps = _admissible_tuples(bounds, param, table, budget)
    members = len(bases) * len(exps)
    layout = _key_layout(bounds, table)
    doing = f"uniqueness check would key {members} e-set members in {layout[0]} words each"
    charge(members * layout[0], budget, doing)

    # int64 sums wrap, but a value's balanced digits fit one word's radix
    # range, so the wrapped words are still exact keys
    words = _key_words(layout, max(bounds.base_max))
    values = [
        sum(np.multiply.outer(word[bases[:, i]], exps[:, i]) for i in range(bounds.n)).ravel()
        for word in words
    ]
    width = 2 * max(bounds.exp_max) + 1
    pairs = [np.add.outer(bases[:, i] * width, exps[:, i] + width // 2) for i in range(bounds.n)]
    orbits = np.sort(np.stack([pair.ravel() for pair in pairs], axis=1), axis=1)
    order = np.lexsort((*orbits.T, *values))
    same_value = functools.reduce(
        np.logical_and, [v[order[1:]] == v[order[:-1]] for v in values]
    )
    orbits = orbits[order]
    new_orbit = (orbits[1:] != orbits[:-1]).any(axis=1)
    # position of the first member of each sorted member's value run
    run_start = np.maximum.accumulate(np.r_[0, np.arange(1, len(order)) * ~same_value])
    changes = np.flatnonzero(same_value & new_orbit) + 1
    starts, first_change = np.unique(run_start[changes], return_index=True)

    violations: list[OrbitViolation] = []
    for start, change in zip(starts.tolist(), changes[first_change].tolist()):
        first, second = (
            FormTuple(tuple(bases[b].tolist()), tuple(exps[e].tolist()))
            for b, e in (divmod(int(order[k]), len(exps)) for k in (start, change))
        )
        violations.append(OrbitViolation(canonical_form(first, table), first, second))
    return violations


def possible_count(sigma: Permutation, bounds: Bounds) -> int:
    """How many box tuples the permutation keeps inside the box (full loop).

    Tests every tuple against the bounds its coordinates move to, so the count
    stays independent of the closed form.
    """
    if len(sigma.images) != bounds.n:
        raise ValueError("permutation size disagrees with bounds")
    # coordinate j moves to slot inverse[j] and must fit that slot's bounds
    inverse = sigma.inverse().images
    tops_a = [bounds.base_max[i] for i in inverse]
    tops_b = [bounds.exp_max[i] for i in inverse]
    count = 0
    base_ranges = [range(1, a + 1) for a in bounds.base_max]
    exp_ranges = [range(-b, b + 1) for b in bounds.exp_max]
    for bases in itertools.product(*base_ranges):
        for exps in itertools.product(*exp_ranges):
            count += all(map(le, bases, tops_a)) and all(map(le, map(abs, exps), tops_b))
    return count


def permissibility_closed_form(sigma: Permutation, bounds: Bounds) -> Fraction:
    """Exact fraction of box tuples the permutation keeps inside the box.

    Coordinates are independent, so the fraction factors as
    prod_i min(A_sigma(i), A_i) * (2 min(B_sigma(i), B_i) + 1) over the box
    volume.
    """
    n = bounds.n
    if len(sigma.images) != n:
        raise ValueError("permutation size disagrees with bounds")
    numerator = 1
    denominator = 1
    for i in range(n):
        j = sigma.images[i]
        numerator *= min(bounds.base_max[j], bounds.base_max[i]) * (
            2 * min(bounds.exp_max[j], bounds.exp_max[i]) + 1
        )
        denominator *= bounds.base_max[i] * (2 * bounds.exp_max[i] + 1)
    return Fraction(numerator, denominator)


def run_census(
    bounds: Bounds,
    table: FactorTable | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
    formula: float | None = None,
    param: FilterParameter | None = None,
) -> CensusReport:
    """Exact census of one box against a formula (the main term by default).

    Only the count can refuse the report.  The main term past its coordinate
    cap leaves the formula and the ratio NaN.  The filtered-set size is None
    when no filter parameter is given and the default cutoff rule does not
    apply to the box, or when counting it would exceed the budget.
    """
    table = _usable_table(table, max(bounds.base_max))
    exact = count_distinct_rationals(bounds, table, budget=budget)
    try:
        formula = main_term(bounds) if formula is None else formula
        ratio = exact / formula if formula > 0 else math.inf
    except ConfigError:
        formula = ratio = math.nan
    e_count = None
    try:
        param = default_cutoff(bounds) if param is None else param
        e_count = count_e_set(bounds, param, table, budget=budget)[0]
    except (ConfigError, BudgetError):
        pass
    return CensusReport(
        bounds=bounds,
        tuple_space=bounds.tuple_space(),
        exact_count=exact,
        formula_value=formula,
        ratio=ratio,
        e_count=e_count,
    )


def _shape_bounds(shape: str, scale: int, factors: int | None, base: Bounds | None):
    if shape == "equal":
        if factors is None:
            raise ConfigError("equal shape needs the number of factors")
        bounds = Bounds((scale,) * factors, (scale,) * factors)
        return bounds, symmetric_leading_term(factors, scale, scale)
    if shape == "separated":
        if factors is None:
            raise ConfigError("separated shape needs the number of factors")
        geometric = tuple(scale**i for i in range(1, factors + 1))
        bounds = Bounds(geometric, geometric)
        return bounds, separated_leading_term(bounds)
    if shape == "custom":
        if base is None:
            raise ConfigError("custom shape needs base bounds to scale")
        bounds = Bounds(
            tuple(a * scale for a in base.base_max),
            tuple(b * scale for b in base.exp_max),
        )
        return bounds, None  # run_census computes the main term
    raise ConfigError(f"unknown shape {shape!r}")


def convergence_run(
    scales: tuple[int, ...] | list[int],
    shape: str,
    *,
    factors: int | None = None,
    base: Bounds | None = None,
    table: FactorTable | None = None,
    budget: int = DEFAULT_BUDGET,
    param: FilterParameter | None = None,
) -> ConvergenceResult:
    """Census a scale sequence against the shape's leading-term formula.

    Shapes: ``equal`` uses A_i = B_i = s; ``separated`` uses A_i = B_i = s**i;
    ``custom`` multiplies the given base bounds by s and compares against the
    full main term.  Every box's filtered set is counted at ``param``, or at
    the box's own default cutoff when it is None.  A scale whose box exceeds
    the budget truncates the sweep and is reported in ``truncated_at``.
    """
    reports: list[CensusReport] = []
    truncated_at: int | None = None
    for scale in scales:
        bounds, formula = _shape_bounds(shape, scale, factors, base)
        try:
            report = run_census(bounds, table, budget=budget, formula=formula, param=param)
        except BudgetError:
            truncated_at = scale
            break
        reports.append(report)
    return ConvergenceResult(tuple(reports), truncated_at)
