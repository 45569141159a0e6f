"""Exact ground truth for the power-product census.

Everything here is exact: ``count_distinct_rationals`` counts the distinct
product values in a box; ``verify_unique_representation`` checks that equal
values inside the filtered representative set only arise from coordinate
reorderings; the permissibility helpers measure how much of the box a
coordinate permutation preserves; and ``convergence_run`` sweeps a scale
sequence comparing exact counts against the leading-term formulas.

A value is its prime-exponent vector, encoded as an exact integer key (one
balanced mixed-radix digit per prime, packed into int64 words) on which
addition is vector addition.  The count never visits a box tuple: it builds
the sumset S_1 + ... + S_n of the per-coordinate power sets one layer at a
time, T_k = dedup(T_{k-1} + S_k), and each S_k = dedup({0} + powers_k) by the
same step, ``_sumset``.  One-word sums are sorted as they are; all
other equal keys, of the count and of the uniqueness check, are found by one
kernel, ``_equal_runs``, which sorts a linear 64-bit fingerprint per key
(Karp-Rabin style) and certifies every run of equal fingerprints on the exact
keys, so a collision costs time, never a wrong answer.  A second, independent
strategy ("sorted") reduces every box tuple to its exact fraction and counts
the distinct ones; it reads no factor table, and the tests hold the two equal.
"""

from __future__ import annotations

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
    ConfigError,
    FactorTable,
    FormTuple,
    Permutation,
    charge,
    np,
)
from .conditions import FilterParameter, _admissible_rows, count_e_set, default_cutoff
from .asymptotics import leading_term_envelope, main_term, symmetric_leading_term

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

# Seed of the census fingerprint multipliers.  No result depends on it: equal
# fingerprints are certified on exact keys, and violations are sorted by value.
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
    """Two filtered representatives of one value not related by reordering;
    ``value`` is that value as an exact fraction."""

    value: Fraction
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


def _keys(
    bounds: Bounds, table: FactorTable, bases, items: int, what: str, budget: int
) -> np.ndarray:
    """keys[:, j] is the exact key of bases[j], an index array or slice of 0 ... max(A_i).

    A key has one balanced digit per prime p <= max(A_i), in radix 2*M_p + 1
    with M_p = sum_i B_i * floor(log_p A_i): no product of box coordinates,
    full or partial, carries an exponent of p beyond +-M_p.  Digits are packed
    into int64 words while the product of their radices stays below 2**64, so
    such products never overflow a word or carry between digits.  Adding keys
    therefore adds prime-exponent vectors, and equal keys are equal rationals.
    A pass adds each base's greatest prime factor to its digit and divides it out.

    The ``items`` values that ``what`` names, at least the bases, are charged
    the words of a key each: first, before the table is read, at a lower bound
    on the words (more than A / ln A primes, A >= 17, Rosser & Schoenfeld 1962,
    each take a digit of radix >= 3, and 3**41 > 2**64, so a word holds at most
    40 of them), then at the exact words, before the bases' array exists.
    """
    limit = max(bounds.base_max)
    floor = -(-int(limit / math.log(limit)) // 40) if limit > 1 else 1
    charge(items * floor, budget, f"{what} in at least {floor} words each")
    primes = table.primes()
    slots = []  # (word, place value) per prime
    word, place = 0, 1
    for p in primes[primes <= limit].tolist():
        top, q = 0, p  # M_p, summed over the powers q = p**k <= max(A_i)
        while q <= limit:
            top += sum(b for a, b in zip(bounds.base_max, bounds.exp_max) if q <= a)
            q *= p
        if place * (2 * top + 1) >= 2**64:
            word, place = word + 1, 1
        slots.append((word, place))
        place *= 2 * top + 1
    charge(items * (word + 1), budget, f"{what} in {word + 1} words each")
    rest = np.arange(limit + 1)[bases]
    keys = np.zeros((word + 1, len(rest)), dtype=np.int64)
    words, places = np.array(slots, dtype=np.int64).reshape(-1, 2).T
    while (column := np.flatnonzero(rest > 1)).size:  # 0 and 1 have no prime factor
        slot = np.searchsorted(primes, table.gpf()[rest[column]])
        keys[words[slot], column] += places[slot]
        rest[column] //= primes[slot]
    return keys


def _fingerprint_weights(width: int) -> np.ndarray:
    """Random odd multipliers r_w of the fingerprint sum_w word_w * r_w mod 2**64."""
    rng = random.Random(_FINGERPRINT_SEED)
    return np.array([rng.getrandbits(64) | 1 for _ in range(width)], dtype=np.uint64)


def _equal_runs(prints: np.ndarray, words_at) -> tuple[np.ndarray, np.ndarray]:
    """Candidates in an order that puts equal exact keys together.

    ``prints`` holds a uint64 fingerprint per candidate, equal for equal keys,
    and is overwritten: the candidate's index goes into its low bits, and it is
    sorted.  Each run of equal fingerprints is certified on the exact words of
    its adjacent members, which ``words_at(index)`` rebuilds ``_CERTIFY_BLOCK``
    pairs at a time; a run whose members differ (a collision) is resolved by
    an exact sort of that run only.  Returns the candidates' indices in that
    order and a mark on the first candidate of each key.
    """
    low = np.uint64(2 ** (prints.size - 1).bit_length() - 1)
    prints &= ~low
    prints |= np.arange(prints.size, dtype=np.uint64)
    prints.sort()
    fresh = np.r_[True, (prints[1:] ^ prints[:-1]) > low]
    prints &= low
    index = prints.view(np.int64)
    pairs = np.flatnonzero(~fresh[1:])
    collided = np.concatenate([
        block[(words_at(index[block]) != words_at(index[block + 1])).any(axis=0)]
        for block in np.split(pairs, range(_CERTIFY_BLOCK, pairs.size, _CERTIFY_BLOCK))
    ])
    if collided.size:
        starts = np.flatnonzero(np.r_[fresh, True])
        ends = np.unique(np.searchsorted(starts, collided, side="right"))
        for lo, hi in zip(starts[ends - 1].tolist(), starts[ends].tolist()):
            index[lo:hi] = index[lo:hi][np.lexsort(words_at(index[lo:hi]))]
            words = words_at(index[lo:hi])
            fresh[lo + 1 : hi] = (words[:, 1:] != words[:, :-1]).any(axis=0)
    return index, fresh


def _sumset(values: np.ndarray, layer: np.ndarray, count_only: bool) -> np.ndarray | int:
    """Distinct sums of a column of ``values`` and a column of ``layer``.

    Returns their key columns, or only their number when ``count_only``.
    One-word keys are exact, so sorting them groups equal sums.  Wider keys go
    through ``_equal_runs``; the fingerprint is linear, so a sum's fingerprint
    is the sum of its terms' fingerprints, and its words are rebuilt from its
    index only to certify its run.
    """
    # kept for speed: census -A 23,29,24 -B 3,2,3 counts in 9-11 ms this way
    # and in 29-35 ms through _equal_runs (2 cores, numpy 2.4, best of 15)
    if values.shape[0] == 1:
        sums = np.add.outer(values[0], layer[0]).ravel()
        sums.sort()
        fresh = np.r_[True, sums[1:] != sums[:-1]]
        return int(np.count_nonzero(fresh)) if count_only else sums[fresh][None]

    def words_at(index: np.ndarray) -> np.ndarray:
        t, s = np.divmod(index, layer.shape[1])
        return np.take(values, t, axis=1) + np.take(layer, s, axis=1)

    weights = _fingerprint_weights(values.shape[0])
    prints = np.add.outer(weights @ values.view(np.uint64), weights @ layer.view(np.uint64))
    index, fresh = _equal_runs(prints.ravel(), words_at)
    return int(np.count_nonzero(fresh)) if count_only else words_at(index[fresh])


def _count_layered(bounds: Bounds, table: FactorTable, budget: int) -> int:
    """Distinct values as the layered sumset T_k = dedup(T_{k-1} + S_k).

    Each coordinate set S_k = dedup({0} + powers_k) of its A_k*(2B_k+1) powers
    goes through ``_sumset`` like every layer.  The budget is charged for every
    candidate value formed: the powers once per key word, by ``_keys``, then
    |T_{k-1}| * |S_k| sums per layer, each charged before it is formed.
    Layers go in ascending |S_k|.
    """
    powers = sum(a * (2 * b + 1) for a, b in zip(bounds.base_max, bounds.exp_max))
    what = f"census would key {powers} coordinate powers"
    keys = _keys(bounds, table, slice(1, None), powers, what, budget)
    words = len(keys)
    work = words * powers
    zero = np.zeros((words, 1), dtype=np.int64)
    layers = sorted(
        (
            _sumset(zero, (keys[:, :a, None] * np.arange(-b, b + 1)).reshape(words, -1), False)
            for a, b in zip(bounds.base_max, bounds.exp_max)
        ),
        key=lambda layer: layer.shape[1],
    )
    values, count = layers[0], layers[0].shape[1]
    combine = "census would combine at least {} candidate values and key words".format
    for k, layer in enumerate(layers[1:], start=2):
        work += values.shape[1] * layer.shape[1]
        charge(work, budget, combine(work))
        if k < bounds.n:
            values = _sumset(values, layer, count_only=False)
        else:
            count = _sumset(values, layer, count_only=True)
    return count


def _exact_value(bases: tuple[int, ...], exps: tuple[int, ...]) -> tuple[int, int]:
    """a_1**b_1 * ... * a_n**b_n as its reduced (numerator, denominator)."""
    num = math.prod(a**b for a, b in zip(bases, exps) if b > 0)
    den = math.prod(a**-b for a, b in zip(bases, exps) if b < 0)
    common = math.gcd(num, den)
    return num // common, den // common


def _count_sorted(bounds: Bounds) -> int:
    """Independent census route: reduce every box tuple to its exact fraction
    and count the distinct ones.  Shares no table or dedup machinery with the
    key path."""
    base_ranges = [range(1, a + 1) for a in bounds.base_max]
    exp_ranges = [range(-b, b + 1) for b in bounds.exp_max]
    return len(
        {
            _exact_value(bases, exps)
            for bases in itertools.product(*base_ranges)
            for exps in itertools.product(*exp_ranges)
        }
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
    is the independent route over every box tuple's exact fraction, reads no
    factor table, and ``budget`` bounds the tuple space it walks.
    """
    if strategy == "set":
        return _count_layered(bounds, _usable_table(table, max(bounds.base_max)), budget)
    if strategy != "sorted":
        raise ValueError(f"unknown strategy {strategy!r}")
    space = bounds.tuple_space()
    charge(space, budget, f"census oracle would walk {space} box tuples")
    return _count_sorted(bounds)


def verify_unique_representation(
    bounds: Bounds,
    table: FactorTable | None = None,
    *,
    param: FilterParameter | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[OrbitViolation]:
    """Check that equal values in the filtered set come from reorderings only.

    The filtered set (tuples passing none of the three exclusion conditions)
    is its clean base tuples times its exponent rows, its members in that
    order: bases, then rows, both lexicographic.  Each is keyed by its value,
    its bases' key words times its exponents.  ``_equal_runs`` puts equal
    values together, each run in member order, from the fingerprint sum_i
    fp(a_i) * b_i mod 2**64, so value words are only built a block at a time.
    Each later member of a run is compared with its first on its orbit, its
    sorted (base, exponent) pair codes.  A run with two orbits is a violation:
    ``first`` is the value's first member, ``second`` its first member of
    another orbit.  Violations are sorted by value; none is expected.

    The budget is charged prod(A_i), the filters' half sums and the members
    before any row, then by ``_keys``, which keys the distinct clean bases, the
    members times their key words.  An empty e-set returns [] at once.
    """
    table = _usable_table(table, max(bounds.base_max))
    param = default_cutoff(bounds) if param is None else param
    bases, exps = _admissible_rows(bounds, param, table, budget)
    members = len(bases) * len(exps)
    if not members:
        return []
    distinct = np.unique(bases)
    column = np.searchsorted(distinct, bases)
    what = f"uniqueness check would key {members} e-set members"
    keys = _keys(bounds, table, distinct, members, what, budget)
    base_prints = (_fingerprint_weights(len(keys)) @ keys.view(np.uint64))[column]

    # int64 sums wrap, but a value's balanced digits fit one word's radix
    # range, so the wrapped words are still exact keys
    def words_at(index: np.ndarray) -> np.ndarray:
        b, e = np.divmod(index, len(exps))
        return sum(keys[:, column[b, i]] * exps[e, i] for i in range(bounds.n))

    index, fresh = _equal_runs((base_prints @ exps.view(np.uint64).T).ravel(), words_at)
    starts, later = np.flatnonzero(fresh), np.flatnonzero(~fresh)
    witnesses: dict[int, int] = {}  # run start -> its first member of another orbit
    for block in np.split(later, range(_CERTIFY_BLOCK, later.size, _CERTIFY_BLOCK)):
        first = starts[np.searchsorted(starts, block) - 1]
        b, e = np.divmod(index[np.stack((first, block))], len(exps))
        orbits = np.sort(bases[b] * (2 * max(bounds.exp_max) + 1) + exps[e], axis=2)
        other = (orbits[0] != orbits[1]).any(axis=1)
        for start, change in zip(first[other].tolist(), block[other].tolist()):
            witnesses.setdefault(start, change)

    violations: list[OrbitViolation] = []
    for start, change in witnesses.items():
        first, second = (
            FormTuple(tuple(bases[b].tolist()), tuple(exps[e].tolist()))
            for b, e in (divmod(int(index[k]), len(exps)) for k in (start, change))
        )
        value = Fraction(*_exact_value(first.bases, first.exps))
        violations.append(OrbitViolation(value, first, second))
    return sorted(violations, key=lambda violation: violation.value)


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
    if len(sigma.images) != bounds.n:
        raise ValueError("permutation size disagrees with bounds")
    kept = math.prod(
        min(bounds.base_max[j], a) * (2 * min(bounds.exp_max[j], b) + 1)
        for a, b, j in zip(bounds.base_max, bounds.exp_max, sigma.images)
    )
    return Fraction(kept, bounds.tuple_space())


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
        return bounds, leading_term_envelope(bounds)[1]
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
            report = run_census(bounds, budget=budget, formula=formula, param=param)
        except BudgetError:
            truncated_at = scale
            break
        reports.append(report)
    return ConvergenceResult(tuple(reports), truncated_at)
