"""Brute-force rational census, uniqueness verification, and permissibility."""

import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import logforms.census as census_module
import logforms.conditions as conditions_module
from conftest import large_prime_power_scan, relation_scan
from logforms import (
    Bounds,
    BudgetError,
    ConfigError,
    FactorTable,
    FilterParameter,
    FormTuple,
    OrbitViolation,
    Permutation,
    build_factor_table,
    convergence_run,
    count_distinct_rationals,
    count_e_set,
    default_cutoff,
    has_smooth_base,
    main_term,
    permissibility_closed_form,
    possible_count,
    run_census,
    verify_unique_representation,
)


def _unfiltered_box(bounds, param, table, budget):
    """Stand-in for the filter engine that lets every box tuple through."""
    bases = itertools.product(*(range(1, a + 1) for a in bounds.base_max))
    exps = itertools.product(*(range(-b, b + 1) for b in bounds.exp_max))
    return np.array(list(bases), dtype=np.int64), np.array(list(exps), dtype=np.int64)


def _admissible_without(dropped):
    """Stand-in for the filter engine that drops exclusion condition ``dropped``
    (None drops none), built from the per-condition oracles."""

    def admissible(bounds, param, table, budget):
        bases, exps = _unfiltered_box(bounds, param, table, budget)
        clean = np.array([
            (dropped == 1 or not large_prime_power_scan(b, param.cutoff))
            and (dropped == 2 or not has_smooth_base(b, param, table))
            for b in bases.tolist()
        ])
        if dropped != 3:
            exps = exps[~relation_scan(exps, param.coeff_bound)]
        return bases[clean], exps

    return admissible


def _spy_signed_rows(monkeypatch):
    """Record the number of magnitude sets each ``_signed_rows`` call expands."""
    seen = []
    signed_rows = conditions_module._signed_rows

    def spy(sets, exp_max):
        seen.append(len(sets))
        return signed_rows(sets, exp_max)

    monkeypatch.setattr(conditions_module, "_signed_rows", spy)
    return seen


def _fraction(bases, exps):
    """The exact value a_1**b_1 * ... * a_n**b_n."""
    return math.prod((Fraction(a) ** b for a, b in zip(bases, exps)), start=Fraction(1))


def _grouping_violations(base_rows, exp_rows):
    """The violations among every base row with every exponent row, by
    grouping their fractions in a dict: in value order, each value's first
    member and its first member of another orbit, bases then rows in the
    given order."""
    groups = {}
    for bases in base_rows:
        for exps in exp_rows:
            groups.setdefault(_fraction(bases, exps), []).append(FormTuple(bases, exps))
    violations = []
    for value, members in sorted(groups.items()):
        other = [m for m in members if not _same_orbit(m, members[0])]
        if other:
            violations.append(OrbitViolation(value, members[0], other[0]))
    return violations


def _collision_weights(weighted_words):
    """Fingerprint weights that weight only the first ``weighted_words`` key
    words, so distinct keys that differ in the others share a fingerprint;
    None keeps the real weights."""
    if weighted_words is None:
        return census_module._fingerprint_weights

    def weights(width):
        odd = 0x9E3779B97F4A7C15
        return np.array([odd] * weighted_words + [0] * (width - weighted_words), dtype=np.uint64)

    return weights


def _same_orbit(first, second):
    """Whether the two tuples hold the same (base, exponent) pairs."""
    return sorted(zip(first.bases, first.exps)) == sorted(zip(second.bases, second.exps))


def _random_bounds(rng, max_space):
    while True:
        n = rng.randint(1, 3)
        bounds = Bounds(
            tuple(rng.randint(1, 30 if n == 1 else 12) for _ in range(n)),
            tuple(rng.randint(1, 4 if n < 3 else 2) for _ in range(n)),
        )
        if bounds.tuple_space() <= max_space:
            return bounds


def _collision_boxes():
    """Boxes whose unfiltered members collide: two with wide keys, then ten
    random ones."""
    rng = random.Random(246)
    wide_keys = [Bounds((160, 2), (1, 1)), Bounds((235, 2), (2, 1))]
    return wide_keys + [_random_bounds(rng, 6_000) for _ in range(10)]


def _dense_key_rows(bounds, table):
    """Reference keys, word by word: each word's row over every base
    0 ... max(A_i), filled by adding a prime's place value at every multiple
    of each of its powers.  The layout is the one ``census._keys`` documents."""
    limit = max(bounds.base_max)
    primes = table.primes()
    slots = []  # (the powers p**k <= max(A_i), word, place value) per prime
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
    for w in range(word + 1):
        row = np.zeros(limit + 1, dtype=np.int64)
        for powers, _, place in (slot for slot in slots if slot[1] == w):
            for q in powers:
                row[q::q] += place
        yield row


def _key_cases():
    """(bounds, bases) for the key parity test: 40 random boxes with n = 1-4
    and bounds up to 400, then two wide boxes.  Each box keys the census's
    slice of 1 ... max(A_i) (but (10**5,)/(50,), whose 1 067-word table is
    853 MB), a shuffled subset holding base 1, the top base and repeats, and
    a single base."""
    rng = random.Random(32)
    boxes = []
    for _ in range(40):
        n = rng.randint(1, 4)
        boxes.append(Bounds(
            tuple(rng.randint(1, 400) for _ in range(n)),
            tuple(rng.randint(1, 400) for _ in range(n)),
        ))
    boxes += [Bounds((3000,), (3,)), Bounds((10**5,), (50,))]
    for bounds in boxes:
        top = max(bounds.base_max)
        picked = [1, top, top] + [rng.randint(1, top) for _ in range(rng.randint(1, 60))]
        rng.shuffle(picked)
        census = [slice(1, None)] if top < 10**5 else []
        yield bounds, census + [np.array(picked), np.array([rng.randint(1, top)])]


_KEY_CASES = list(_key_cases())

class TestCountDistinctRationals:
    @pytest.mark.parametrize(
        "base_max,exp_max,expected",
        [
            ((2,), (1,), 3),  # 1/2, 1, 2
            ((3,), (1,), 5),
            ((1,), (5,), 1),  # all powers of 1 collapse
            ((10,), (3,), 47),
            ((4, 4), (2, 2), 47),
            # Project Euler 29 / OEIS A126254: 9183 distinct a^b (2 <= a, b <= 100),
            # plus 87 non-powers at b = 1, doubled for reciprocals, plus 1
            ((100,), (100,), 18_541),
            ((30, 30, 30), (3, 3, 3), 275_621),
            ((12, 12, 12, 12), (2, 2, 2, 2), 21_819),
            ((30, 25), (4, 3), 14_109),
        ],
    )
    def test_examples(self, table_small, base_max, exp_max, expected):
        bounds = Bounds(base_max, exp_max)
        assert count_distinct_rationals(bounds, table_small) == expected

    def test_strategies_agree(self, table_small):
        rng = random.Random(123)
        for _ in range(12):
            bounds = _random_bounds(rng, 40_000)
            by_set = count_distinct_rationals(bounds, table_small, strategy="set")
            by_sort = count_distinct_rationals(bounds, table_small, strategy="sorted")
            assert by_set == by_sort

    @pytest.mark.parametrize(
        "base_max,exp_max", [((4, 2), (2, 2)), ((8, 4, 2), (1, 2, 3)), ((9, 3), (2, 4))]
    )
    def test_oracle_reads_no_factor_table(self, sieves, base_max, exp_max):
        # every box holds tuples such as 4**1 * 2**-2 whose product collapses to 1
        bounds = Bounds(base_max, exp_max)
        by_sort = count_distinct_rationals(bounds, strategy="sorted")
        assert sieves == []
        assert by_sort == count_distinct_rationals(bounds, strategy="set")

    @pytest.mark.parametrize(
        "base_max,exp_max,words",
        [
            ((12, 9), (3, 2), 1),
            ((160, 2), (1, 1), 2),
            ((235, 2), (2, 1), 3),
            ((235, 2, 2), (2, 1, 1), 3),
        ],
    )
    def test_every_key_width_agrees_with_sorted(
        self, table_small, base_max, exp_max, words
    ):
        bounds = Bounds(base_max, exp_max)
        one = np.array([max(base_max)])
        keys = census_module._keys(bounds, table_small, one, 1, "one key", budget=words)
        assert keys.shape == (words, 1)
        assert count_distinct_rationals(
            bounds, table_small
        ) == count_distinct_rationals(bounds, table_small, strategy="sorted")

    @pytest.mark.parametrize("weighted_words", [0, 1])
    def test_fingerprint_collisions_are_resolved(
        self, table_small, monkeypatch, weighted_words
    ):
        # the kernel sorts exactly only the runs whose fingerprints collided
        exact_sorts = []
        lexsort = np.lexsort

        def spy(keys):
            exact_sorts.append(len(keys[0]))
            return lexsort(keys)

        weights = _collision_weights(weighted_words)
        monkeypatch.setattr(census_module, "_fingerprint_weights", weights)
        monkeypatch.setattr(np, "lexsort", spy)
        bounds = Bounds((160, 2, 2), (1, 1, 1))
        count = count_distinct_rationals(bounds, table_small)
        assert exact_sorts  # collided runs were sorted exactly
        assert count == count_distinct_rationals(bounds, table_small, strategy="sorted")

    def test_coordinate_order_is_irrelevant(self, table_small):
        rng = random.Random(345)
        for _ in range(10):
            n = rng.randint(2, 3)
            pairs = [(rng.randint(1, 10), rng.randint(1, 3)) for _ in range(n)]
            bounds = Bounds(
                tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
            )
            rng.shuffle(pairs)
            shuffled = Bounds(
                tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
            )
            assert count_distinct_rationals(
                bounds, table_small
            ) == count_distinct_rationals(shuffled, table_small)

    def test_monotone_in_box(self, table_small):
        rng = random.Random(456)
        for _ in range(10):
            bounds = _random_bounds(rng, 20_000)
            grown = Bounds(
                tuple(a + rng.randint(0, 2) for a in bounds.base_max),
                tuple(b + rng.randint(0, 1) for b in bounds.exp_max),
            )
            assert count_distinct_rationals(
                bounds, table_small
            ) <= count_distinct_rationals(grown, table_small)

    def test_budget_guard(self, table_small):
        with pytest.raises(BudgetError, match=r"at least \d+ candidate.*--budget"):
            count_distinct_rationals(
                Bounds((100, 100), (5, 5)), table_small, budget=10**4
            )

    def test_power_charge_counts_key_words(self):
        # 177-word keys: the coordinate powers would fill about 2.85 GB per
        # coordinate, so the refusal must come before they are formed; the
        # words are charged first at their pre-sieve lower bound, 28
        bounds = Bounds((10000, 10000), (100, 100))
        table = build_factor_table(10000)
        tracemalloc.start()
        try:
            with pytest.raises(
                BudgetError, match=r"key 4020000 coordinate powers in at least 28 words.*--budget"
            ):
                count_distinct_rationals(bounds, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_key_words_are_charged_before_they_exist(self):
        # 3e5 powers pass the one-word check, but 241-word keys would take
        # 184 MB; the pre-sieve lower bound of 218 words already refuses them
        bounds = Bounds((100000,), (1,))
        table = build_factor_table(100000)
        tracemalloc.start()
        try:
            with pytest.raises(
                BudgetError, match=r"key 300000 coordinate powers in at least 218 words.*--budget"
            ):
                count_distinct_rationals(bounds, table, budget=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_unknown_strategy_is_rejected(self, table_small):
        with pytest.raises(ValueError):
            count_distinct_rationals(Bounds((5,), (2,)), table_small, strategy="typo")


class TestKeys:
    @pytest.mark.parametrize(
        "bounds,subsets",
        _KEY_CASES,
        ids=[
            "/".join(",".join(map(str, side)) for side in (bounds.base_max, bounds.exp_max))
            for bounds, _ in _KEY_CASES
        ],
    )
    def test_peeled_keys_match_the_dense_table(self, bounds, subsets):
        # keys[:, j] is the key of bases[j], for a base array or the census's slice
        table = build_factor_table(max(bounds.base_max))
        keyed = [census_module._keys(bounds, table, bases, 1, "keys", budget=10**9)
                 for bases in subsets]
        for w, row in enumerate(_dense_key_rows(bounds, table)):
            for bases, keys in zip(subsets, keyed):
                assert np.array_equal(keys[w], row[bases])
        assert all(len(keys) == w + 1 for keys in keyed)

    def test_verify_reads_each_members_keys(self, table_small, monkeypatch):
        # verify keys its 22 distinct clean bases, not the 41 bases up to 40;
        # every member's value words, read through the inverse index, are the
        # dense keys of its bases times its exponents
        bounds, param = Bounds((40, 30), (3, 3)), FilterParameter.from_cutoff(4)
        seen = {}
        admissible, keys, equal_runs = (
            census_module._admissible_rows, census_module._keys, census_module._equal_runs
        )

        def rows_spy(*args):
            seen["bases"], seen["exps"] = admissible(*args)
            return seen["bases"], seen["exps"]

        def keys_spy(*args):
            seen["keys"] = keys(*args)
            return seen["keys"]

        def runs_spy(prints, words_at):
            seen["words"] = words_at(np.arange(prints.size))
            return equal_runs(prints, words_at)

        monkeypatch.setattr(census_module, "_admissible_rows", rows_spy)
        monkeypatch.setattr(census_module, "_keys", keys_spy)
        monkeypatch.setattr(census_module, "_equal_runs", runs_spy)
        assert verify_unique_representation(bounds, table_small, param=param) == []
        bases, exps = seen["bases"], seen["exps"]
        assert seen["keys"].shape[1] == len(np.unique(bases)) == 22
        dense = np.stack(list(_dense_key_rows(bounds, table_small)))
        b, e = np.divmod(np.arange(len(bases) * len(exps)), len(exps))
        expected = sum(dense[:, bases[b, i]] * exps[e, i] for i in range(bounds.n))
        assert np.array_equal(seen["words"], expected)


class TestVerifyUniqueRepresentation:
    def test_no_violations_on_reference_box(self, table_small):
        assert verify_unique_representation(Bounds((50, 60), (4, 5)), table_small) == []

    def test_no_violations_single_coordinate(self, table_small):
        assert verify_unique_representation(Bounds((40,), (6,)), table_small) == []

    def test_rows_are_formed_per_coordinate_not_per_ordering(self, table_small):
        # 3**12 exponent rows and no magnitude set: the check answers at once,
        # with no pass over the 12! orderings of a set
        bounds = Bounds((1,) * 12, (1,) * 12)
        started = time.perf_counter()
        param = FilterParameter.from_cutoff(2.0)
        assert verify_unique_representation(bounds, table_small, param=param) == []
        assert time.perf_counter() - started < 5
        sets = np.zeros((0, 12), dtype=np.int64)
        assert conditions_module._signed_rows(sets, bounds.exp_max).shape == (0, 12)

    def test_detects_collisions_when_filters_disabled(self, table_small, monkeypatch):
        # with every exclusion switched off, 2*3 and 6*1 collide at the value 6
        monkeypatch.setattr(census_module, "_admissible_rows", _unfiltered_box)
        violations = verify_unique_representation(
            Bounds((6, 6), (1, 1)),
            table_small,
            param=FilterParameter.from_cutoff(2.0),
        )
        assert violations
        seen = violations[0]
        assert isinstance(seen.value, Fraction)
        first_value = _fraction(seen.first.bases, seen.first.exps)
        second_value = _fraction(seen.second.bases, seen.second.exps)
        assert first_value == second_value == seen.value
        assert not _same_orbit(seen.first, seen.second)
        # the least value comes first, witnessed by its first member in member
        # order, bases then rows, and its first member of another orbit
        assert seen == OrbitViolation(
            Fraction(1, 12), FormTuple((2, 6), (-1, -1)), FormTuple((3, 4), (-1, -1))
        )

    @pytest.mark.parametrize("weighted_words", [None, 0, 1], ids=["real", "0", "1"])
    def test_violations_match_grouping_oracle(self, table_small, monkeypatch, weighted_words):
        # the unfiltered box has many collisions; the check must report exactly
        # the violations that a plain grouping by value and orbit finds, in
        # value order with the same witnesses, also when distinct values share
        # fingerprints
        monkeypatch.setattr(census_module, "_admissible_rows", _unfiltered_box)
        weights = _collision_weights(weighted_words)
        monkeypatch.setattr(census_module, "_fingerprint_weights", weights)
        found = 0
        for bounds in _collision_boxes():
            param = FilterParameter.from_cutoff(2.0)
            violations = verify_unique_representation(bounds, table_small, param=param)
            expected = _grouping_violations(
                itertools.product(*(range(1, a + 1) for a in bounds.base_max)),
                list(itertools.product(*(range(-b, b + 1) for b in bounds.exp_max))),
            )
            assert violations == expected, bounds
            found += len(expected)
        assert found > 100

    def test_violations_do_not_depend_on_the_weights(self, table_small, monkeypatch):
        # the weightings put the runs in different orders, but the violations,
        # witnesses included, come out the same and in increasing value
        monkeypatch.setattr(census_module, "_admissible_rows", _unfiltered_box)
        param = FilterParameter.from_cutoff(2.0)
        for bounds in _collision_boxes() + [
            Bounds((20, 20), (2, 2)), Bounds((12, 9, 5), (1, 2, 1))
        ]:
            seen = []
            for weighted_words in (None, 0, 1):
                weights = _collision_weights(weighted_words)
                monkeypatch.setattr(census_module, "_fingerprint_weights", weights)
                violations = verify_unique_representation(bounds, table_small, param=param)
                seen.append([(v.value, v.first, v.second) for v in violations])
            assert seen[0] == seen[1] == seen[2], bounds
            values = [value for value, _, _ in seen[0]]
            assert all(low < high for low, high in zip(values, values[1:])), bounds

    @pytest.mark.parametrize(
        "dropped,count", [(None, 0), (1, 245), (2, 73), (3, 85)], ids=["none", "c1", "c2", "c3"]
    )
    def test_each_filter_stops_real_collisions(self, table_small, monkeypatch, dropped, count):
        # with one exclusion condition off, genuine values of the box collide;
        # verify must report exactly the violations the grouping finds
        bounds = Bounds((20, 20), (3, 3))
        param = FilterParameter.from_cutoff(2.0)
        admissible = _admissible_without(dropped)
        bases, exps = admissible(bounds, param, table_small, 10**8)
        if dropped is None:
            engine = conditions_module._admissible_rows(bounds, param, table_small, 10**8)
            assert [rows.tolist() for rows in engine] == [bases.tolist(), exps.tolist()]
        monkeypatch.setattr(census_module, "_admissible_rows", admissible)
        violations = verify_unique_representation(bounds, table_small, param=param)
        assert violations == _grouping_violations(bases.tolist(), exps.tolist())
        assert len(violations) == count

    def test_budget_guard(self, table_small):
        with pytest.raises(BudgetError, match=r"walk 3000 base tuples.*--budget"):
            verify_unique_representation(
                Bounds((50, 60), (4, 5)), table_small, budget=10**3
            )
        # the filters fit 4000, the 32 640 e-set members do not
        with pytest.raises(BudgetError, match=r"key 32640 .*--budget"):
            verify_unique_representation(
                Bounds((50, 60), (4, 5)), table_small, budget=4000
            )

    def test_members_are_charged_before_any_row(self, table_small, monkeypatch):
        # 3 940 600 320 members are refused once the clean bases exist, before
        # a single exponent row is expanded
        seen = _spy_signed_rows(monkeypatch)
        with pytest.raises(BudgetError, match=r"key 3940600320 e-set members, .*--budget"):
            verify_unique_representation(Bounds((20, 20, 20), (100, 100, 100)), table_small)
        assert seen == []

    def test_empty_e_set_forms_nothing(self, table_small, monkeypatch):
        # no base of 2 is clean at C = 2.5, so neither rows nor keys are formed
        def unkeyed(*args):
            raise AssertionError("the key table was built")

        seen = _spy_signed_rows(monkeypatch)
        monkeypatch.setattr(census_module, "_keys", unkeyed)
        bounds = Bounds((2, 2, 2), (100, 100, 100))
        param = FilterParameter.from_cutoff(2.5)
        assert verify_unique_representation(bounds, table_small, param=param) == []
        assert seen == [0]

    def test_key_table_is_charged(self):
        # the key table holds the distinct clean bases only, so the 66 members
        # in 20 words (1 320) fit, and the largest charge is the filters' 3 000
        # base tuples, not a column per base up to 3 000
        bounds = Bounds((3000,), (3,))
        table = build_factor_table(3000)
        param = FilterParameter.from_cutoff(2900)
        with pytest.raises(BudgetError, match=r"walk 3000 base tuples.*--budget"):
            verify_unique_representation(bounds, table, param=param, budget=2999)
        assert verify_unique_representation(bounds, table, param=param, budget=3000) == []

    def test_budget_charges_value_words(self):
        # 3 624 members fit the budget, their 8-word values (28 992 words) must too
        bounds = Bounds((1000,), (3,))
        table = build_factor_table(1000)
        with pytest.raises(BudgetError, match=r"key 3624 e-set members in 8 words.*--budget"):
            verify_unique_representation(bounds, table, budget=28_991)
        assert verify_unique_representation(bounds, table, budget=28_992) == []

    def test_word_floor_refuses_before_the_layout(self, monkeypatch):
        # 1000 / ln 1000 > 144 primes need at least 4 words, so the census's
        # 7 000 powers need 28 000 words and verify's 3 624 members 14 496,
        # charged before the key layout walks a prime
        bounds = Bounds((1000,), (3,))
        table = build_factor_table(1000)
        primes = FactorTable.primes

        def unwalked(table):
            if sys._getframe(1).f_code is census_module._keys.__code__:
                raise AssertionError("the key layout walked the primes")
            return primes(table)

        for run, floor, what in (
            (count_distinct_rationals, 28_000, "7000 coordinate powers"),
            (verify_unique_representation, 14_496, "3624 e-set members"),
        ):
            monkeypatch.setattr(FactorTable, "primes", unwalked)
            with pytest.raises(BudgetError, match=f"key {what} in at least 4 words each"):
                run(bounds, table, budget=floor - 1)
            monkeypatch.undo()
            with pytest.raises(BudgetError, match=f"key {what} in 8 words each"):
                run(bounds, table, budget=floor)

    def test_budget_charges_the_work_done(self, table_small):
        # 9.4 million box tuples, but only 30 069 filter visits and 55 680 members
        assert (
            verify_unique_representation(
                Bounds((27, 29, 38), (4, 3, 2)), table_small, budget=10**6
            )
            == []
        )

    def test_memory_per_member(self, table_small):
        # equal values are grouped from one fingerprint per member, and value
        # words and orbit codes are built a block at a time: about 27 traced
        # bytes per member on this box
        bounds = Bounds((100, 100), (10, 10))
        members = count_e_set(bounds, default_cutoff(bounds), table_small)[0]
        assert members == 919_360
        tracemalloc.start()
        try:
            assert verify_unique_representation(bounds, table_small) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * members

    @pytest.mark.parametrize(
        "base_max,exp_max,cutoff,members",
        [
            # cutoff ln 15 gives coefficient bound 1
            ((15, 15, 15), (6, 6, 6), math.log(15), 133_056),
            # the default cutoff ln 20 gives coefficient bound 2
            ((20, 20, 20), (10, 10, 10), None, 514_368),
        ],
        ids=["ln15", "default"],
    )
    def test_three_coordinates_with_members(self, table_small, base_max, exp_max, cutoff, members):
        bounds = Bounds(base_max, exp_max)
        param = default_cutoff(bounds) if cutoff is None else FilterParameter.from_cutoff(cutoff)
        assert count_e_set(bounds, param, table_small)[0] == members
        assert verify_unique_representation(bounds, table_small, param=param) == []


class TestPermissibility:
    def test_identity_is_certain(self):
        rng = random.Random(678)
        for _ in range(20):
            n = rng.randint(1, 4)
            bounds = Bounds(
                tuple(rng.randint(1, 15) for _ in range(n)),
                tuple(rng.randint(1, 5) for _ in range(n)),
            )
            identity = Permutation(tuple(range(n)))
            assert permissibility_closed_form(identity, bounds) == 1
            assert possible_count(identity, bounds) == bounds.tuple_space()

    def test_separated_swap_example(self):
        swap = Permutation((1, 0))
        bounds = Bounds((3, 30), (2, 40))
        assert permissibility_closed_form(swap, bounds) == Fraction(1, 162)
        assert possible_count(swap, bounds) == 225

    def test_closed_form_matches_exhaustive_count(self):
        rng = random.Random(789)
        for _ in range(25):
            n = rng.randint(1, 3)
            bounds = Bounds(
                tuple(rng.randint(1, 8) for _ in range(n)),
                tuple(rng.randint(1, 3) for _ in range(n)),
            )
            images = list(range(n))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            assert permissibility_closed_form(sigma, bounds) == Fraction(
                possible_count(sigma, bounds), bounds.tuple_space()
            )

    def test_rejects_wrong_size_permutation(self):
        bounds = Bounds((3, 4, 5), (1, 2, 3))
        for sigma in (Permutation((1, 0)), Permutation((0, 1, 2, 3))):
            with pytest.raises(ValueError, match="size disagrees"):
                possible_count(sigma, bounds)
            with pytest.raises(ValueError, match="size disagrees"):
                permissibility_closed_form(sigma, bounds)

    def test_separated_swap_probability_decays(self):
        swap = Permutation((1, 0))
        values = [
            permissibility_closed_form(swap, Bounds((s, s * s), (s, s * s)))
            for s in (3, 4, 5)
        ]
        assert values[0] > values[1] > values[2]


class TestRunCensus:
    def test_report_fields(self, table_small):
        bounds = Bounds((20, 20), (2, 2))
        report = run_census(bounds, table_small)
        assert report.bounds == bounds
        assert report.tuple_space == 10_000
        assert report.exact_count == count_distinct_rationals(bounds, table_small)
        assert report.formula_value == pytest.approx(main_term(bounds))
        assert report.ratio == pytest.approx(
            report.exact_count / report.formula_value
        )
        assert report.e_count is not None

    def test_small_box_reports_no_filtered_count(self, table_small):
        # the default cutoff rule needs every bound above e**2 / 2 in log terms
        report = run_census(Bounds((5,), (3,)), table_small)
        assert report.e_count is None
        assert report.exact_count == count_distinct_rationals(
            Bounds((5,), (3,)), table_small
        )

    def test_custom_formula_value(self, table_small):
        bounds = Bounds((10, 10), (2, 2))
        report = run_census(bounds, table_small, formula=float(bounds.tuple_space()))
        assert report.formula_value == pytest.approx(float(bounds.tuple_space()))
        assert report.ratio == pytest.approx(report.exact_count / bounds.tuple_space())


class TestConvergenceRun:
    def test_equal_shape_scales(self):
        result = convergence_run((3, 5, 8), "equal", factors=2)
        assert result.truncated_at is None
        assert len(result.reports) == 3
        for scale, report in zip((3, 5, 8), result.reports):
            assert report.bounds == Bounds((scale, scale), (scale, scale))

    def test_separated_shape_scales(self):
        result = convergence_run((3, 4), "separated", factors=2)
        assert [r.bounds for r in result.reports] == [
            Bounds((3, 9), (3, 9)),
            Bounds((4, 16), (4, 16)),
        ]

    def test_custom_shape_scales(self):
        base = Bounds((4, 6), (2, 3))
        result = convergence_run((1, 2), "custom", base=base)
        assert [r.bounds for r in result.reports] == [
            base,
            Bounds((8, 12), (4, 6)),
        ]

    @pytest.mark.parametrize(
        "shape,options",
        [("equal", {}), ("separated", {}), ("custom", {"factors": 2}),
         ("spiral", {"factors": 2})],
        ids=["equal-without-factors", "separated-without-factors", "custom-without-base",
             "unknown-shape"],
    )
    def test_incomplete_shape_is_rejected(self, shape, options):
        with pytest.raises(ConfigError):
            convergence_run((3, 5), shape, **options)

    def test_budget_truncates_run(self):
        result = convergence_run((3, 40), "equal", factors=2, budget=10**4)
        assert result.truncated_at == 40
        assert len(result.reports) == 1
