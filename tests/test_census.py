"""Brute-force rational census, uniqueness verification, and permissibility."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import logforms.census as census_module
import logforms.conditions as conditions_module
from logforms import (
    Bounds,
    BudgetError,
    FilterParameter,
    FormTuple,
    Permutation,
    build_factor_table,
    canonical_form,
    convergence_run,
    count_distinct_rationals,
    count_e_set,
    default_cutoff,
    main_term,
    permissibility_closed_form,
    possible_count,
    run_census,
    verify_unique_representation,
)


def _unfiltered_box(bounds, param, table, budget):
    """Stand-in for the filter engine that lets every box tuple through."""
    bases = list(itertools.product(*(range(1, a + 1) for a in bounds.base_max)))
    exps = list(itertools.product(*(range(-b, b + 1) for b in bounds.exp_max)))
    return np.array(bases, dtype=np.int64), np.array(exps, dtype=np.int64)


def _admissible_without(dropped):
    """Stand-in for the filter engine that drops exclusion condition ``dropped``
    (None drops none), built from the engine's own parts."""

    def admissible(bounds, param, table, budget):
        gpf = table.gpf()
        columns = [
            np.arange(1, a + 1) if dropped == 2 else np.flatnonzero(gpf[: a + 1] > param.cutoff)
            for a in bounds.base_max
        ]
        bad = conditions_module._large_prime_power_grid(columns, param.cutoff, table)
        clean = np.nonzero(np.ones_like(bad) if dropped == 1 else ~bad)
        bases = np.stack([column[i] for column, i in zip(columns, clean)], axis=1)
        if dropped == 3:
            return bases, _unfiltered_box(bounds, param, table, budget)[1]
        return bases, conditions_module._admissible_exps(bounds.exp_max, param)

    return admissible


def _grouping_violations(base_rows, exp_rows, table):
    """The values shared by two orbits among every base row with every
    exponent row, by grouping canonical forms in a dict."""
    groups = {}
    for bases in base_rows:
        for exps in exp_rows:
            value = canonical_form(FormTuple(bases, exps), table)
            groups.setdefault(value, set()).add(tuple(sorted(zip(bases, exps))))
    return {value for value, orbits in groups.items() if len(orbits) > 1}


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
        layout = census_module._key_layout(bounds, table_small)
        assert census_module._key_words(layout, max(base_max)).shape[0] == words
        assert count_distinct_rationals(
            bounds, table_small
        ) == count_distinct_rationals(bounds, table_small, strategy="sorted")

    @pytest.mark.parametrize("weighted_words", [0, 1])
    def test_fingerprint_collisions_are_resolved(
        self, table_small, monkeypatch, weighted_words
    ):
        # weight only the first ``weighted_words`` key words, so distinct
        # values that differ in the others share a fingerprint
        def weights(width):
            odd = 0x9E3779B97F4A7C15
            return np.array(
                [odd] * weighted_words + [0] * (width - weighted_words), dtype=np.uint64
            )

        exact_sorts = []
        distinct_columns = census_module._distinct_columns

        def spy(words):
            exact_sorts.append(words.shape[1])
            return distinct_columns(words)

        monkeypatch.setattr(census_module, "_fingerprint_weights", weights)
        monkeypatch.setattr(census_module, "_distinct_columns", spy)
        bounds = Bounds((160, 2, 2), (1, 1, 1))
        count = count_distinct_rationals(bounds, table_small)
        assert len(exact_sorts) > bounds.n  # collided runs were sorted exactly
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
        # coordinate, so the refusal must come before they are formed
        bounds = Bounds((10000, 10000), (100, 100))
        table = build_factor_table(10000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"at least 711540000 .*--budget"):
                count_distinct_rationals(bounds, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_key_words_are_charged_before_they_exist(self):
        # 3e5 powers pass the one-word check, but 241-word keys would take 184 MB
        bounds = Bounds((100000,), (1,))
        table = build_factor_table(100000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"at least 72300000 .*--budget"):
                count_distinct_rationals(bounds, table, budget=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_unknown_strategy_is_rejected(self, table_small):
        with pytest.raises(ValueError):
            count_distinct_rationals(Bounds((5,), (2,)), table_small, strategy="typo")


class TestVerifyUniqueRepresentation:
    def test_no_violations_on_reference_box(self, table_small):
        assert verify_unique_representation(Bounds((50, 60), (4, 5)), table_small) == []

    def test_no_violations_single_coordinate(self, table_small):
        assert verify_unique_representation(Bounds((40,), (6,)), table_small) == []

    def test_detects_collisions_when_filters_disabled(self, table_small, monkeypatch):
        # with every exclusion switched off, 2*3 and 6*1 collide at the value 6
        monkeypatch.setattr(census_module, "_admissible_tuples", _unfiltered_box)
        violations = verify_unique_representation(
            Bounds((6, 6), (1, 1)),
            table_small,
            param=FilterParameter.from_cutoff(2.0),
        )
        assert violations
        seen = violations[0]
        first_value = math.prod(
            (Fraction(a) ** b for a, b in zip(seen.first.bases, seen.first.exps)),
            start=Fraction(1),
        )
        second_value = math.prod(
            (Fraction(a) ** b for a, b in zip(seen.second.bases, seen.second.exps)),
            start=Fraction(1),
        )
        assert first_value == second_value == seen.value.value()
        assert not _same_orbit(seen.first, seen.second)

    def test_violations_match_grouping_oracle(self, table_small, monkeypatch):
        # the unfiltered box has many collisions; the sort must report exactly
        # the values that a plain grouping by value and orbit finds
        monkeypatch.setattr(census_module, "_admissible_tuples", _unfiltered_box)
        rng = random.Random(246)
        wide_keys = [Bounds((160, 2), (1, 1)), Bounds((235, 2), (2, 1))]
        found = 0
        for bounds in wide_keys + [_random_bounds(rng, 6_000) for _ in range(10)]:
            param = FilterParameter.from_cutoff(2.0)
            violations = verify_unique_representation(bounds, table_small, param=param)
            expected = _grouping_violations(
                itertools.product(*(range(1, a + 1) for a in bounds.base_max)),
                list(itertools.product(*(range(-b, b + 1) for b in bounds.exp_max))),
                table_small,
            )
            reported = [v.value for v in violations]
            assert len(reported) == len(set(reported))
            assert set(reported) == expected, bounds
            found += len(expected)
            for v in violations:
                assert canonical_form(v.first, table_small) == v.value
                assert canonical_form(v.second, table_small) == v.value
                assert not _same_orbit(v.first, v.second)
        assert found > 100

    @pytest.mark.parametrize(
        "dropped,count", [(None, 0), (1, 245), (2, 73), (3, 85)], ids=["none", "c1", "c2", "c3"]
    )
    def test_each_filter_stops_real_collisions(self, table_small, monkeypatch, dropped, count):
        # with one exclusion condition off, genuine values of the box collide;
        # verify must report exactly the values the grouping finds
        bounds = Bounds((20, 20), (3, 3))
        param = FilterParameter.from_cutoff(2.0)
        admissible = _admissible_without(dropped)
        bases, exps = admissible(bounds, param, table_small, 10**8)
        if dropped is None:
            engine = conditions_module._admissible_tuples(bounds, param, table_small, 10**8)
            assert [rows.tolist() for rows in engine] == [bases.tolist(), exps.tolist()]
        monkeypatch.setattr(census_module, "_admissible_tuples", admissible)
        violations = verify_unique_representation(bounds, table_small, param=param)
        expected = _grouping_violations(bases.tolist(), exps.tolist(), table_small)
        assert {v.value for v in violations} == expected
        assert len(violations) == count
        for v in violations:
            assert not _same_orbit(v.first, v.second)

    def test_budget_guard(self, table_small):
        with pytest.raises(BudgetError, match=r"walk 3099 .*--budget"):
            verify_unique_representation(
                Bounds((50, 60), (4, 5)), table_small, budget=10**3
            )
        # the filters fit 4000, the 32 640 e-set members do not
        with pytest.raises(BudgetError, match=r"key 32640 .*--budget"):
            verify_unique_representation(
                Bounds((50, 60), (4, 5)), table_small, budget=4000
            )

    def test_budget_charges_value_words(self):
        # 3 624 members fit the budget, their 8-word values (28 992 words) must too
        bounds = Bounds((1000,), (3,))
        table = build_factor_table(1000)
        with pytest.raises(BudgetError, match=r"key 3624 e-set members in 8 words.*--budget"):
            verify_unique_representation(bounds, table, budget=28_991)
        assert verify_unique_representation(bounds, table, budget=28_992) == []

    def test_budget_charges_the_work_done(self, table_small):
        # 9.4 million box tuples, but only 30 069 filter visits and 55 680 members
        assert (
            verify_unique_representation(
                Bounds((27, 29, 38), (4, 3, 2)), table_small, budget=10**6
            )
            == []
        )

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
    def test_equal_shape_scales(self, table_small):
        result = convergence_run((3, 5, 8), "equal", factors=2, table=table_small)
        assert result.truncated_at is None
        assert len(result.reports) == 3
        for scale, report in zip((3, 5, 8), result.reports):
            assert report.bounds == Bounds((scale, scale), (scale, scale))

    def test_separated_shape_scales(self, table_small):
        result = convergence_run((3, 4), "separated", factors=2, table=table_small)
        assert [r.bounds for r in result.reports] == [
            Bounds((3, 9), (3, 9)),
            Bounds((4, 16), (4, 16)),
        ]

    def test_custom_shape_scales(self, table_small):
        base = Bounds((4, 6), (2, 3))
        result = convergence_run(
            (1, 2), "custom", base=base, table=table_small
        )
        assert [r.bounds for r in result.reports] == [
            base,
            Bounds((8, 12), (4, 6)),
        ]

    def test_budget_truncates_run(self, table_small):
        result = convergence_run(
            (3, 40), "equal", factors=2, table=table_small, budget=10**4
        )
        assert result.truncated_at == 40
        assert len(result.reports) == 1
