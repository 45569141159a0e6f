"""Exact per-condition counts, the smooth-number helper, and envelope bounds."""

import itertools
import math
import random

import pytest

from conftest import large_prime_power_scan, relation_scan
from logforms import (
    Bounds,
    BudgetError,
    FilterParameter,
    check_condition,
    count_smooth_base,
    has_smooth_base,
    smooth_count,
)


class TestSmoothCount:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (10, 2.0, 4),  # 1, 2, 4, 8
            (100, 5.0, 34),
            (1, 2.0, 1),
            (16, 16.0, 16),
        ],
    )
    def test_examples(self, table_grid, x, y, expected):
        assert smooth_count(x, y, table_grid) == expected

    def test_threshold_at_or_above_x_counts_everything(self, table_grid):
        rng = random.Random(55)
        for _ in range(50):
            x = rng.randint(1, 500)
            y = float(rng.randint(x, x + 100))
            assert smooth_count(x, y, table_grid) == x

    def test_monotone_in_both_arguments(self, table_grid):
        rng = random.Random(66)
        for _ in range(50):
            x = rng.randint(2, 400)
            y = rng.uniform(2.0, 50.0)
            assert smooth_count(x, y, table_grid) <= smooth_count(x + 1, y, table_grid)
            assert smooth_count(x, y, table_grid) <= smooth_count(x, y + 1.0, table_grid)

    def test_rejects_out_of_range(self, table_small):
        with pytest.raises(ValueError):
            smooth_count(0, 2.0, table_small)
        with pytest.raises(ValueError):
            smooth_count(10**6, 2.0, table_small)


class TestCountLargePrimePower:
    @pytest.mark.parametrize(
        "base_max,cutoff,expected",
        [
            ((3,), 5.0, 0),
            ((4,), 4.0, 1),
            ((4, 4), 4.0, 9),  # eight pairs through 2**2, plus (3, 3)
        ],
    )
    def test_examples(self, table_small, base_max, cutoff, expected):
        bounds = Bounds(base_max, (1,) * len(base_max))
        param = FilterParameter.from_cutoff(cutoff)
        assert check_condition(1, bounds, param, table_small).exact_count == expected

    def test_matches_predicate_scan(self, table_grid):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.randint(1, 2)
            base_max = tuple(rng.randint(1, 40) for _ in range(n))
            param = FilterParameter.from_cutoff(rng.choice([2.0, 4.0, 9.0, 30.0]))
            bounds = Bounds(base_max, (1,) * n)
            scan = sum(
                large_prime_power_scan(bases, param.cutoff)
                for bases in itertools.product(*[range(1, a + 1) for a in base_max])
            )
            assert check_condition(1, bounds, param, table_grid).exact_count == scan

    @pytest.mark.parametrize(
        "base_max,cutoff",
        [((1, 1), 2.0), ((1, 7), 4.0), ((8, 9), 9.0), ((40, 40), 30.0), ((600, 400), 9.0)],
        ids=["1x1", "1x7", "8x9", "40x40", "600x400"],
    )
    def test_pair_path_agrees_with_direct_scan(self, table_grid, base_max, cutoff):
        # every pair box is counted by inclusion-exclusion
        param = FilterParameter.from_cutoff(cutoff)
        fast = check_condition(1, Bounds(base_max, (1, 1)), param, table_grid).exact_count
        scan = sum(
            large_prime_power_scan(bases, cutoff)
            for bases in itertools.product(*[range(1, a + 1) for a in base_max])
        )
        assert fast == scan

    def test_pair_charge_is_the_cells_read(self, table_grid):
        # 600 * ceil(ln 601) + 400 * ceil(ln 401) = 4200 + 2400 strided cells
        bounds = Bounds((600, 400), (1, 1))
        param = FilterParameter.from_cutoff(9.0)
        report = check_condition(1, bounds, param, table_grid, budget=6600)
        assert report == check_condition(1, bounds, param, table_grid)
        with pytest.raises(BudgetError, match=r"read 6600 base cells.*raise --budget"):
            check_condition(1, bounds, param, table_grid, budget=6599)
        # a side below the log of the other: its 600 pairs, not 2 * 2 + 300 * 6
        with pytest.raises(BudgetError, match=r"read 600 base cells"):
            check_condition(1, Bounds((2, 300), (1, 1)), param, table_grid, budget=599)

    def test_budget_guard(self, table_grid):
        bounds = Bounds((50, 50, 50), (1, 1, 1))
        with pytest.raises(BudgetError, match=r"walk 125000 base tuples.*raise --budget"):
            check_condition(1, bounds, FilterParameter.from_cutoff(4.0), table_grid, budget=100)


class TestCountSmoothBase:
    @pytest.mark.parametrize(
        "base_max,cutoff,expected",
        [
            ((10,), 2.0, 4),
            ((10,), 10.0, 10),
            ((10, 10), 2.0, 64),  # 100 - 6 * 6
        ],
    )
    def test_examples(self, table_small, base_max, cutoff, expected):
        bounds = Bounds(base_max, (1,) * len(base_max))
        param = FilterParameter.from_cutoff(cutoff)
        assert count_smooth_base(bounds, param, table_small) == expected

    def test_complement_product_identity(self, table_grid):
        rng = random.Random(88)
        for _ in range(25):
            n = rng.randint(1, 3)
            base_max = tuple(rng.randint(1, 30) for _ in range(n))
            param = FilterParameter.from_cutoff(rng.choice([2.0, 3.0, 5.0, 8.0]))
            bounds = Bounds(base_max, (1,) * n)
            scan = sum(
                has_smooth_base(bases, param, table_grid)
                for bases in itertools.product(*[range(1, a + 1) for a in base_max])
            )
            assert count_smooth_base(bounds, param, table_grid) == scan


class TestCountBoundedRelation:
    # condition 3 reads no factor table; the small one stands in
    @pytest.mark.parametrize(
        "exp_max,cutoff,expected",
        [
            ((2, 2), 2.0, 17),  # coefficient window 1
            ((4, 4), 4.0, 49),  # coefficient window 2
        ],
    )
    def test_examples(self, table_small, exp_max, cutoff, expected):
        bounds = Bounds((5,) * len(exp_max), exp_max)
        param = FilterParameter.from_cutoff(cutoff)
        assert check_condition(3, bounds, param, table_small).exact_count == expected

    def test_single_coordinate(self, table_small):
        bounds = Bounds((5,), (7,))
        # only the zero exponent admits a relation
        report = check_condition(3, bounds, FilterParameter.from_cutoff(3.0), table_small)
        assert report.exact_count == 1

    def test_pair_closed_form_matches_scan(self, table_small):
        rng = random.Random(99)
        for _ in range(40):
            exp_max = (rng.randint(1, 7), rng.randint(1, 7))
            param = FilterParameter.from_cutoff(rng.choice([2.0, 3.0, 4.0, 8.0, 20.0]))
            bounds = Bounds((5, 5), exp_max)
            exps = list(itertools.product(*[range(-b, b + 1) for b in exp_max]))
            scan = int(relation_scan(exps, param.coeff_bound).sum())
            assert check_condition(3, bounds, param, table_small).exact_count == scan

    def test_triple_scan_path(self, table_small):
        bounds = Bounds((5, 5, 5), (2, 3, 2))
        param = FilterParameter.from_cutoff(4.0)  # coeff_bound 2
        exps = list(itertools.product(range(-2, 3), range(-3, 4), range(-2, 3)))
        scan = int(relation_scan(exps, 2).sum())
        assert check_condition(3, bounds, param, table_small).exact_count == scan

    def test_budget_guard(self, table_small):
        # C(40, 3) = 9880 magnitude sets, 5**2 + 5 half sums each
        bounds = Bounds((5, 5, 5), (40, 40, 40))
        with pytest.raises(BudgetError, match=r"form 296400 half sums.*raise --budget"):
            check_condition(3, bounds, FilterParameter.from_cutoff(4.0), table_small, budget=100)

    def test_charge_is_the_sets_not_the_rows(self, table_small):
        # 1.8e9 exponent rows, but no three distinct magnitudes fit the box, so
        # every row is related and no half sum is formed
        bounds = Bounds((5, 5, 5), (1, 1, 10**8))
        param = FilterParameter.from_cutoff(4.0)
        report = check_condition(3, bounds, param, table_small, budget=0)
        assert report.exact_count == 9 * (2 * 10**8 + 1)


class TestConditionBound:
    def test_prime_power_envelope(self, table_small):
        bounds = Bounds((100,), (5,))
        report = check_condition(1, bounds, FilterParameter.from_cutoff(16.0), table_small)
        assert report.bound_value == pytest.approx(100 * math.log(16.0) / 4.0)

    def test_smooth_envelope(self, table_small):
        bounds = Bounds((55,), (3,))
        report = check_condition(2, bounds, FilterParameter.from_cutoff(math.e**2), table_small)
        assert report.bound_value == pytest.approx(55**0.75)

    def test_relation_envelope(self, table_small):
        bounds = Bounds((10,), (10,))
        report = check_condition(3, bounds, FilterParameter.from_cutoff(math.e), table_small)
        assert report.bound_value == pytest.approx(9.0)

    def test_rejects_unknown_condition(self, table_small):
        bounds = Bounds((10,), (3,))
        for condition in (0, 4):
            with pytest.raises(ValueError, match=rf"1, 2 or 3, got {condition}$"):
                check_condition(condition, bounds, FilterParameter.from_cutoff(4.0), table_small)


class TestCheckCondition:
    def test_report_fields(self, table_grid):
        bounds = Bounds((60, 60), (4, 4))
        param = FilterParameter.from_cutoff(8.0)
        report = check_condition(1, bounds, param, table_grid)
        assert report.condition == 1
        scan = sum(
            large_prime_power_scan(bases, param.cutoff)
            for bases in itertools.product(range(1, 61), repeat=2)
        )
        assert report.exact_count == scan
        assert report.bound_value == pytest.approx(60 * 60 * math.log(8.0) ** 2 / math.sqrt(8.0))
        assert report.ratio == pytest.approx(report.exact_count / report.bound_value)

    @pytest.mark.parametrize("condition", [1, 2, 3])
    def test_counts_stay_under_envelopes_at_scale(self, table_grid, condition):
        bounds = Bounds((2000, 2000), (50, 50))
        param = FilterParameter.from_cutoff(16.0)
        report = check_condition(condition, bounds, param, table_grid)
        assert report.ratio < 10.0
