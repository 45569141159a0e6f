"""The three exclusion filters, the default cutoff rule, and the filtered set."""

import itertools
import math
import random

import numpy as np
import pytest

import logforms.conditions as conditions_module
from conftest import large_prime_power_scan, relation_scan
from logforms import (
    Bounds,
    BudgetError,
    ConfigError,
    FilterParameter,
    check_condition,
    count_e_set,
    default_cutoff,
    has_smooth_base,
)


def _prime_power(bases, cutoff, table):
    """Condition 1 by the grid engine on the one-cell grid of ``bases``."""
    columns = [np.array([a]) for a in bases]
    return bool(conditions_module._large_prime_power_grid(columns, cutoff, table).item())


def _related(exps, k):
    """Condition 3 by the relation engine on the one-row array of ``exps``."""
    return bool(conditions_module._related(np.array([exps], dtype=np.int64), k)[0])


class TestFilterParameter:
    def test_from_cutoff(self):
        param = FilterParameter.from_cutoff(4.0)
        assert param.cutoff == 4.0
        assert param.coeff_bound == int(2 * math.log(4.0))  # = 2

    def test_rejects_low_cutoff(self):
        with pytest.raises(ConfigError):
            FilterParameter.from_cutoff(1.9)

    def test_rejects_non_finite_cutoff(self):
        with pytest.raises(ConfigError):
            FilterParameter.from_cutoff(float("inf"))

    def test_coeff_bound_floor_random(self):
        rng = random.Random(11)
        for _ in range(100):
            cutoff = rng.uniform(2.0, 500.0)
            param = FilterParameter.from_cutoff(cutoff)
            assert param.coeff_bound == math.floor(2.0 * math.log(cutoff))


class TestDefaultCutoff:
    def test_log_dominated(self):
        param = default_cutoff(Bounds((50, 60), (4, 5)))
        assert param.cutoff == pytest.approx(math.log(50))
        assert param.coeff_bound == 2

    def test_exponent_dominated(self):
        param = default_cutoff(Bounds((100, 100), (2, 9)))
        assert param.cutoff == 2.0
        assert param.coeff_bound == 1

    def test_small_base_bound(self):
        param = default_cutoff(Bounds((8, 8), (3, 3)))
        assert param.cutoff == pytest.approx(math.log(8))
        assert param.coeff_bound == 1

    def test_rejects_below_two(self):
        with pytest.raises(ConfigError):
            default_cutoff(Bounds((7, 100), (9, 9)))
        with pytest.raises(ConfigError):
            default_cutoff(Bounds((100,), (1,)))


class TestLargePrimePower:
    @pytest.mark.parametrize(
        "bases,cutoff,expected",
        [
            ((4,), 3.0, True),  # 2**2 = 4 >= 3
            ((2, 3), 3.0, False),  # squarefree product
            ((2, 2), 5.0, False),  # 2**2 = 4 < 5
            ((2, 2), 4.0, True),  # boundary: 4 >= 4
            ((6, 10), 4.0, True),  # shared prime 2 across bases
            ((1, 1), 2.0, False),
        ],
    )
    def test_examples(self, table_small, bases, cutoff, expected):
        assert large_prime_power_scan(bases, cutoff) is expected
        assert _prime_power(bases, cutoff, table_small) is expected

    def test_against_trial_division(self, table_small):
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(1, 3)
            bases = tuple(rng.randint(1, 60) for _ in range(n))
            cutoff = rng.choice([2.0, 3.0, 4.0, 9.0, 25.0])
            expected = large_prime_power_scan(bases, cutoff)
            assert _prime_power(bases, cutoff, table_small) is expected, (bases, cutoff)


class TestSmoothBase:
    @pytest.mark.parametrize(
        "bases,cutoff,expected",
        [
            ((1,), 2.0, True),  # no prime factors at all
            ((7,), 7.0, True),
            ((7,), 6.9, False),
            ((6, 35), 3.0, True),  # 6 = 2*3
            ((35, 22), 3.0, False),
        ],
    )
    def test_examples(self, table_small, bases, cutoff, expected):
        param = FilterParameter.from_cutoff(cutoff)
        assert has_smooth_base(bases, param, table_small) is expected


class TestBoundedRelation:
    # coefficient bound 2, the window of the cutoff 4
    def test_zero_and_single(self):
        assert _related((0, 5), 2)
        assert _related((0,), 2)
        assert not _related((5,), 2)

    def test_matching_magnitudes(self):
        assert _related((3, -3), 2)
        assert _related((3, 3), 2)

    def test_small_cases(self):
        for exps in ((1, 2), (2, 5), (2, -4), (3, 7), (2, 3, 7), (1, -2, 5)):
            assert _related(exps, 2) is bool(relation_scan([exps], 2)[0]), exps
        assert _related((1, 2), 2)  # 2*1 - 1*2 = 0
        assert not _related((2, 5), 2)

    def test_meet_in_middle_matches_exhaustive(self):
        # the engine on whole (q, n) arrays, many rows per block; mostly distinct
        # nonzero magnitudes, like the sets the per-set search gives it
        rng = random.Random(33)
        outcomes = []
        for _ in range(120):
            n = rng.randint(1, 6)
            k = rng.randint(1, {1: 9, 2: 9, 3: 6, 4: 3, 5: 2, 6: 2}[n])
            rows = np.array(
                [
                    [rng.choice((-1, 1)) * m for m in rng.sample(range(1, 40), n)]
                    if rng.random() < 0.9
                    else [rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, 40))
                ],
                dtype=np.int64,
            )
            scan = relation_scan(rows, k)
            assert conditions_module._related(rows, k).tolist() == scan.tolist(), (rows, k)
            outcomes.extend(scan.tolist())
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9

    def test_key_overflow_refused(self):
        with pytest.raises(ValueError, match="overflow"):
            _related((2**61, 3), 2)
        assert _related((2**40, 3), 2) is False
        assert relation_scan([(2**40, 3)], 2).tolist() == [False]

    def test_wide_coefficient_box(self):
        # 19**7 coefficient vectors; with every |c_i| <= 9 < 10 a base-20
        # digit expansion is unique
        k = FilterParameter.from_cutoff(100).coeff_bound
        assert k == 9
        powers = (1, 20, 400, 8000, 160000, 3200000, 64000000)
        assert not _related(powers, k)
        assert _related(powers[:-1] + (3,), k)  # 3*1 - 1*3 = 0

    def test_search_charge_is_exact(self):
        # the magnitude sets m_1 < ... < m_n fitting the box, counted by brute
        # force; each forms (2k+1)**ceil(n/2) + (2k+1)**floor(n/2) half sums
        param = FilterParameter.from_cutoff(4.0)  # coeff_bound 2
        boxes = ((3,), (2, 5), (3, 3, 3), (1, 2, 3), (4, 2, 6, 3), (2, 2, 2, 2, 2), (1, 9, 9))
        for exp_max in boxes:
            tops = sorted(exp_max)
            sets = itertools.combinations(range(1, tops[-1] + 1), len(tops))
            searched = sum(all(m <= b for m, b in zip(ms, tops)) for ms in sets)
            n = len(exp_max)
            work = searched * (5 ** ((n + 1) // 2) + 5 ** (n // 2))
            conditions_module._unrelated_sets(exp_max, param, budget=work)
            if work:  # five magnitudes in 1..2 cannot differ, so that box forms none
                with pytest.raises(BudgetError, match=rf"form {work} half sums.*raise --budget"):
                    conditions_module._unrelated_sets(exp_max, param, budget=work - 1)

    def test_search_charge_refuses_wide_window(self, table_small):
        # C(10, 6) = 210 magnitude sets searched with k = 36, 2 * 73**3 half sums
        # each: 1.6e8 half sums, from 64 base tuples
        bounds = Bounds((2,) * 6, (10,) * 6)
        param = FilterParameter.from_cutoff(1e8)
        assert param.coeff_bound == 36
        for count in (
            lambda: count_e_set(bounds, param, table_small),
            lambda: check_condition(3, bounds, param, table_small),
        ):
            with pytest.raises(BudgetError, match=r"form 163387140 half sums.*--budget"):
                count()

    def test_sets_give_the_unrelated_rows(self):
        # the box rows the coefficient scan finds unrelated: counted from the
        # sets, and expanded in lexicographic order.  Cutoffs lean small at
        # larger n, where only spread magnitudes survive, and each box keeps
        # the scan near 10**7 coefficient-row products
        rng = random.Random(2323)
        survived = set()
        for _ in range(150):
            n = rng.randint(1, 4)
            param = FilterParameter.from_cutoff(2 * 500 ** rng.random() ** n)
            side = (10**7 / (2 * param.coeff_bound + 1) ** n) ** (1 / n)
            exp_max = tuple(rng.randint(1, max(1, min(40, int(side // 2)))) for _ in range(n))
            rows = np.array(list(itertools.product(*(range(-b, b + 1) for b in exp_max))))
            expected = rows[~relation_scan(rows, param.coeff_bound)]
            sets = conditions_module._unrelated_sets(exp_max, param, 10**8)
            assert (sets <= np.sort(exp_max)).all(), (exp_max, param)  # only sets that fit
            assert conditions_module._row_count(sets, exp_max) == len(expected), (exp_max, param)
            got = conditions_module._signed_rows(sets, exp_max)
            assert got.tolist() == expected.tolist(), (exp_max, param)
            if len(expected):
                survived.add(n)
        assert survived == {1, 2, 3, 4}


class TestESet:
    def test_single_coordinate_count(self, table_small):
        bounds = Bounds((8,), (3,))
        count, density = count_e_set(bounds, default_cutoff(bounds), table_small)
        # admissible bases {3,5,6,7}, admissible exponents {+-1,+-2,+-3}
        assert count == 24
        assert density == pytest.approx(0.5)

    def test_count_factorization_matches_full_scan(self, table_small):
        param = FilterParameter.from_cutoff(3.0)
        bounds = Bounds((8, 9), (2, 2))
        count, _ = count_e_set(bounds, param, table_small)
        all_exps = list(itertools.product(range(-2, 3), range(-2, 3)))
        related = relation_scan(all_exps, param.coeff_bound).tolist()
        scan = 0
        for bases in itertools.product(range(1, 9), range(1, 10)):
            if large_prime_power_scan(bases, 3.0) or has_smooth_base(bases, param, table_small):
                continue
            scan += related.count(False)
        assert count == scan

    def test_table_below_the_box_is_refused(self, table_small):
        bounds = Bounds((20, 301), (3, 3))
        with pytest.raises(ValueError, match="exceeds factor table limit"):
            count_e_set(bounds, FilterParameter.from_cutoff(3.0), table_small)

    def test_budget_guard(self, table_small):
        # 50 * ceil(ln 51) + 60 * ceil(ln 61) = 500 base cells
        bounds = Bounds((50, 60), (4, 5))
        with pytest.raises(BudgetError, match=r"read 500 base cells.*--budget"):
            count_e_set(bounds, default_cutoff(bounds), table_small, budget=499)

    def test_budget_charges_the_work_done(self, table_small):
        # 500 base cells, then 4 coefficient pairs, though the box holds 297 000
        # tuples
        bounds = Bounds((50, 60), (4, 5))
        param = default_cutoff(bounds)
        assert count_e_set(bounds, param, table_small, budget=500) == count_e_set(
            bounds, param, table_small
        )

    def test_pair_count_matches_grid_route_and_oracles(self, table_small):
        # the pair engines against the uniqueness check's e-set on random pair
        # boxes, and against the trial-division and coefficient-scan oracles
        # on the small ones
        rng = random.Random(2424)
        nonzero = 0
        for trial in range(150):
            small = trial % 3 == 0
            base_max = tuple(rng.randint(1, 40 if small else 300) for _ in range(2))
            exp_max = tuple(rng.randint(1, 5 if small else 30) for _ in range(2))
            bounds = Bounds(base_max, exp_max)
            param = FilterParameter.from_cutoff(rng.choice([2, 3, 4.5, 9, 30, rng.uniform(2, 300)]))
            count = count_e_set(bounds, param, table_small)[0]
            bases, rows = conditions_module._admissible_rows(bounds, param, table_small, 10**8)
            assert count == len(bases) * len(rows), (bounds, param)
            nonzero += count > 0
            if small:
                bases = sum(
                    not large_prime_power_scan(b, param.cutoff)
                    and not has_smooth_base(b, param, table_small)
                    for b in itertools.product(*(range(1, a + 1) for a in base_max))
                )
                exps = list(itertools.product(*(range(-b, b + 1) for b in exp_max)))
                unrelated = len(exps) - int(relation_scan(exps, param.coeff_bound).sum())
                assert count == bases * unrelated, (bounds, param)
        assert nonzero > 75

    def test_clean_tuples_reads_only_kept_values(self, table_small):
        # random masks, slot 0 included, against trial division on the box
        rng = random.Random(2525)
        for _ in range(60):
            n = rng.randint(1, 3)
            base_max = tuple(rng.randint(1, (200, 60, 15)[n - 1]) for _ in range(n))
            keep = np.array([rng.random() < 0.7 for _ in range(max(base_max) + 1)])
            cutoff = rng.choice([2, 4.5, 9, 30])
            expected = sum(
                all(keep[a] for a in b) and not large_prime_power_scan(b, cutoff)
                for b in itertools.product(*(range(1, a + 1) for a in base_max))
            )
            got = conditions_module._clean_tuples(base_max, keep, cutoff, table_small)
            assert got == expected, (base_max, cutoff, keep.nonzero())

    def test_pair_closed_form_matches_sets(self):
        # wide pair exponent boxes at a raised budget: the pair closed form
        # against the rows of the searched unrelated sets
        rng = random.Random(2626)
        for _ in range(25):
            exp_max = (rng.randint(1, 400), rng.randint(1, 400))
            param = FilterParameter.from_cutoff(2 * 500 ** rng.random())
            sets = conditions_module._unrelated_sets(exp_max, param, 10**9)
            expected = conditions_module._row_count(sets, exp_max)
            assert conditions_module._unrelated_rows(exp_max, param, 10**8) == expected
        # k = 36, but only the 3 coefficient pairs that fit (1, 3) are walked
        param = FilterParameter.from_cutoff(1e8)
        assert conditions_module._unrelated_rows((1, 3), param, 3) == 0  # all related
        with pytest.raises(BudgetError, match=r"walk 3 coefficient pairs"):
            conditions_module._unrelated_rows((1, 3), param, 2)

    def test_one_coordinate_closed_form_matches_sets(self):
        # only b = 0 is related, so 2 * B_1 rows fail condition 3; a budget of 1
        # refuses any search
        rng = random.Random(2727)
        for _ in range(200):
            exp_max = (rng.randint(1, 400),)
            param = FilterParameter.from_cutoff(2 * 500_000 ** rng.random())
            sets = conditions_module._unrelated_sets(exp_max, param, 10**8)
            expected = conditions_module._row_count(sets, exp_max)
            assert conditions_module._unrelated_rows(exp_max, param, 1) == expected, param


class TestFilterEngine:
    def test_matches_scalar_predicates(self, table_small):
        # the engine's base and exponent sets against the per-tuple oracles
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(1, 4)
            while True:
                base_max = tuple(rng.randint(1, 200) for _ in range(n))
                if math.prod(base_max) <= 5_000:
                    break
            exp_max = tuple(rng.randint(1, 4 if n < 4 else 2) for _ in range(n))
            bounds = Bounds(base_max, exp_max)
            param = FilterParameter.from_cutoff(rng.choice([2, 3, 4.5, 9, 30, 100]))
            bases, exps = conditions_module._admissible_rows(bounds, param, table_small, 10**8)
            all_bases = list(itertools.product(*(range(1, a + 1) for a in base_max)))
            prime_power = [large_prime_power_scan(b, param.cutoff) for b in all_bases]
            expected_bases = [
                b
                for b, bad in zip(all_bases, prime_power)
                if not bad and not has_smooth_base(b, param, table_small)
            ]
            all_exps = np.array(
                list(itertools.product(*(range(-b, b + 1) for b in exp_max)))
            )
            scan = relation_scan(all_exps, param.coeff_bound)
            # with no clean base the e-set is empty, and no row is formed
            expected_exps = [tuple(e) for e in all_exps[~scan].tolist()] if expected_bases else []
            assert [tuple(b) for b in bases.tolist()] == expected_bases, (bounds, param)
            assert [tuple(e) for e in exps.tolist()] == expected_exps, (bounds, param)
            report = check_condition(1, bounds, param, table_small)
            assert report.exact_count == sum(prime_power)

    def test_grid_blocks_and_edge_columns(self, table_small, monkeypatch):
        # blocks of 7 cells, so most grids below span several of them
        monkeypatch.setattr(conditions_module, "_BLOCK", 7)
        rng = random.Random(77)
        grids = [
            [np.array(sorted(rng.sample(range(1, 61), rng.randint(1, 9)))) for _ in range(n)]
            for n in (1, 2, 3, 4)
            for _ in range(8)
        ]
        empty = np.array([], dtype=np.int64)
        grids += [
            [np.array([4, 8, 9]), empty, np.array([2, 3])],
            [empty, np.array([4, 8, 9])],
            [np.arange(60)],  # the pair path's column, from 0
            [np.array([0, 2, 12, 27]), np.arange(1, 20)],
        ]
        for columns in grids:
            for cutoff in (2, 4.5, 9, 30):
                bad = conditions_module._large_prime_power_grid(columns, cutoff, table_small)
                # a product of 0 is never marked
                expected = [
                    0 not in cell and large_prime_power_scan(cell, cutoff)
                    for cell in itertools.product(*(column.tolist() for column in columns))
                ]
                assert bad.shape == tuple(len(column) for column in columns)
                assert bad.ravel().tolist() == expected, (columns, cutoff)
