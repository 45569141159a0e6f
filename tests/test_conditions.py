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
    count_e_set,
    count_large_prime_power,
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
        # nonzero magnitudes, so the +-1 shortcut does not decide the row first
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

    def test_budget_guard(self, table_small):
        bounds = Bounds((50, 60), (4, 5))
        with pytest.raises(BudgetError):
            count_e_set(bounds, default_cutoff(bounds), table_small, budget=10**3)

    def test_budget_charges_the_work_done(self, table_small):
        # 3000 base tuples plus 99 exponent tuples, though the box holds 297 000
        bounds = Bounds((50, 60), (4, 5))
        param = default_cutoff(bounds)
        assert count_e_set(bounds, param, table_small, budget=4000) == count_e_set(
            bounds, param, table_small
        )


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
            bases, exps = conditions_module._admissible_tuples(
                bounds, param, table_small, 10**8
            )
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
            expected_exps = [tuple(e) for e in all_exps[~scan].tolist()]
            assert [tuple(b) for b in bases.tolist()] == expected_bases, (bounds, param)
            assert [tuple(e) for e in exps.tolist()] == expected_exps, (bounds, param)
            assert count_large_prime_power(bounds, param, table_small) == sum(prime_power)
