"""The three exclusion filters, the default cutoff rule, and the filtered set."""

import itertools
import math
import random

import numpy as np
import pytest

import logforms.conditions as conditions_module
from logforms import (
    Bounds,
    BudgetError,
    ConfigError,
    FilterParameter,
    FormTuple,
    count_e_set,
    count_large_prime_power,
    default_cutoff,
    has_bounded_relation,
    has_large_prime_power,
    has_smooth_base,
    in_e_set,
)


def _relation_scan(rows, k):
    """Condition 3 per row of a (q, n) array by exhaustive scan of the
    coefficient box; float64 products of these small integers are exact."""
    coeffs = np.array(list(itertools.product(range(-k, k + 1), repeat=rows.shape[1])))
    coeffs = coeffs[(coeffs != 0).any(axis=1)].astype(float)
    chunks = np.array_split(rows.astype(float), max(1, len(rows) // 16))
    return np.concatenate([(coeffs @ chunk.T == 0).any(axis=0) for chunk in chunks])


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
        param = FilterParameter.from_cutoff(cutoff)
        assert has_large_prime_power(bases, param, table_small) is expected

    def test_against_trial_division(self, table_small):
        # independent route: count each prime's multiplicity in the literal product
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(1, 3)
            bases = tuple(rng.randint(1, 60) for _ in range(n))
            cutoff = rng.choice([2.0, 3.0, 4.0, 9.0, 25.0])
            param = FilterParameter.from_cutoff(cutoff)
            product = math.prod(bases)
            expected = False
            for p in range(2, max(bases) + 1):
                if any(p % q == 0 for q in range(2, p)):
                    continue
                e, m = 0, product
                while m % p == 0:
                    m //= p
                    e += 1
                if e >= 2 and p**e >= cutoff:
                    expected = True
                    break
            assert has_large_prime_power(bases, param, table_small) is expected


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
    def test_zero_and_single(self):
        param = FilterParameter.from_cutoff(4.0)
        assert has_bounded_relation((0, 5), param)
        assert has_bounded_relation((0,), param)
        assert not has_bounded_relation((5,), param)

    def test_matching_magnitudes(self):
        param = FilterParameter.from_cutoff(4.0)
        assert has_bounded_relation((3, -3), param)
        assert has_bounded_relation((3, 3), param)

    def test_small_cases(self):
        param = FilterParameter.from_cutoff(4.0)  # coeff_bound 2
        assert has_bounded_relation((1, 2), param)  # 2*1 - 1*2 = 0
        assert not has_bounded_relation((2, 5), param)

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
            scan = _relation_scan(rows, k)
            assert conditions_module._related(rows, k).tolist() == scan.tolist(), (rows, k)
            outcomes.extend(scan.tolist())
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9

    def test_key_overflow_refused(self):
        param = FilterParameter.from_cutoff(4.0)
        with pytest.raises(ValueError, match="overflow"):
            has_bounded_relation((2**61, 3), param)
        assert has_bounded_relation((2**40, 3), param) is False

    def test_wide_coefficient_box(self):
        # 19**7 coefficient vectors; with every |c_i| <= 9 < 10 a base-20
        # digit expansion is unique
        param = FilterParameter.from_cutoff(100)  # coeff_bound 9
        powers = (1, 20, 400, 8000, 160000, 3200000, 64000000)
        assert not has_bounded_relation(powers, param)
        assert has_bounded_relation(powers[:-1] + (3,), param)  # 3*1 - 1*3 = 0


class TestESet:
    def test_membership_consistent_with_predicates(self, table_small):
        rng = random.Random(44)
        param = FilterParameter.from_cutoff(3.0)
        for _ in range(200):
            n = rng.randint(1, 3)
            t = FormTuple(
                tuple(rng.randint(1, 30) for _ in range(n)),
                tuple(rng.randint(-4, 4) for _ in range(n)),
            )
            expected = not (
                has_large_prime_power(t.bases, param, table_small)
                or has_smooth_base(t.bases, param, table_small)
                or has_bounded_relation(t.exps, param)
            )
            assert in_e_set(t, param, table_small) is expected

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
        scan = 0
        for bases in itertools.product(range(1, 9), range(1, 10)):
            for exps in itertools.product(range(-2, 3), range(-2, 3)):
                scan += in_e_set(FormTuple(bases, exps), param, table_small)
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
        # the engine's base and exponent sets against the per-tuple predicates
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
            prime_power = [has_large_prime_power(b, param, table_small) for b in all_bases]
            expected_bases = [
                b
                for b, bad in zip(all_bases, prime_power)
                if not bad and not has_smooth_base(b, param, table_small)
            ]
            all_exps = np.array(
                list(itertools.product(*(range(-b, b + 1) for b in exp_max)))
            )
            scan = _relation_scan(all_exps, param.coeff_bound)
            expected_exps = [tuple(e) for e in all_exps[~scan].tolist()]
            assert [tuple(b) for b in bases.tolist()] == expected_bases, (bounds, param)
            assert [tuple(e) for e in exps.tolist()] == expected_exps, (bounds, param)
            assert count_large_prime_power(bounds, param, table_small) == sum(prime_power)
