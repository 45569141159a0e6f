"""Factor table, permutations, the budget meter and the lazy numpy handle."""

import math
import random

import pytest

from conftest import _trial_division
from logforms import (
    Bounds,
    BudgetError,
    FactorTable,
    FilterParameter,
    FormTuple,
    Permutation,
    build_factor_table,
    check_condition,
    convergence_run,
    count_distinct_rationals,
    count_e_set,
    factorize,
    run_census,
    verify_unique_representation,
)
from logforms.core import charge

# cutoff 4 has coefficient bound 2, so even the pair closed form does work
_PARAM = FilterParameter(4.0)
_PAIR = Bounds((20, 20), (3, 3))

# every entry point that takes a budget, called on a small box
_METERED = {
    "census-set": lambda t: count_distinct_rationals(_PAIR, t, budget=1),
    "census-sorted": lambda t: count_distinct_rationals(
        _PAIR, t, budget=1, strategy="sorted"
    ),
    "verify": lambda t: verify_unique_representation(_PAIR, t, param=_PARAM, budget=1),
    "e-set": lambda t: count_e_set(_PAIR, _PARAM, t, budget=1),
    "run-census": lambda t: run_census(_PAIR, t, budget=1),
    "condition-1-n1": lambda t: check_condition(1, Bounds((20,), (3,)), _PARAM, t, budget=1),
    "condition-1-n2": lambda t: check_condition(1, _PAIR, _PARAM, t, budget=1),
    "condition-1-n3": lambda t: check_condition(
        1, Bounds((10, 10, 10), (3, 3, 3)), _PARAM, t, budget=1
    ),
    "condition-3-n2": lambda t: check_condition(3, _PAIR, _PARAM, t, budget=1),
    "condition-3-n3": lambda t: check_condition(
        3, Bounds((10, 10, 10), (3, 3, 3)), _PARAM, t, budget=1
    ),
}

# entry points that build their own table, on a box that a charge needing only
# the box refuses before the table for 5e7 bases is sieved
_BIG = Bounds((50_000_000, 20), (3, 3))
_HUGE = Bounds((10**400,), (1,))
_TABLELESS = {
    "census-set": lambda: count_distinct_rationals(_BIG, budget=1),
    "census-sorted": lambda: count_distinct_rationals(_BIG, budget=1, strategy="sorted"),
    # refused by the key words' pre-sieve lower bound, 15 511 words per power
    "census-key-words": lambda: count_distinct_rationals(Bounds((10_000_000,), (1,))),
    "verify": lambda: verify_unique_representation(_BIG, param=_PARAM, budget=1),
    "run-census": lambda: run_census(_BIG, budget=1),
    # a base bound past the float range meets the sieve cap when the table is
    # made, before a charge could turn it into a float
    "census-past-float": lambda: count_distinct_rationals(_HUGE),
    "verify-past-float": lambda: verify_unique_representation(_HUGE),
    "run-census-past-float": lambda: run_census(_HUGE),
}


class TestBounds:
    def test_tuple_space(self):
        assert Bounds((2,), (1,)).tuple_space() == 6
        assert Bounds((2, 2), (1, 1)).tuple_space() == 36
        assert Bounds((50, 60), (4, 5)).tuple_space() == 50 * 9 * 60 * 11

    @pytest.mark.parametrize(
        "base_max,exp_max",
        [((), ()), ((0,), (1,)), ((2,), (0,)), ((2, 3), (1,)), ((2,), (-1,))],
    )
    def test_rejects_bad_boxes(self, base_max, exp_max):
        with pytest.raises(ValueError):
            Bounds(base_max, exp_max)


class TestFormTuple:
    def test_rejects_nonpositive_bases(self):
        with pytest.raises(ValueError):
            FormTuple((0, 2), (1, 1))
        with pytest.raises(ValueError):
            FormTuple((2,), (1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            FormTuple((), ())


class TestFactorTable:
    def test_gpf_is_largest_prime_by_trial_division(self, table_grid):
        gpf = table_grid.gpf().tolist()
        for m in range(2, table_grid.limit + 1):
            assert gpf[m] == _trial_division(m)[-1][0], m

    def test_primes_listing(self, table_small):
        primes = list(table_small.primes())
        assert primes[:6] == [2, 3, 5, 7, 11, 13]
        assert all(int(table_small.gpf()[p]) == p for p in primes)

    def test_limit_one_is_empty(self):
        table = build_factor_table(1)
        assert table.limit == 1
        assert len(table.primes()) == 0

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            build_factor_table(10**8 + 1)

    def test_deferred_table_sieves_on_first_use(self, sieves, table_small):
        table = FactorTable(300)
        assert table.limit == 300 and sieves == []
        assert table.gpf().tolist() == table_small.gpf().tolist()
        assert sieves == [300]

    def test_deferred_table_checks_its_limit_at_once(self):
        with pytest.raises(BudgetError, match="exceeds memory budget"):
            FactorTable(10**8 + 1)
        with pytest.raises(ValueError):
            FactorTable(0)


class TestBudgetMeter:
    def test_charge_refuses_only_past_the_budget(self):
        charge(5, 5, "stage would do 5 things")
        refusal = r"^stage would do 6 things, over the budget of 5; raise --budget$"
        with pytest.raises(BudgetError, match=refusal):
            charge(6, 5, "stage would do 6 things")

    @pytest.mark.parametrize("name", sorted(_METERED))
    def test_every_budget_is_charged(self, name, table_small):
        with pytest.raises(BudgetError, match=r", over the budget of 1; raise --budget$"):
            _METERED[name](table_small)

    @pytest.mark.parametrize("name", sorted(_TABLELESS))
    def test_refusal_without_a_table_skips_the_sieve(self, name, sieves):
        with pytest.raises(BudgetError):
            _TABLELESS[name]()
        assert sieves == []

    def test_truncated_sweep_skips_the_sieve(self, sieves):
        outcome = convergence_run([1], "custom", base=Bounds((50_000_000,), (1,)), budget=10)
        assert outcome.truncated_at == 1
        assert sieves == []


class TestFactorize:
    def test_examples(self, table_small):
        assert factorize(1, table_small) == ()
        assert factorize(12, table_small) == ((2, 2), (3, 1))
        assert factorize(97, table_small) == ((97, 1),)

    def test_roundtrip_random(self, table_small):
        rng = random.Random(202)
        for _ in range(300):
            m = rng.randint(1, table_small.limit)
            facs = factorize(m, table_small)
            assert math.prod(p**e for p, e in facs) == m
            assert list(facs) == sorted(facs)

    def test_rejects_out_of_range(self, table_small):
        with pytest.raises(ValueError):
            factorize(0, table_small)
        with pytest.raises(ValueError):
            factorize(table_small.limit + 1, table_small)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0))
        with pytest.raises(ValueError):
            Permutation((1, 2))

    def test_inverse_undoes_images(self):
        rng = random.Random(505)
        for _ in range(100):
            n = rng.randint(1, 6)
            images = list(range(n))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            inverse = sigma.inverse().images
            assert all(inverse[sigma.images[i]] == i for i in range(n))
            assert all(sigma.images[inverse[i]] == i for i in range(n))


# argv: the two modules to import, in order.  Prints the census count by both
# strategies and the e-set count of one small box.
_IMPORT_ORDER = """
import sys
for name in sys.argv[1:]:
    __import__(name)
import numpy
import logforms.core
from logforms import Bounds, build_factor_table, count_distinct_rationals, count_e_set, default_cutoff
assert logforms.core.np is numpy is sys.modules["numpy"]
bounds = Bounds((20, 20), (3, 3))
table = build_factor_table(20)
print(
    count_distinct_rationals(bounds, table),
    count_distinct_rationals(bounds, table, strategy="sorted"),
    count_e_set(bounds, default_cutoff(bounds), table)[0],
)
"""


class TestLazyNumpy:
    @pytest.mark.parametrize("order", [("numpy", "logforms"), ("logforms", "numpy")])
    def test_either_import_order_counts(self, order, fresh_python):
        code, out, err = fresh_python(_IMPORT_ORDER, *order)
        assert code == 0, err
        assert out.split() == ["4069", "4069", "1440"]
