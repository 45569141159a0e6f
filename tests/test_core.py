"""Factor table, canonical forms, permutations, the budget meter and the lazy numpy handle."""

import math
import random
from fractions import Fraction

import pytest

from logforms import (
    Bounds,
    BudgetError,
    CanonicalRational,
    FactorTable,
    FilterParameter,
    FormTuple,
    Permutation,
    build_factor_table,
    canonical_form,
    convergence_run,
    count_bounded_relation,
    count_distinct_rationals,
    count_e_set,
    count_large_prime_power,
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
    "condition-1-n1": lambda t: count_large_prime_power(
        Bounds((20,), (3,)), _PARAM, t, budget=1
    ),
    "condition-1-n2": lambda t: count_large_prime_power(_PAIR, _PARAM, t, budget=1),
    "condition-1-n3": lambda t: count_large_prime_power(
        Bounds((10, 10, 10), (3, 3, 3)), _PARAM, t, budget=1
    ),
    "condition-3-n2": lambda t: count_bounded_relation(_PAIR, _PARAM, budget=1),
    "condition-3-n3": lambda t: count_bounded_relation(
        Bounds((10, 10, 10), (3, 3, 3)), _PARAM, budget=1
    ),
}

# entry points that build their own table, on a box that a charge needing only
# the box refuses before the table for 5e7 bases is sieved
_BIG = Bounds((50_000_000, 20), (3, 3))
_TABLELESS = {
    "census-set": lambda: count_distinct_rationals(_BIG, budget=1),
    "census-sorted": lambda: count_distinct_rationals(_BIG, budget=1, strategy="sorted"),
    "verify": lambda: verify_unique_representation(_BIG, param=_PARAM, budget=1),
    "run-census": lambda: run_census(_BIG, budget=1),
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


class TestFactorTable:
    def test_spf_is_smallest_prime_divisor(self, table_small):
        rng = random.Random(101)
        for _ in range(200):
            m = rng.randint(2, table_small.limit)
            p = int(table_small.spf[m])
            assert m % p == 0
            assert all(m % q for q in range(2, p))

    def test_primes_listing(self, table_small):
        primes = list(table_small.primes())
        assert primes[:6] == [2, 3, 5, 7, 11, 13]
        assert all(int(table_small.spf[p]) == p for p in primes)

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
        assert table.spf.tolist() == table_small.spf.tolist()
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


class TestCanonicalRational:
    def test_validation(self):
        with pytest.raises(ValueError):
            CanonicalRational(((3, 1), (2, 1)))  # wrong order
        with pytest.raises(ValueError):
            CanonicalRational(((2, 0),))  # zero exponent

    def test_value_and_reciprocal(self):
        form = CanonicalRational(((2, -1), (3, 2)))
        assert form.value() == Fraction(9, 2)
        assert CanonicalRational(((2, 1), (3, -2))).value() == Fraction(2, 9)
        assert CanonicalRational(()).value() == 1

    def test_canonical_form_collapses_to_one(self, table_small):
        one = canonical_form(FormTuple((4, 2), (1, -2)), table_small)
        assert one.factors == ()

    def test_matches_fraction_arithmetic(self, table_small):
        rng = random.Random(303)
        for _ in range(200):
            n = rng.randint(1, 4)
            bases = tuple(rng.randint(1, 50) for _ in range(n))
            exps = tuple(rng.randint(-4, 4) for _ in range(n))
            t = FormTuple(bases, exps)
            expected = math.prod(
                (Fraction(a) ** b for a, b in zip(bases, exps)), start=Fraction(1)
            )
            assert canonical_form(t, table_small).value() == expected

    def test_factors_separate_values(self, table_small):
        rng = random.Random(404)
        for _ in range(200):
            t1 = FormTuple(
                tuple(rng.randint(1, 40) for _ in range(2)),
                tuple(rng.randint(-3, 3) for _ in range(2)),
            )
            t2 = FormTuple(
                tuple(rng.randint(1, 40) for _ in range(2)),
                tuple(rng.randint(-3, 3) for _ in range(2)),
            )
            f1, f2 = canonical_form(t1, table_small), canonical_form(t2, table_small)
            assert (f1.factors == f2.factors) == (f1.value() == f2.value())


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
