"""Block-sum main term, permanents, and leading-order envelopes."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from logforms import (
    BlockIndex,
    Bounds,
    ConfigError,
    Permutation,
    leading_term_envelope,
    main_term,
    main_term_exact,
    permanent_brute,
    permanent_ryser,
    symmetric_leading_term,
)


def sorted_bounds(bounds):
    """(base bounds sorted, exponent bounds sorted, exponent rank per row): rows
    are coordinates in base order, ranks are 1-based and ties keep their order."""
    by_base = sorted(range(bounds.n), key=lambda m: bounds.base_max[m])
    exp_by_base = [bounds.exp_max[m] for m in by_base]
    by_exp = sorted(range(bounds.n), key=lambda l: exp_by_base[l])
    ranks = tuple(by_exp.index(l) + 1 for l in range(bounds.n))
    return tuple(bounds.base_max[m] for m in by_base), tuple(sorted(exp_by_base)), ranks


class TestOrderBounds:
    def test_block_index_validation(self):
        with pytest.raises(ValueError):
            BlockIndex((1, 3), (1, 1))  # second base block may be at most 2
        with pytest.raises(ValueError):
            BlockIndex((1, 1), (0, 1))
        with pytest.raises(ValueError, match="component lengths disagree"):
            BlockIndex((1, 1), (1,))


class TestPermanents:
    def test_examples(self):
        assert permanent_brute(((1,),)) == 1
        assert permanent_brute(((1, 1), (1, 1))) == 2
        assert permanent_brute(((1, 1, 1),) * 3) == 6
        assert permanent_brute(((1, 1), (0, 1))) == 1

    def test_ryser_matches_brute(self):
        rng = random.Random(222)
        for n in range(1, 8):
            for _ in range(30):
                matrix = tuple(
                    tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)
                )
                assert permanent_ryser(matrix) == permanent_brute(matrix)

    @pytest.mark.parametrize("permanent", [permanent_brute, permanent_ryser])
    def test_shape_checks(self, permanent):
        assert permanent([]) == 1  # the empty product over the one empty assignment
        with pytest.raises(ValueError, match="must be square"):
            permanent(((1, 1),))
        with pytest.raises(ValueError, match="must be square"):
            permanent(((1, 1), (1,)))

    def test_ryser_size_cap(self):
        matrix = ((1,) * 21,) * 21
        with pytest.raises(ConfigError):
            permanent_ryser(matrix)


def constrained_perm_count(block: BlockIndex, ranks: tuple[int, ...]) -> int:
    """Number of coordinate permutations compatible with a block assignment.

    Counts bijections sigma with base_blocks[sigma(l)] <= l and
    exp_blocks[sigma(l)] <= exp rank of l, for every coordinate l (1-based).
    At least 1 for any block index valid for these bounds: the identity
    always qualifies.
    """
    n = len(ranks)
    if len(block.base_blocks) != n:
        raise ValueError("block index size disagrees with bounds")
    for k, j in enumerate(block.exp_blocks):
        if j > ranks[k]:
            raise ValueError(f"exp block {j} exceeds rank {ranks[k]} at coordinate {k + 1}")
    columns = tuple(zip(block.base_blocks, block.exp_blocks))
    return permanent_ryser(
        [tuple(int(i <= l + 1 and j <= ranks[l]) for i, j in columns) for l in range(n)]
    )


class TestConstrainedPermCount:
    @pytest.fixture()
    def ranks3(self):
        return sorted_bounds(Bounds((2, 4, 8), (2, 4, 8)))[2]

    def test_unconstrained_block_counts_all(self, ranks3):
        assert constrained_perm_count(BlockIndex((1, 1, 1), (1, 1, 1)), ranks3) == 6

    def test_diagonal_block_forces_identity(self, ranks3):
        assert constrained_perm_count(BlockIndex((1, 2, 3), (1, 2, 3)), ranks3) == 1

    def test_mixed_block(self, ranks3):
        assert constrained_perm_count(BlockIndex((1, 2, 2), (1, 1, 2)), ranks3) == 2

    def test_matches_direct_permutation_scan(self):
        rng = random.Random(333)
        for _ in range(60):
            n = rng.randint(1, 5)
            bounds = Bounds(
                tuple(rng.randint(2, 30) for _ in range(n)),
                tuple(rng.randint(1, 9) for _ in range(n)),
            )
            ranks = sorted_bounds(bounds)[2]
            base_blocks = (1,) + tuple(rng.randint(1, k) for k in range(2, n + 1))
            exp_blocks = tuple(rng.randint(1, ranks[k]) for k in range(n))
            block = BlockIndex(base_blocks, exp_blocks)
            count = constrained_perm_count(block, ranks)
            scan = 0
            for sigma in itertools.permutations(range(1, n + 1)):
                if all(
                    base_blocks[m] <= sigma[m]
                    and exp_blocks[m] <= ranks[sigma[m] - 1]
                    for m in range(n)
                ):
                    scan += 1
            assert count == scan
            assert count >= 1

    def test_rejects_block_outside_rank(self):
        ranks = sorted_bounds(Bounds((2, 8), (9, 3)))[2]
        assert ranks == (2, 1)
        with pytest.raises(ValueError):
            constrained_perm_count(BlockIndex((1, 1), (1, 2)), ranks)


def _block_sum_oracle(bounds):
    """The main term by its definition: every ordered block assignment adds its
    width product divided by the permutations it admits."""
    n = bounds.n
    base_sorted, exp_sorted, ranks = sorted_bounds(bounds)
    base_edges = (1,) + base_sorted
    exp_edges = (1,) + exp_sorted
    base_widths = [base_edges[k] - base_edges[k - 1] for k in range(1, n + 1)]
    exp_widths = [exp_edges[k] - exp_edges[k - 1] for k in range(1, n + 1)]
    choices = [
        [
            (i, j)
            for i in range(1, k + 2)
            for j in range(1, ranks[k] + 1)
            if base_widths[i - 1] and exp_widths[j - 1]
        ]
        for k in range(n)
    ]
    total = Fraction(0)
    for assignment in itertools.product(*choices):
        block = BlockIndex(
            tuple(i for i, _ in assignment), tuple(j for _, j in assignment)
        )
        widths = math.prod(base_widths[i - 1] * exp_widths[j - 1] for i, j in assignment)
        total += Fraction(widths, constrained_perm_count(block, ranks))
    return 2**n * total


class TestMainTerm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("base,exp", [(5, 4), (10, 7)])
    def test_equal_bounds_identity(self, n, base, exp):
        value = main_term_exact(Bounds((base,) * n, (exp,) * n))
        expected = Fraction(2**n * ((base - 1) * (exp - 1)) ** n, math.factorial(n))
        assert value == expected

    def test_single_coordinate(self):
        assert main_term_exact(Bounds((9,), (4,))) == 2 * 8 * 3

    def test_hand_worked_pair(self):
        assert main_term_exact(Bounds((2, 8), (9, 3))) == 440

    def test_pair_closed_form(self):
        rng = random.Random(444)
        for _ in range(60):
            bounds = Bounds(
                (rng.randint(2, 30), rng.randint(2, 30)),
                (rng.randint(2, 12), rng.randint(2, 12)),
            )
            lo_a, hi_a = sorted(x - 1 for x in bounds.base_max)
            lo_b, hi_b = sorted(x - 1 for x in bounds.exp_max)
            expected = (
                4 * Fraction(lo_a * lo_b) * (hi_a * hi_b - Fraction(lo_a * lo_b, 2))
            )
            assert main_term_exact(bounds) == expected

    def test_relabel_invariance(self):
        rng = random.Random(555)
        for _ in range(40):
            n = rng.randint(2, 5)
            pairs = [
                (rng.randint(2, 20), rng.randint(1, 8)) for _ in range(n)
            ]
            value = main_term_exact(
                Bounds(tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
            )
            rng.shuffle(pairs)
            shuffled = main_term_exact(
                Bounds(tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
            )
            assert value == shuffled

    def test_exact_sandwich(self):
        rng = random.Random(666)
        for _ in range(40):
            n = rng.randint(1, 5)
            bounds = Bounds(
                tuple(rng.randint(2, 25) for _ in range(n)),
                tuple(rng.randint(2, 9) for _ in range(n)),
            )
            value = main_term_exact(bounds)
            shrunk = 2**n * math.prod(
                (a - 1) * (b - 1) for a, b in zip(bounds.base_max, bounds.exp_max)
            )
            assert Fraction(shrunk, math.factorial(n)) <= value <= shrunk

    def test_matches_block_sum_oracle(self):
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randint(1, 5)
            # small value ranges force ties among base and exponent bounds
            bounds = Bounds(
                tuple(rng.choice((4, 9, rng.randint(2, 25))) for _ in range(n)),
                tuple(rng.choice((3, 5, rng.randint(1, 9))) for _ in range(n)),
            )
            assert main_term_exact(bounds) == _block_sum_oracle(bounds)

    def test_seven_and_eight_coordinates(self):
        rng = random.Random(888)
        for pairs in (
            [(9, 5), (14, 2), (20, 8), (27, 3), (33, 7), (41, 4), (50, 6)],
            [(8, 3), (11, 9), (17, 2), (23, 6), (30, 4), (38, 8), (45, 5), (52, 7)],
        ):
            n = len(pairs)
            bounds = Bounds(tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
            value = main_term_exact(bounds)
            shrunk = 2**n * math.prod((a - 1) * (b - 1) for a, b in pairs)
            assert Fraction(shrunk, math.factorial(n)) <= value <= shrunk
            rng.shuffle(pairs)
            shuffled = Bounds(tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
            assert main_term_exact(shuffled) == value

    def test_float_wrapper(self):
        bounds = Bounds((2, 8), (9, 3))
        assert main_term(bounds) == pytest.approx(440.0)

    def test_size_cap(self):
        with pytest.raises(ConfigError):
            main_term_exact(Bounds((3,) * 11, (2,) * 11))


class TestLeadingTerms:
    def test_symmetric_example(self):
        assert symmetric_leading_term(2, 10, 10) == pytest.approx(20000.0)
        assert symmetric_leading_term(3, 2, 2) == pytest.approx(2**3 * 4**3 / 6)
        with pytest.raises(ValueError, match="n must be >= 1"):
            symmetric_leading_term(0, 10, 10)

    def test_separated_example(self):
        assert leading_term_envelope(Bounds((3, 30), (2, 40)))[1] == pytest.approx(
            28800.0
        )

    def test_envelope_brackets_main_term_asymptotically(self):
        # widely separated boxes drive the block sum toward its upper leading form
        previous = 0.0
        for scale in (4, 8, 16, 32):
            bounds = Bounds((scale, scale**2), (scale, scale**2))
            low, high = leading_term_envelope(bounds)
            ratio = main_term(bounds) / high
            assert low == pytest.approx(high / 2)
            assert ratio > previous
            previous = ratio
        assert previous > 0.9

    def test_envelope_collapses_for_single_coordinate(self):
        low, high = leading_term_envelope(Bounds((12,), (5,)))
        assert low == high == pytest.approx(2 * 12 * 5)
