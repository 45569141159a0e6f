"""Leading-term formulas for the count of distinct bounded power products.

The central object is ``main_term``: the box [1, A_1] x ... x [-B_n, B_n] is
cut per coordinate into blocks along the sorted base bounds and the sorted
exponent bounds, every assignment of one (base block, exponent block) pair per
coordinate contributes the product of its block widths, and each contribution
is divided by the number of coordinate permutations that keep the assignment
valid.  Over the orderings of one multiset of block pairs those divisors
cancel, so the sum is taken once per multiset that fits the bounds in some
order, weighted by its multinomial count, as one exact integer.  Scaling by
2**n (exponent sign choices) gives the polynomial that the exact census
approaches as the bounds grow.  ``main_term_exact`` sorts the bounds itself;
``BlockIndex`` (one assignment) and the permanents of 0/1 matrices that the
definition uses remain available for checking it against that definition.

Closed forms bracket it: ``symmetric_leading_term`` (all bounds equal, the n!
symmetry is fully active) and ``leading_term_envelope``, whose upper bracket
2**n prod(A_i B_i) is the form for bounds so spread out that no permutation
symmetry survives, and whose lower bracket divides it by n!.

All main-term arithmetic is exact (integers and fractions); callers receive
floats only from the convenience wrappers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Bounds, ConfigError

__all__ = [
    "BlockIndex",
    "permanent_brute",
    "permanent_ryser",
    "main_term",
    "main_term_exact",
    "symmetric_leading_term",
    "leading_term_envelope",
]

_RYSER_MAX = 20
# The main-term dynamic program takes 8-9 s at n = 10 with distinct bounds (2 cores).
_MAIN_TERM_MAX = 10


@dataclass(frozen=True)
class BlockIndex:
    """One block choice per coordinate; entries are 1-based.

    Coordinates are in nondecreasing base-bound order.  ``base_blocks[k]`` may
    not exceed k+1 (coordinate k+1 sees only the first k+1 base blocks); the
    matching exponent ceiling is the rank of the coordinate's exponent bound
    among the sorted exponent bounds, and is enforced where the two meet.
    """

    base_blocks: tuple[int, ...]
    exp_blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.base_blocks)
        if len(self.exp_blocks) != n:
            raise ValueError("component lengths disagree")
        for k, (i, j) in enumerate(zip(self.base_blocks, self.exp_blocks), start=1):
            if not 1 <= i <= k:
                raise ValueError(f"base block {i} out of range 1..{k}")
            if not 1 <= j <= n:
                raise ValueError(f"exp block {j} out of range 1..{n}")


def permanent_brute(matrix: list[tuple[int, ...]] | tuple[tuple[int, ...], ...]) -> int:
    """Permanent by full scan of all row-to-column assignments."""
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    total = 0
    for cols in itertools.permutations(range(n)):
        prod = 1
        for l, m in enumerate(cols):
            prod *= rows[l][m]
            if prod == 0:
                break
        total += prod
    return total


def permanent_ryser(matrix: list[tuple[int, ...]] | tuple[tuple[int, ...], ...]) -> int:
    """Exact permanent via Ryser's inclusion-exclusion over column subsets.

    Subsets are visited in Gray-code order so each step updates the running
    row sums by a single column, O(2**n * n) total.
    """
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n > _RYSER_MAX:
        raise ConfigError(f"permanent limited to {_RYSER_MAX}x{_RYSER_MAX} matrices")
    sums = [0] * n
    total = 0
    prev = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        flipped = gray ^ prev
        col = flipped.bit_length() - 1
        if gray & flipped:
            for l in range(n):
                sums[l] += rows[l][col]
        else:
            for l in range(n):
                sums[l] -= rows[l][col]
        prod = 1
        for s in sums:
            prod *= s
            if prod == 0:
                break
        if prod:
            # term sign is (-1)**(n - |S|)
            total += prod if (n + gray.bit_count()) % 2 == 0 else -prod
        prev = gray
    return total


def main_term_exact(bounds: Bounds) -> Fraction:
    """Exact value of the block-decomposition counting polynomial.

    Equals 2**n / n! times the sum, over the multisets M of n block columns
    c = (i, j) of nonzero width w_c that fit the rows in some order (row l,
    0-based, takes i <= l+1 and j <= ranks[l]), of prod w_c times the
    multinomial n! / prod_c mult_c(M)!.  A dynamic program over base blocks
    keeps, per count of still unplaced columns in each exponent block, the
    integer sum so far; after base block i+1 is added, row i takes the
    unplaced column with the largest exponent block it accepts, a greedy
    choice that finds an arrangement whenever one exists.
    """
    n = bounds.n
    if n > _MAIN_TERM_MAX:
        raise ConfigError(f"main term limited to {_MAIN_TERM_MAX} coordinates")
    # rows in base-bound order; ranks[l] is the 1-based position of row l's
    # exponent bound among the sorted exponent bounds (stable sorts keep ties)
    by_base = sorted(range(n), key=lambda m: bounds.base_max[m])
    by_exp = sorted(range(n), key=lambda l: bounds.exp_max[by_base[l]])
    ranks = [0] * n
    for rank, l in enumerate(by_exp, start=1):
        ranks[l] = rank
    base_edges = [1] + [bounds.base_max[m] for m in by_base]
    exp_edges = [1] + [bounds.exp_max[by_base[l]] for l in by_exp]
    base_widths = [base_edges[k] - base_edges[k - 1] for k in range(1, n + 1)]
    exp_widths = [exp_edges[k] - exp_edges[k - 1] for k in range(1, n + 1)]

    states = {(0,) * n: 1}
    for i in range(n):
        for j in range(max(ranks[i:])):  # no row left takes a higher exponent block
            width = base_widths[i] * exp_widths[j]
            if width == 0:
                continue
            grown: dict[tuple[int, ...], int] = {}
            for state, weight in states.items():
                size = sum(state) + i  # columns chosen so far
                for c in range(n - size + 1):
                    key = state[:j] + (state[j] + c,) + state[j + 1:]
                    grown[key] = grown.get(key, 0) + weight * width**c * math.comb(size + c, c)
            states = grown
        picked: dict[tuple[int, ...], int] = {}
        for state, weight in states.items():
            j = next((j for j in range(ranks[i] - 1, -1, -1) if state[j]), None)
            if j is not None:
                key = state[:j] + (state[j] - 1,) + state[j + 1:]
                picked[key] = picked.get(key, 0) + weight
        states = picked
    return Fraction(2**n * states.get((0,) * n, 0), math.factorial(n))


def main_term(bounds: Bounds) -> float:
    """Float convenience wrapper over ``main_term_exact``."""
    return float(main_term_exact(bounds))


def symmetric_leading_term(n: int, base_max: float, exp_max: float) -> float:
    """Leading form 2**n A**n B**n / n! for n equal bound pairs (A, B)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0**n * float(base_max) ** n * float(exp_max) ** n / math.factorial(n)


def leading_term_envelope(bounds: Bounds) -> tuple[float, float]:
    """(lower, upper) bracket for the main term: upper / n! and upper."""
    upper = 2**bounds.n * math.prod(bounds.base_max) * math.prod(bounds.exp_max)
    return float(Fraction(upper, math.factorial(bounds.n))), float(upper)
