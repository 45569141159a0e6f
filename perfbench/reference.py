"""Independent reference answers for checking benchmark jobs.

Nothing here imports ``logforms``.  The distinct-value count uses its own
sieve and its own key scheme, and it builds the value set one coordinate at
a time (``V_k = V_{k-1} + S_k`` with deduplication after each layer), whereas
the package walks every box tuple.  So a shared bug is unlikely to make both
agree on a wrong number.
"""

from __future__ import annotations

import math


def _smallest_prime_factors(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _exponents(a: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while a > 1:
        p = spf[a]
        out[p] = out.get(p, 0) + 1
        a //= p
    return out


def distinct_count(base_max: tuple[int, ...], exp_max: tuple[int, ...]) -> int:
    """Exact number of distinct rationals a_1**b_1 * ... * a_n**b_n,
    1 <= a_i <= base_max[i], |b_i| <= exp_max[i].

    A value is its prime-exponent vector.  Each vector is encoded as an integer
    with one balanced digit per prime in radix ``2 M + 1``, where ``M`` bounds
    every prime's total exponent in the box; digit-wise sums then never carry,
    so integer addition is vector addition and the encoding is injective.
    """
    limit = max(base_max)
    spf = _smallest_prime_factors(limit)
    primes = [p for p in range(2, limit + 1) if spf[p] == p]
    place = {p: k for k, p in enumerate(primes)}
    bound = sum(b * max(1, a.bit_length() - 1) for a, b in zip(base_max, exp_max))
    radix = 2 * bound + 1
    code = [0] * (limit + 1)
    for a in range(2, limit + 1):
        code[a] = sum(e * radix ** place[p] for p, e in _exponents(a, spf).items())

    values = {0}
    for a_max, b_max in zip(base_max, exp_max):
        layer = {b * code[a] for a in range(1, a_max + 1) for b in range(-b_max, b_max + 1)}
        grown: set[int] = set()
        for v in values:
            grown.update(map(v.__add__, layer))
        values = grown
    return len(values)


def smooth_base_count(base_max: tuple[int, ...], cutoff: float) -> int:
    """Base tuples with at least one base whose prime factors are all <= cutoff."""
    limit = max(base_max)
    spf = _smallest_prime_factors(limit)
    greatest = [0] * (limit + 1)
    for a in range(2, limit + 1):
        greatest[a] = max(_exponents(a, spf))
    smooth = [sum(1 for a in range(1, a_max + 1) if greatest[a] <= cutoff) for a_max in base_max]
    return math.prod(base_max) - math.prod(a - s for a, s in zip(base_max, smooth))


def main_term_sandwich(base_max: tuple[int, ...], exp_max: tuple[int, ...]) -> tuple[float, float]:
    """Bounds every block-sum main term obeys: shrunk / n! <= main term <= shrunk,
    with shrunk = 2**n * prod (A_i - 1)(B_i - 1)."""
    n = len(base_max)
    shrunk = 2**n * math.prod((a - 1) * (b - 1) for a, b in zip(base_max, exp_max))
    return shrunk / math.factorial(n), float(shrunk)
