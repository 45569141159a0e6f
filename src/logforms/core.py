"""Factorization infrastructure, box types and the resource guards.

A form tuple pairs bases (a_1, ..., a_n) with signed exponents (b_1, ..., b_n)
and represents the positive rational a_1**b_1 * ... * a_n**b_n.  The factor
table holds one array, the greatest prime factor of every base; peeling it
gives each base its prime factorization, and the census and the filters in
the other modules build their exact keys and masks from it.

numpy is imported lazily: ``np`` below is the one handle the package's modules
use, and numpy's own import runs on the first attribute read through it, so a
command that never touches an array (the main term) never pays for it.  On
Python < 3.12 that first read must not race from two threads.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass

__all__ = [
    "BudgetError",
    "ConfigError",
    "Bounds",
    "FormTuple",
    "Permutation",
    "FactorTable",
    "build_factor_table",
    "factorize",
]


def _lazy(name: str):
    """The module ``name``, executed on its first attribute read.

    An imported module is returned as it is.  Otherwise the lazy module is
    registered in ``sys.modules``, so a later ``import name`` finds it (and,
    reading its spec, loads it at once).
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


class BudgetError(RuntimeError):
    """An operation would exceed its configured resource budget."""


class ConfigError(ValueError):
    """Parameters are structurally valid but outside the usable regime."""


# The default of every ``budget`` parameter and of ``--budget``, in work units.
DEFAULT_BUDGET = 10**8


def charge(work: int, budget: int, doing: str) -> None:
    """Refuse the stage that ``doing`` describes, before it starts, if work > budget."""
    if work > budget:
        raise BudgetError(f"{doing}, over the budget of {budget}; raise --budget")


# Hard cap on sieve size; above this the table would not fit comfortably in
# memory for a desk-scale run.
_SIEVE_CAP = 100_000_000


@dataclass(frozen=True)
class Bounds:
    """Box constraints: per-coordinate caps on bases and absolute exponents.

    Coordinate i ranges over bases 1 <= a_i <= base_max[i] and exponents
    |b_i| <= exp_max[i].
    """

    base_max: tuple[int, ...]
    exp_max: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_max", tuple(int(a) for a in self.base_max))
        object.__setattr__(self, "exp_max", tuple(int(b) for b in self.exp_max))
        if len(self.base_max) != len(self.exp_max):
            raise ValueError("base_max and exp_max must have equal length")
        if not self.base_max:
            raise ValueError("bounds need at least one coordinate")
        if any(a < 1 for a in self.base_max):
            raise ValueError("every base bound must be >= 1")
        if any(b < 1 for b in self.exp_max):
            raise ValueError("every exponent bound must be >= 1")

    @property
    def n(self) -> int:
        return len(self.base_max)

    def tuple_space(self) -> int:
        """Number of form tuples in the box: prod A_i * (2 B_i + 1)."""
        return math.prod(a * (2 * b + 1) for a, b in zip(self.base_max, self.exp_max))


@dataclass(frozen=True)
class FormTuple:
    """One representation: bases (a_1..a_n) with signed exponents (b_1..b_n)."""

    bases: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(int(a) for a in self.bases))
        object.__setattr__(self, "exps", tuple(int(b) for b in self.exps))
        if len(self.bases) != len(self.exps):
            raise ValueError("bases and exps must have equal length")
        if not self.bases:
            raise ValueError("form tuple needs at least one coordinate")
        if any(a < 1 for a in self.bases):
            raise ValueError("every base must be a positive integer")


@dataclass(frozen=True)
class Permutation:
    """A bijection on coordinate positions 0..n-1; images[i] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"images {self.images} are not a bijection on 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))


class FactorTable:
    """Read-only prime-factor table for integers 2..limit.

    ``gpf()[m]`` is the largest prime dividing m (and 0 for m < 2); it is the
    table's one array.  The limit is checked at once.  A table made without
    the array sieves it through ``build_factor_table`` on first use, so a
    stage that a budget charge refuses before it reads the table never pays
    for the sieve.  The array is never mutated.  Two threads that race on a
    first use build equal arrays, so the table is safe to share.
    """

    __slots__ = ("limit", "_gpf")

    def __init__(self, limit: int, gpf: np.ndarray | None = None):
        self.limit = _sieve_limit(limit)
        self._gpf = gpf

    def gpf(self) -> np.ndarray:
        """gpf[m] is the largest prime dividing m (and 0 for m < 2)."""
        if self._gpf is None:
            self._gpf = build_factor_table(self.limit).gpf()
        return self._gpf

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending."""
        idx = np.arange(self.limit + 1, dtype=np.int32)
        # gpf[0] = 0 matches index 0, which is dropped
        return np.nonzero(self.gpf() == idx)[0][1:]

    def __repr__(self) -> str:  # pragma: no cover
        return f"FactorTable(limit={self.limit})"


def _sieve_limit(limit: int) -> int:
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > _SIEVE_CAP:
        raise BudgetError(f"sieve limit {limit} exceeds memory budget {_SIEVE_CAP}")
    return limit


def build_factor_table(limit: int) -> FactorTable:
    """Sieve greatest prime factors for every integer up to ``limit``, in two phases.

    First the primes p <= r = isqrt(limit) write p to their multiples, largest last.
    Every m <= limit has at most one prime factor P > r, which is then gpf[m],
    and the entries still 0 above r are those primes.  So for each cofactor
    k <= limit // (r + 1), one vectorized write sets gpf[k * P] = P for P <= limit // k.

    limit = 1 yields an empty table (there are no integers >= 2 to factor).
    """
    limit = _sieve_limit(limit)
    root = math.isqrt(limit)
    gpf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, root + 1):
        if not gpf[p]:  # no smaller prime divides p
            gpf[p::p] = p
    large = np.flatnonzero(gpf[root + 1 :] == 0) + (root + 1)
    for k in range(1, limit // (root + 1) + 1):
        primes = large[: np.searchsorted(large, limit // k, side="right")]
        gpf[k * primes] = primes
    return FactorTable(limit, gpf)


def factorize(m: int, table: FactorTable) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m as ((p, multiplicity), ...) with primes ascending.

    factorize(1) is the empty tuple.
    """
    m = int(m)
    if m < 1:
        raise ValueError("can only factor positive integers")
    if m > table.limit:
        raise ValueError(f"{m} exceeds factor table limit {table.limit}")
    gpf = table.gpf()
    out: list[tuple[int, int]] = []
    while m > 1:
        p = int(gpf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    out.reverse()
    return tuple(out)
