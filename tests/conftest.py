"""Shared fixtures, and the one brute-force oracle per exclusion condition.

The oracles share no code with the filter engines in ``logforms.conditions``:
condition 1 factors by trial division instead of the factor table, and
condition 3 scans the whole coefficient box instead of meeting in the middle.
Condition 2 is checked against ``logforms.has_smooth_base``.  Test modules
import the oracles with ``from conftest import ...``.
"""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logforms
from logforms import build_factor_table


@pytest.fixture(scope="session")
def table_small():
    """Factor table covering every base used by the small-box tests."""
    return build_factor_table(300)


@pytest.fixture(scope="session")
def table_grid():
    """Factor table covering the lemma grid (bases up to 10**4)."""
    return build_factor_table(10_000)


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a new interpreter that imports this logforms; returns
    (exit code, stdout, stderr).  The test session has imported numpy, so
    only a new interpreter can see what an import loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(logforms.__file__).resolve().parents[1]))

    def run(script: str, *args: str) -> tuple[int, str, str]:
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    return run


@pytest.fixture
def sieves(monkeypatch):
    """Limits of every factor table built, spied under each name that binds
    ``build_factor_table``."""
    original = logforms.core.build_factor_table
    built = []

    def spy(limit):
        built.append(limit)
        return original(limit)

    for name, module in list(sys.modules.items()):
        if name == "logforms" or name.startswith("logforms."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    return built


@functools.lru_cache(maxsize=None)
def _trial_division(m):
    """The (prime, multiplicity) pairs of m >= 1, by trial division."""
    factors = []
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def large_prime_power_scan(bases, cutoff):
    """Condition 1 oracle: some prime has multiplicity e >= 2 in the product of
    ``bases`` with p**e >= cutoff."""
    total = {}
    for a in bases:
        for p, e in _trial_division(a):
            total[p] = total.get(p, 0) + e
    return any(e >= 2 and p**e >= cutoff for p, e in total.items())


def relation_scan(rows, k):
    """Condition 3 oracle per row of a (q, n) array: some nonzero c with every
    |c_i| <= k has c . row = 0, by exhaustive scan of the coefficient box.
    float64 products of these small integers are exact."""
    rows = np.asarray(rows)
    coeffs = np.array(list(itertools.product(range(-k, k + 1), repeat=rows.shape[1])))
    coeffs = coeffs[(coeffs != 0).any(axis=1)].astype(float)
    chunks = np.array_split(rows.astype(float), max(1, len(rows) // 16))
    return np.concatenate([(coeffs @ chunk.T == 0).any(axis=0) for chunk in chunks])
