import os
import subprocess
import sys
from pathlib import Path

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
