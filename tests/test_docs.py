"""The README's library quick tour runs against the public API."""

import re
from pathlib import Path

import logforms

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    section = _README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(_README), "exec"), {})
    assert [name for name in logforms.__all__ if not hasattr(logforms, name)] == []


def test_package_exports_each_module_all():
    modules = [logforms.core, logforms.conditions, logforms.smooth,
               logforms.asymptotics, logforms.census]
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert logforms.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(logforms, name) is getattr(module, name), name
    assert {"charge", "DEFAULT_BUDGET"}.isdisjoint(logforms.__all__)
