"""The library names that the benchmark harness reaches by name still exist."""

import ast
import importlib
from pathlib import Path

import logforms

_TRACED_JOB = Path(__file__).resolve().parents[1] / "perfbench" / "traced_job.py"


def _targets():
    """``TARGETS`` of the traced job, read from its source without running it."""
    tree = ast.parse(_TRACED_JOB.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("traced_job.py defines no TARGETS")


def test_traced_targets_resolve():
    targets = _targets()
    assert ("logforms.smooth", "check_condition") in targets
    missing = [
        (module, attr)
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_cold_start_entry_point_exists():
    assert callable(logforms.build_factor_table)
