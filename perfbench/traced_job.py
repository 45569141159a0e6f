"""Run one ``logforms`` CLI job in this interpreter with layer spans recorded.

Usage: traced_job.py SPANS_FILE JOB_ID CLI_ARG...

Every function in ``TARGETS`` is replaced by a timing wrapper under each
module name that binds it (``cli`` and ``census`` both import
``build_factor_table``, for example), then ``logforms.cli.main`` runs on the
CLI arguments.  Spans stay in memory and are written to SPANS_FILE as JSON
when the job ends; the CLI's own output goes to stdout as usual.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter
import_start = clock()
import logforms.cli  # noqa: E402  (imports every layer module)

import_end = clock()

# (module, function): span name is "<module>.<function>" without the package.
TARGETS = (
    ("logforms.cli", "parse_args"),
    ("logforms.cli", "run"),
    ("logforms.core", "build_factor_table"),
    ("logforms.census", "count_distinct_rationals"),
    ("logforms.census", "run_census"),
    ("logforms.census", "convergence_run"),
    ("logforms.census", "verify_unique_representation"),
    ("logforms.conditions", "count_e_set"),
    ("logforms.smooth", "check_condition"),
    ("logforms.asymptotics", "main_term_exact"),
    ("logforms.asymptotics", "permanent_brute"),
    ("logforms.asymptotics", "permanent_ryser"),
)

spans: list[list] = []  # [name, start, end, parent index or -1]
_open: list[int] = []


def _traced(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name
        if name == "smooth.check_condition":
            condition = args[0] if args else kwargs.get("condition")
            label = f"{name}.c{condition}"
        index = len(spans)
        spans.append([label, clock(), None, _open[-1] if _open else -1])
        _open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index][2] = clock()
            _open.pop()

    return wrapper


def install() -> None:
    modules = [m for key, m in sys.modules.items() if key == "logforms" or key.startswith("logforms.")]
    for module_name, attr in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _traced(f"{module_name.split('.', 1)[1]}.{attr}", original)
        for module in modules:
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, bound_name, wrapper)


def main() -> int:
    spans_file, job_id, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    install()
    start = clock()
    try:
        code = logforms.cli.main(cli_args)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 2
    end = clock()
    sys.stdout.flush()
    record = {
        "job": job_id,
        "import": [import_start, import_end],
        "main": [start, end],
        "spans": spans,
    }
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
