"""Measure the baseline of the package as checked out and write baseline.json.

Usage: python3 perfbench/baseline.py

Three parts, each saved as soon as it is done; everything in the file comes
from this script:
  sets    two sets of one ``--trace 0`` run per seed and workload (seeds 1-10,
          then 11-20), with median, quartiles, spread and N of every
          end-to-end metric.  The second set shows whether the first repeats
          within the bounds in BENCHMARK.json.
  traced  one ``--trace 1`` run per workload at seed 1: every per-layer
          metric, the tracing overhead and the time no span covers (ungated).
  probe   the headroom probe's record (ungated).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import probe  # noqa: E402
from spread import RUN_SECONDS, run_once, summarise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PATH = HERE / "baseline.json"
SETS = {"1": range(1, 11), "2": range(11, 21)}
TRACED_SEED = 1


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    record = {"machine": machine(), "run_seconds": RUN_SECONDS, "sets": {}, "traced": {}, "probe": None}

    def save() -> None:
        PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, seeds in SETS.items():
        record["sets"][name] = {workload: summarise(workload, list(seeds)) for workload in WORKLOADS}
        save()
    for workload in WORKLOADS:
        result = run_once(workload, TRACED_SEED, 1)
        record["traced"][workload] = {"seed": TRACED_SEED, **result}
        save()
    record["probe"] = probe()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
