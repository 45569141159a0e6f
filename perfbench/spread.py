"""Run the benchmark once per seed and summarise each metric's spread.

Usage:
  python3 perfbench/spread.py [--workloads census-wide,verify] [--seeds 1-10]

Each run is ``run.py --trace 0`` for ``run_seconds`` from BENCHMARK.json.
For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload: str, seeds: list[int]) -> dict:
    """Median, quartiles, spread and N of every end-to-end metric over one run per seed."""
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, 0)
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": first["unit"], "n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median,
        }
        print(f"  {name:40s} median {median:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {metrics[name]['spread']:.4f}", flush=True)
    return {
        "seeds": seeds,
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        summarise(workload, seed_list(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
