"""Record goldens and reference census counts for a range of seeds.

Usage: python3 perfbench/record.py [--seeds 0-19]

For every job the seeds produce, the CLI runs once (untimed).  A job that
passes every other check has the digest of its ``results`` block stored in
``goldens.json`` under its command line; each census box's reference count
goes to ``reference_counts.json``.  Run it at a commit whose answers are
trusted: later runs then require the very same ``results`` bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import GOLDENS_PATH, REFERENCE_PATH, check_job, results_digest  # noqa: E402
from run import Runner, spawn  # noqa: E402
from spread import seed_list  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-19")
    args = parser.parse_args()

    runner = Runner()
    bad = 0
    for workload in WORKLOADS:
        for seed in seed_list(args.seeds):
            jobs = jobs_for(workload, seed)
            runner.reference_counts(jobs)
            for job in jobs:
                if job.key in runner.goldens:
                    continue
                _, status, code, _, stdout, stderr = spawn([sys.executable, "-m", "logforms.cli", *job.argv])
                problems = check_job(job, status, code, stdout, runner.counts, {})
                if problems:
                    bad += 1
                    print(f"NOT RECORDED {job.key}: {'; '.join(problems)} {stderr.strip()[-200:]}", flush=True)
                    continue
                runner.goldens[job.key] = results_digest(stdout)
            print(f"{workload} seed {seed}: {len(runner.goldens)} goldens", flush=True)
            for path, data in ((GOLDENS_PATH, runner.goldens), (REFERENCE_PATH, runner.counts)):
                path.write_text(json.dumps(dict(sorted(data.items())), indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
