"""Benchmark for the ``logforms`` command line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of census-wide, census-deep,
verify, main-term, or ``all``.  Each job is a fresh
``python -m logforms.cli COMMAND -A ... -B ...`` process, the way a user runs
it, one at a time from this process (a closed loop with one client).  The job
list is built from the seed and run back to back in passes until S seconds
have gone by.  Every job's output is checked (see ``checks.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; traced jobs run through
``traced_job.py``, and the last line carries the per-layer metrics.  Spans
are written to ``.perfbench/trace-<workload>-seed<N>.json`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import GOLDENS_PATH, REFERENCE_PATH, box_key, check_job, load_json  # noqa: E402
from reference import distinct_count  # noqa: E402
from workloads import WORKLOADS, Job, jobs_for  # noqa: E402

ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
JOB_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
JOB_TIMEOUT_S = 60.0
# Cold starts before every pass; setup_s is the median of all of them.
SETUP_PER_PASS = 3
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "tuples_per_s": "tuples/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (unit, how it is read from a traced pass)
PER_LAYER = {
    "census.count_distinct_rationals.s": ("s", ("s", "census.count_distinct_rationals")),
    "census.values_per_tuple": ("values/tuple", ("values_per_tuple",)),
    "census.run_census.self_s": ("s", ("self_s", "census.run_census")),
    "census.convergence_run.self_s": ("s", ("self_s", "census.convergence_run")),
    "census.verify_unique_representation.s": ("s", ("s", "census.verify_unique_representation")),
    "census.violations": ("count", ("violations",)),
    "conditions.count_e_set.s": ("s", ("s", "conditions.count_e_set")),
    "smooth.check_condition.c1.s": ("s", ("s", "smooth.check_condition.c1")),
    "smooth.check_condition.c2.s": ("s", ("s", "smooth.check_condition.c2")),
    "smooth.check_condition.c3.s": ("s", ("s", "smooth.check_condition.c3")),
    "asymptotics.main_term_exact.s": ("s", ("s", "asymptotics.main_term_exact")),
    "asymptotics.permanents": ("count", ("permanents",)),
    "asymptotics.permanent.s": ("s", ("s", "asymptotics.permanent_brute", "asymptotics.permanent_ryser")),
    "core.build_factor_table.s": ("s", ("s", "core.build_factor_table")),
    "cli.start_s": ("s", ("start_s",)),
    "cli.parse_args.s": ("s", ("s", "cli.parse_args")),
    "cli.run.self_s": ("s", ("self_s", "cli.run")),
    "trace.uncovered_s": ("s", ("uncovered_s",)),
    "trace.overhead_s": ("s", ("overhead_s",)),
}


@dataclass
class Outcome:
    job: Job
    wall: float
    status: str  # "exited" or "timeout"
    returncode: int | None
    rss_mb: float
    stdout: str
    stderr: str
    spans: dict | None = None
    problems: list[str] = field(default_factory=list)


def spawn(argv: list[str], timeout: float = JOB_TIMEOUT_S, memory_cap_mb: int | None = None):
    """Run one process to completion with the package on its path; returns
    (wall, status, returncode, max RSS in MB, stdout, stderr).  ``status`` is
    "exited" or "timeout".  ``memory_cap_mb`` caps the child's address space."""
    WORK_DIR.mkdir(exist_ok=True)
    out_path, err_path = WORK_DIR / f"job-{os.getpid()}.stdout", WORK_DIR / f"job-{os.getpid()}.stderr"
    cap = None if memory_cap_mb is None else memory_cap_mb * 2**20

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        expired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=JOB_ENV, cwd=ROOT,
                                preexec_fn=None if cap is None else limit_memory)

        def expire() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    out_path.unlink()
    err_path.unlink()
    status = "timeout" if expired.is_set() else "exited"
    return wall, status, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


class Runner:
    def __init__(self) -> None:
        self.goldens = load_json(GOLDENS_PATH)
        self.counts = load_json(REFERENCE_PATH)
        self.next_job_id = 0

    def reference_counts(self, jobs: list[Job]) -> None:
        """Fill in reference census counts missing from the shipped cache."""
        for job in jobs:
            if job.command in ("census", "converge"):
                for box in job.boxes:
                    key = box_key(box)
                    if key not in self.counts:
                        self.counts[key] = distinct_count(*box)

    def cold_start(self, limit: int) -> float:
        """Wall time for a fresh interpreter to import logforms and build the
        factor table for base bounds up to ``limit``."""
        argv = [sys.executable, "-c", f"import logforms; logforms.build_factor_table({limit})"]
        wall, status, code, _, _, stderr = spawn(argv)
        if status != "exited" or code != 0:
            raise RuntimeError(f"cold start failed ({status}, exit {code}): {stderr.strip()[-500:]}")
        return wall

    def run_pass(self, jobs: list[Job], traced: bool) -> tuple[float, list[Outcome]]:
        outcomes = []
        start = time.perf_counter()
        for job in jobs:
            if traced:
                job_id = self.next_job_id
                self.next_job_id += 1
                spans_path = WORK_DIR / "job.spans.json"
                spans_path.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "traced_job.py"), str(spans_path), str(job_id), *job.argv]
            else:
                argv = [sys.executable, "-m", "logforms.cli", *job.argv]
            outcome = Outcome(job, *spawn(argv))
            if traced and spans_path.exists():
                outcome.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            outcomes.append(outcome)
        wall = time.perf_counter() - start
        for outcome in outcomes:
            outcome.problems = check_job(
                outcome.job, outcome.status, outcome.returncode, outcome.stdout, self.counts, self.goldens
            )
            if traced and outcome.spans is None and not outcome.problems:
                outcome.problems = ["traced job wrote no spans"]
        return wall, outcomes


def _percentile_note(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    q = (100 * (n - 10)) // n if n > 10 else 0
    if q <= 50:
        return "no percentile above p50 has 10 jobs beyond it"
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return f"p{q} = {cut:.4f} s ({sum(v > cut for v in values)} jobs beyond it)"


def end_to_end(passes: list[tuple[float, list[Outcome]]], setup: list[float]) -> tuple[dict, list[str]]:
    """Timings are medians over the whole run.  The host's speed swings by
    20-40 % from one second to the next and drifts over minutes; the median of
    many samples repeats from run to run better than the fastest one does."""
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    walls = [o.wall for o in outcomes]
    per_job = [statistics.median(p[k].wall for _, p in passes) for k in range(len(passes[0][1]))]
    tuples = sum(o.job.tuple_space for o in passes[0][1])
    values = {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "job_p50_s": statistics.median(per_job),
        "tuples_per_s": tuples / sum(per_job),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"wall_s        median of {len(passes)} passes of {len(per_job)} jobs",
        f"job_p50_s     median over {len(per_job)} jobs of each job's median wall",
        f"              all {len(walls)} job walls: {_percentile_note(walls)}",
        f"tuples_per_s  {tuples} tuples / {sum(per_job):.3f} s, the sum of the jobs' median walls",
        f"peak_rss_mb   largest max-RSS of {len(outcomes)} job processes",
        f"setup_s       median of {len(setup)} cold starts, {SETUP_PER_PASS} before each pass",
    ]
    return values, notes


def _layer_totals(outcomes: list[Outcome]) -> dict:
    """Sums over one traced pass: inclusive ("s") and self ("self_s") time per
    span name, plus the counters the per-layer metrics read."""
    totals: dict = {
        "start_s": 0.0, "uncovered_s": 0.0, "permanents": 0, "violations": 0, "values": 0, "tuples": 0,
    }
    for o in outcomes:
        record = o.spans or {"spans": [], "import": [0, 0], "main": [0, 0]}
        main_s = record["main"][1] - record["main"][0]
        totals["start_s"] += o.wall - main_s
        totals["uncovered_s"] += o.wall - main_s - (record["import"][1] - record["import"][0])
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), inner in zip(spans, covered):
            totals[("s", name)] = totals.get(("s", name), 0.0) + end - start
            totals[("self_s", name)] = totals.get(("self_s", name), 0.0) + end - start - inner
            if name in ("asymptotics.permanent_brute", "asymptotics.permanent_ryser"):
                totals["permanents"] += 1
        if not o.problems and o.job.command in ("census", "converge", "verify-theorem"):
            results = json.loads(o.stdout)["results"]
            rows = results.get("reports", [results])
            if o.job.command == "verify-theorem":
                totals["violations"] += results["violation_count"]
            else:
                totals["values"] += sum(row["exact_count"] for row in rows)
                totals["tuples"] += sum(row["tuple_space"] for row in rows)
    totals["values_per_tuple"] = totals["values"] / totals["tuples"] if totals["tuples"] else 0.0
    return totals


def per_layer(untraced: list[float], traced: list[tuple[float, list[Outcome]]]) -> tuple[dict, list[str]]:
    per_pass = [_layer_totals(outcomes) for _, outcomes in traced]
    overhead = statistics.median(w for w, _ in traced) - statistics.median(untraced)
    values = {}
    for name, (_, source) in PER_LAYER.items():
        kind, *span_names = source
        if kind == "overhead_s":
            values[name] = overhead
        elif span_names:
            values[name] = statistics.median(sum(t.get((kind, s), 0.0) for s in span_names) for t in per_pass)
        else:
            values[name] = statistics.median(t[kind] for t in per_pass)
    first = per_pass[0]
    job_wall = sum(o.wall for o in traced[0][1])
    notes = [
        f"per-layer values: median over {len(traced)} traced passes of per-pass sums",
        f"trace.overhead_s = median traced pass {statistics.median(w for w, _ in traced):.4f} s"
        f" - median untraced pass {statistics.median(untraced):.4f} s",
        f"census.values_per_tuple = {first['values']} values / {first['tuples']} tuples (first traced pass)",
        f"uncovered by any span: {first['uncovered_s']:.4f} s of {job_wall:.4f} s job wall (first traced pass)",
        "self time per span, first traced pass:",
    ]
    selfs = sorted(((v, k[1]) for k, v in first.items() if isinstance(k, tuple) and k[0] == "self_s"), reverse=True)
    imports = first["start_s"] - first["uncovered_s"]
    selfs += [(imports, "(import logforms)"), (first["uncovered_s"], "(no span: interpreter start and exit)")]
    notes += [f"  {name:45s} {value:9.4f} s  {100 * value / job_wall:5.1f}%" for value, name in selfs]
    return values, notes


def _write_trace(workload: str, seed: int, traced: list[tuple[float, list[Outcome]]]) -> Path:
    path = WORK_DIR / f"trace-{workload}-seed{seed}.json"
    jobs = [
        {"job": o.spans["job"] if o.spans else None, "argv": list(o.job.argv), "wall_s": o.wall,
         "rss_mb": o.rss_mb, "import": o.spans and o.spans["import"], "main": o.spans and o.spans["main"],
         "spans": [dict(zip(("name", "start", "end", "parent"), s)) for s in (o.spans or {}).get("spans", [])]}
        for _, outcomes in traced for o in outcomes
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "jobs": jobs}), encoding="utf-8")
    return path


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    jobs = jobs_for(workload, seed)
    runner.reference_counts(jobs)
    limit = max(max(box[0]) for job in jobs for box in job.boxes)
    runner.cold_start(limit)  # the first start may compile bytecode
    setup: list[float] = []
    untraced: list[tuple[float, list[Outcome]]] = []
    traced: list[tuple[float, list[Outcome]]] = []
    start = time.perf_counter()
    # Whole passes only: stop before a pass that would end past the deadline,
    # after at least MIN_PASSES.  With tracing, untraced and traced passes alternate.
    while True:
        setup.extend(runner.cold_start(limit) for _ in range(SETUP_PER_PASS))
        tracing = trace and len(traced) < len(untraced)
        (traced if tracing else untraced).append(runner.run_pass(jobs, tracing))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
            break
    outcomes = [o for _, pass_outcomes in untraced + traced for o in pass_outcomes]
    failed = [o for o in outcomes if o.problems]

    print(f"== {workload}  seed {seed}  {len(jobs)} jobs per pass")
    for job in jobs:
        print(f"   {job.key}")
    if trace:
        values, notes = per_layer([w for w, _ in untraced], traced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        notes.append(f"spans written to {_write_trace(workload, seed, traced).relative_to(ROOT)}")
    else:
        values, notes = end_to_end(untraced, setup)
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"   {name:40s} {value:14.6g} {units[name]}")
    for note in notes:
        print(f"   {note}")
    for o in failed:
        print(f"   FAILED {o.job.key}: {'; '.join(o.problems)}")
        if o.stderr.strip():
            print(f"     stderr: {o.stderr.strip().splitlines()[-1]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, len(outcomes), len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "logforms" / "cli.py").is_file():
        print(f"error: no logforms package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    runner = Runner()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            got, tried, bad = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in got.items()})
            attempted += tried
            failed += bad
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
