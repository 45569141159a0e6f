"""Correctness checks for one finished job.

``check_job`` returns a list of problems; an empty list means the job passed.
Census counts are compared with ``reference.distinct_count``, which does not
import ``logforms``.  Every job's ``results`` block is compared byte for byte
with the golden recorded for the same command line, when there is one.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from reference import main_term_sandwich, smooth_base_count
from workloads import Box, Job

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
REFERENCE_PATH = Path(__file__).with_name("reference_counts.json")

# The CLI prints floats with 12 significant digits.
_REL = 1e-11


def box_key(box: Box) -> str:
    base_max, exp_max = box
    return f"{','.join(map(str, base_max))}/{','.join(map(str, exp_max))}"


def load_json(path: Path) -> dict:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def results_block(stdout: str) -> str:
    """The exact text of the report's ``results`` block."""
    start = stdout.index('\n  "results": ')
    end = stdout.index('\n  "metadata": ', start)
    return stdout[start:end]


def results_digest(stdout: str) -> str:
    return hashlib.sha256(results_block(stdout).encode("utf-8")).hexdigest()


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=_REL, abs_tol=1e-300)


def _within_sandwich(value, box: Box) -> bool:
    low, high = main_term_sandwich(*box)
    slack = _REL * high
    return isinstance(value, (int, float)) and low - slack <= value <= high + slack


def _check_census_row(row: dict, box: Box, counts: dict[str, int], formula: float | None) -> list[str]:
    problems = []
    key = box_key(box)
    if row.get("base_max") != list(box[0]) or row.get("exp_max") != list(box[1]):
        problems.append(f"{key}: report is for another box")
    space = math.prod(a * (2 * b + 1) for a, b in zip(*box))
    if row.get("tuple_space") != space:
        problems.append(f"{key}: tuple_space {row.get('tuple_space')} != {space}")
    if row.get("exact_count") != counts[key]:
        problems.append(f"{key}: exact_count {row.get('exact_count')} != reference {counts[key]}")
    value = row.get("formula_value")
    if formula is None:
        if not _within_sandwich(value, box):
            problems.append(f"{key}: main term {value} outside its sandwich")
    elif not _close(value, formula):
        problems.append(f"{key}: formula_value {value} != {formula}")
    if isinstance(value, (int, float)) and value > 0 and not _close(row.get("ratio"), row.get("exact_count", 0) / value):
        problems.append(f"{key}: ratio {row.get('ratio')} is not exact_count / formula_value")
    return problems


def _check_results(job: Job, results: dict, counts: dict[str, int]) -> list[str]:
    box = job.boxes[0]
    base_max, exp_max = box
    n = len(base_max)
    upper = 2**n * math.prod(base_max) * math.prod(exp_max)
    cutoff = min(min(exp_max), min(math.log(a) for a in base_max))
    command = job.command

    if command == "census":
        return _check_census_row(results, box, counts, None)

    if command == "converge":
        reports = results.get("reports", [])
        problems = []
        if results.get("truncated_at") is not None or len(reports) != len(job.boxes):
            problems.append(f"sweep stopped early: {len(reports)} of {len(job.boxes)} reports")
        for row, sweep_box in zip(reports, job.boxes):
            scale = sweep_box[0][0]
            symmetric = 2.0**n * float(scale) ** (2 * n) / math.factorial(n)
            problems += _check_census_row(row, sweep_box, counts, symmetric)
        return problems

    if command == "verify-theorem":
        problems = []
        if results.get("violation_count") != 0 or results.get("violations") != []:
            problems.append(f"{results.get('violation_count')} uniqueness violations reported")
        count = results.get("checked_e_count")
        if not isinstance(count, int) or not 0 <= count <= job.tuple_space:
            problems.append(f"checked_e_count {count} outside the box")
        return problems

    if command == "e-set":
        problems = []
        count = results.get("count")
        if not isinstance(count, int) or not 0 <= count <= job.tuple_space:
            problems.append(f"e-set count {count} outside the box")
        elif not _close(results.get("density"), count / upper):
            problems.append(f"density {results.get('density')} != count / 2^n prod(A_i B_i)")
        if not _close(results.get("cutoff"), cutoff):
            problems.append(f"cutoff {results.get('cutoff')} != min(B_i, ln A_i) = {cutoff}")
        if results.get("coeff_bound") != math.floor(2 * math.log(cutoff)):
            problems.append(f"coeff_bound {results.get('coeff_bound')} != floor(2 ln C)")
        return problems

    if command == "lemmas":
        rows = results.get("conditions", [])
        if [row.get("condition") for row in rows] != [1, 2, 3]:
            return [f"lemmas rows are {[row.get('condition') for row in rows]}, not [1, 2, 3]"]
        problems = []
        for row in rows:
            exact = row.get("exact_count")
            if not isinstance(exact, int) or exact < 0:
                problems.append(f"condition {row['condition']}: count {exact}")
            elif not _close(row.get("ratio"), exact / row.get("bound_value", math.nan)):
                problems.append(f"condition {row['condition']}: ratio is not count / bound")
        smooth = smooth_base_count(base_max, cutoff)
        if rows[1].get("exact_count") != smooth:
            problems.append(f"condition 2: count {rows[1].get('exact_count')} != reference {smooth}")
        return problems

    if command == "asymptotic":
        problems = []
        if not _within_sandwich(results.get("main_term"), box):
            problems.append(f"main term {results.get('main_term')} outside its sandwich")
        if not _close(results.get("envelope_upper"), upper):
            problems.append(f"envelope_upper {results.get('envelope_upper')} != {upper}")
        if not _close(results.get("envelope_lower"), upper / math.factorial(n)):
            problems.append(f"envelope_lower {results.get('envelope_lower')} != upper / n!")
        if not _close(results.get("separated_term"), upper):
            problems.append(f"separated_term {results.get('separated_term')} != {upper}")
        return problems

    return [f"no check for command {command!r}"]


def check_job(
    job: Job, status: str, returncode: int | None, stdout: str, counts: dict[str, int], goldens: dict[str, str]
) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed.

    ``status`` is "exited" or "timeout".  Any exit status but 0 is a failure:
    1 means a uniqueness violation, 2 a refusal or usage error, anything else
    a crash.
    """
    if status != "exited":
        return [status]
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        report = json.loads(stdout)
        digest = results_digest(stdout)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    if report.get("config", {}).get("command") != job.command:
        return ["report is for another command"]
    golden = goldens.get(job.key)
    if golden is not None and golden != digest:
        return ["results block differs from the recorded golden"]
    return _check_results(job, report.get("results", {}), counts)
