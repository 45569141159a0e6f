"""Self-tests for the benchmark's reference and job checker.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import box_key, check_job, results_digest  # noqa: E402
from reference import distinct_count  # noqa: E402
from run import spawn  # noqa: E402
from workloads import WORKLOADS, box_job, jobs_for, tuple_space  # noqa: E402


@pytest.mark.parametrize(
    "box, count",
    [
        # Project Euler 29 / OEIS A126254: 9183 distinct a^b (2 <= a, b <= 100),
        # plus 87 non-powers at b = 1, doubled for reciprocals, plus 1.
        (((100,), (100,)), 18_541),
        (((100, 100), (10, 10)), 1_463_843),
        (((30, 30, 30), (3, 3, 3)), 275_621),
        (((12, 12, 12, 12), (2, 2, 2, 2)), 21_819),
    ],
)
def test_reference_anchors(box, count):
    assert distinct_count(*box) == count


def _cli(*argv: str) -> tuple[int, str]:
    _, _, code, _, stdout, _ = spawn([sys.executable, "-m", "logforms.cli", *argv])
    return code, stdout


BOX = ((9, 12), (2, 3))


@pytest.fixture(scope="module")
def census_stdout() -> str:
    code, stdout = _cli(*box_job("census", BOX).argv)
    assert code == 0
    return stdout


def test_correct_census_passes(census_stdout):
    job = box_job("census", BOX)
    counts = {box_key(BOX): distinct_count(*BOX)}
    goldens = {job.key: results_digest(census_stdout)}
    assert check_job(job, "exited", 0, census_stdout, counts, goldens) == []


def test_wrong_census_count_fails(census_stdout):
    job = box_job("census", BOX)
    report = json.loads(census_stdout)
    report["results"]["exact_count"] += 1
    wrong = json.dumps(report, indent=2) + "\n"
    counts = {box_key(BOX): distinct_count(*BOX)}
    assert check_job(job, "exited", 0, wrong, counts, {})
    assert check_job(job, "exited", 0, wrong, counts, {job.key: results_digest(census_stdout)})


def test_violation_fails():
    job = box_job("verify-theorem", BOX)
    code, stdout = _cli(*job.argv)
    assert code == 0 and check_job(job, "exited", 0, stdout, {}, {}) == []
    report = json.loads(stdout)
    report["results"]["violation_count"] = 1
    report["results"]["violations"] = [
        {"value": "4", "first_bases": [2, 1], "first_exps": [2, 0], "second_bases": [4, 1], "second_exps": [1, 0]}
    ]
    assert check_job(job, "exited", 1, json.dumps(report, indent=2), {}, {})
    assert check_job(job, "exited", 0, json.dumps(report, indent=2), {}, {})


@pytest.mark.parametrize("status, code", [("exited", 1), ("exited", 2), ("exited", -9), ("timeout", -9)])
def test_bad_exit_fails(census_stdout, status, code):
    job = box_job("census", BOX)
    assert check_job(job, status, code, census_stdout, {box_key(BOX): distinct_count(*BOX)}, {})


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_jobs_are_seeded(workload):
    assert jobs_for(workload, 3) == jobs_for(workload, 3)
    assert jobs_for(workload, 3) != jobs_for(workload, 4)
    for seed in range(300):  # every seed yields boxes the CLI's default budget admits
        jobs = [job for job in jobs_for(workload, seed) if job.command != "asymptotic"]
        assert all(tuple_space(box) <= 10**8 for job in jobs for box in job.boxes)
