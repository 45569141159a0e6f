"""Seeded job lists for the benchmark workloads.

A job is one ``logforms`` CLI invocation.  Boxes are drawn from the seed per
*slot*: a slot fixes the box's tuple count (or, for main terms, the tie pattern
and A/B interleaving) and the seed picks the shape that realises it.  This keeps the work in one pass of
the job list nearly the same from seed to seed, so runs with different seeds
can be compared, while the inputs themselves still vary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Box = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the boxes whose tuples it covers."""

    argv: tuple[str, ...]
    boxes: tuple[Box, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def tuple_space(self) -> int:
        return sum(tuple_space(box) for box in self.boxes)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def tuple_space(box: Box) -> int:
    base_max, exp_max = box
    return math.prod(a * (2 * b + 1) for a, b in zip(base_max, exp_max))


def box_job(command: str, box: Box) -> Job:
    base_max, exp_max = box
    argv = (command, "-A", ",".join(map(str, base_max)), "-B", ",".join(map(str, exp_max)))
    return Job(argv, (box,))


def _solve_box(rng: random.Random, target: int, a_range: tuple[int, int], draw_exps) -> Box:
    """Random box with every A_i in a_range and about ``target`` tuples.

    ``draw_exps()`` gives the exponent bounds; all base bounds but one are
    drawn and the last is solved for, so the tuple count is within one step
    of that base bound of the target.
    """
    for _ in range(100_000):
        exp_max = tuple(draw_exps())
        head = tuple(rng.randint(*a_range) for _ in exp_max[1:])
        last = round(target / (math.prod(head) * math.prod(2 * b + 1 for b in exp_max)))
        if a_range[0] <= last <= a_range[1]:
            return _shuffled(rng, head + (last,), exp_max)
    raise ValueError(f"no box with {target} tuples and base bounds in {a_range}")


def _shuffled(rng: random.Random, base_max: tuple[int, ...], exp_max: tuple[int, ...]) -> Box:
    """The same box with its coordinates in a seeded order."""
    order = list(range(len(base_max)))
    rng.shuffle(order)
    return tuple(base_max[k] for k in order), tuple(exp_max[k] for k in order)


def _drawn(rng: random.Random, n: int, b_range: tuple[int, int]):
    return lambda: [rng.randint(*b_range) for _ in range(n)]


def _permuted(rng: random.Random, exps: tuple[int, ...]):
    return lambda: rng.sample(exps, len(exps))


# Anchor with a ROADMAP-recorded census count (1 463 843 values).  It is also
# the job with the largest key set, so it sets the workload's peak RSS.
WIDE_ANCHOR: Box = ((100, 100), (10, 10))

# tuple counts of the seeded census boxes
WIDE_TARGETS = (1_600_000,)
# (tuple count, exponent bounds, base bound range).  The exponent bounds are
# permuted, not drawn, so every seed walks the same exponent shape and the
# cost moves only with the base bounds.  n=4 boxes under the CLI's 1e8-tuple
# budget and a few seconds of work need every B_i = 2 and base bounds just
# above 10, hence the narrower range.
DEEP_SLOTS = ((4_000_000, (3, 3, 2), (10, 30)), (8_000_000, (2, 2, 2, 2), (10, 14)))
CONVERGE_SCALES = (4, 6, 8)
# (base tuple count, exponent bounds, base bound range).  The exponent bounds
# are permuted and the base count is held, so the filter passes (per base
# tuple and per exponent tuple) do the same amount of work for every seed.
# The narrow base ranges keep the cutoff C = min(B_i, ln A_i), and with it the
# share of tuples the filters keep, close to constant.  The n=2 box sets the
# peak RSS (the grouping dict); larger n=2 boxes straddle a dict resize, so
# their RSS jumps by 15 % from seed to seed.
VERIFY_SLOTS = (
    (3_000, (8, 11), (45, 70)),
    (30_000, (2, 3, 4), (25, 40)),
)
# Main-term boxes, coordinates sorted by base bound, with three to five
# distinct values per side.  The cost of the block sum depends on the tie
# pattern and on how the A and B orders interleave, so both stay fixed; the
# seed moves each distinct base bound by up to 3, keeping the order and the
# product of the base bounds.
MAIN_TERM_SLOTS = (
    ((20, 30, 40, 50, 60), (4, 6, 5, 3, 2)),
    ((20, 30, 30, 40, 50, 60), (4, 5, 3, 3, 4, 5)),
    ((20, 30, 30, 40, 50, 60), (3, 4, 3, 6, 4, 5)),
    ((20, 20, 40, 40, 60, 60), (6, 4, 3, 5, 4, 2)),
)


def census_wide(rng: random.Random) -> list[Job]:
    boxes = [WIDE_ANCHOR] + [_solve_box(rng, t, (60, 120), _drawn(rng, 2, (8, 14))) for t in WIDE_TARGETS]
    return [box_job("census", box) for box in boxes]


def census_deep(rng: random.Random) -> list[Job]:
    boxes = [_solve_box(rng, t, a_range, _permuted(rng, exps)) for t, exps, a_range in DEEP_SLOTS]
    jobs = [box_job("census", box) for box in boxes]
    scales = ",".join(map(str, CONVERGE_SCALES))
    sweep = tuple(((s,) * 3, (s,) * 3) for s in CONVERGE_SCALES)
    jobs.append(Job(("converge", "--shape", "equal", "-n", "3", "--scales", scales), sweep))
    return jobs


def verify(rng: random.Random) -> list[Job]:
    jobs = []
    for bases, exps, a_range in VERIFY_SLOTS:
        target = bases * math.prod(2 * b + 1 for b in exps)
        box = _solve_box(rng, target, a_range, _permuted(rng, exps))
        jobs.extend(box_job(cmd, box) for cmd in ("verify-theorem", "e-set", "lemmas"))
    return jobs


def _jittered_levels(rng: random.Random, base_max: tuple[int, ...]) -> tuple[int, ...]:
    levels = sorted(set(base_max))
    mult = [base_max.count(level) for level in levels]
    target = math.prod(base_max)
    while True:
        moved = [level + rng.randint(-3, 3) for level in levels[:-1]]
        rest = math.prod(level**m for level, m in zip(moved, mult))
        top = round((target / rest) ** (1 / mult[-1]))
        if abs(top - levels[-1]) <= 3:
            new = dict(zip(levels, moved + [top]))
            return tuple(new[a] for a in base_max)


def main_term(rng: random.Random) -> list[Job]:
    return [
        box_job("asymptotic", (_jittered_levels(rng, base_max), exp_max))
        for base_max, exp_max in MAIN_TERM_SLOTS
    ]


WORKLOADS = {
    "census-wide": census_wide,
    "census-deep": census_deep,
    "verify": verify,
    "main-term": main_term,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
